//! The compact per-record binary codec.
//!
//! Records are encoded little-endian with three space levers:
//!
//! - **Delta-encoded timestamps.** Within a chunk, `micros` is stored as
//!   a varint delta from the previous record (records are time-sorted,
//!   so deltas are small), and `reply_micros` as a zigzag varint delta
//!   from the record's own `micros` (replies trail calls by a few
//!   hundred microseconds; a lost reply — `reply_micros == 0` — is a
//!   large negative delta, encoded exactly via wrapping arithmetic).
//! - **Varints everywhere.** Identities, offsets, counts, and status
//!   are LEB128 varints: the common small values take one byte, the
//!   rare `u32::MAX` "no reply" status takes five.
//! - **Escaped-name interning.** Name arguments are percent-escaped
//!   exactly as the text trace format escapes them
//!   ([`nfstrace_core::text::escape_name`]) and interned into a
//!   per-chunk string table; records reference names by varint index,
//!   so the ~dozen hot names of a mail workload (`inbox`, `inbox.lock`,
//!   …) are stored once per chunk.
//!
//! A presence bitmap leads each record so the nine optional fields cost
//! nothing when absent.

use crate::error::{Result, StoreError};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::text::{escape_name, unescape_name};
use std::collections::HashMap;

/// Presence-bitmap bits (flag varint).
const F_FH2: u32 = 1 << 0;
const F_NAME: u32 = 1 << 1;
const F_NAME2: u32 = 1 << 2;
const F_PRE_SIZE: u32 = 1 << 3;
const F_POST_SIZE: u32 = 1 << 4;
const F_TRUNCATE: u32 = 1 << 5;
const F_NEW_FH: u32 = 1 << 6;
const F_FTYPE: u32 = 1 << 7;
const F_EOF: u32 = 1 << 8;
/// Every bit the presence bitmap defines.
const F_KNOWN: u64 = (F_EOF as u64) * 2 - 1;

/// Appends a LEB128 varint.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
///
/// The one-byte case — most of a chunk's fields, and 85 % of an LZ
/// stream's lengths and distances — is decided inline at the call
/// site; anything longer (or truncated) goes through the general loop.
///
/// # Errors
///
/// On truncated input or a varint longer than 10 bytes.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    match bytes.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        _ => read_long_varint(bytes, pos),
    }
}

/// [`read_varint`] past its inline case: multi-byte values and every
/// error.
#[inline(never)]
fn read_long_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| StoreError::Format("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::Format("varint overflows u64".into()));
        }
        // The 10th byte holds only bit 63: a larger payload (or any
        // continuation past it) would shift data off the top — corrupt
        // input must be an error, never a silently wrong value.
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(StoreError::Format("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encodes a signed delta.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Reverses [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The per-chunk escaped-name intern table, encode side.
#[derive(Debug, Default)]
pub struct NameTable {
    index: HashMap<String, u64>,
    /// Escaped names in intern order.
    names: Vec<String>,
    /// Running encoded-size estimate, maintained by `intern` so the
    /// writer's per-record chunk-size check is O(1), not O(names).
    encoded_bytes: usize,
}

impl NameTable {
    /// An empty table.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Interns `name` (escaping it first) and returns its index.
    pub(crate) fn intern(&mut self, name: &str) -> u64 {
        let escaped = escape_name(name);
        if let Some(&i) = self.index.get(&escaped) {
            return i;
        }
        let i = self.names.len() as u64;
        self.encoded_bytes += escaped.len() + 2;
        self.index.insert(escaped.clone(), i);
        self.names.push(escaped);
        i
    }

    /// Number of interned names.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Approximate encoded size in bytes (for chunk-size accounting).
    pub fn encoded_len(&self) -> usize {
        self.encoded_bytes + 4
    }

    /// Serializes the table: count, then varint-length-prefixed escaped
    /// names in intern order.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.names.len() as u64);
        for n in &self.names {
            write_varint(buf, n.len() as u64);
            buf.extend_from_slice(n.as_bytes());
        }
    }

    /// Parses a table into the decode-side name list, unescaped, and
    /// returns its length: the table is the first that many of `names`.
    /// The slots are the caller's to reuse from chunk to chunk: each is
    /// cleared and refilled in place, and slots past the table are kept,
    /// so a name allocates only when it outgrows every name its slot
    /// held before.
    ///
    /// # Errors
    ///
    /// On a count the remaining bytes cannot hold (checked before
    /// anything is reserved for it), truncation, invalid UTF-8, or a
    /// bad percent escape.
    pub(crate) fn decode_into(
        bytes: &[u8],
        pos: &mut usize,
        names: &mut Vec<String>,
    ) -> Result<usize> {
        let n = read_varint(bytes, pos)?;
        // Each entry takes at least its one-byte length: bound the
        // count by the bytes that remain before reserving for it.
        let left = bytes.len() - *pos;
        if n > left as u64 {
            return Err(StoreError::Format(format!(
                "name table claims {n} names in {left} bytes"
            )));
        }
        let n = n as usize;
        if names.len() < n {
            names.resize_with(n, String::new);
        }
        for slot in &mut names[..n] {
            let len = read_varint(bytes, pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| StoreError::Format("truncated name table".into()))?;
            let escaped = std::str::from_utf8(&bytes[*pos..end])
                .map_err(|_| StoreError::Format("name table is not UTF-8".into()))?;
            slot.clear();
            // A name without a `%` is its own unescaped form.
            if escaped.contains('%') {
                let name = unescape_name(escaped)
                    .ok_or_else(|| StoreError::Format("bad name escape".into()))?;
                slot.push_str(&name);
            } else {
                slot.push_str(escaped);
            }
            *pos = end;
        }
        Ok(n)
    }
}

/// The fewest bytes [`encode_record`] can emit: three one-byte varints
/// (time delta, reply delta, presence flags), the op and version bytes,
/// and ten one-byte varints. A chunk header claiming more records than
/// its payload has room for at this size is corrupt.
pub(crate) const MIN_RECORD_BYTES: u64 = 15;

/// Encodes one record. `prev_micros` is the previous record's capture
/// time within the chunk (0 for the first record); names are interned
/// into `names`.
pub fn encode_record(buf: &mut Vec<u8>, r: &TraceRecord, prev_micros: u64, names: &mut NameTable) {
    write_varint(buf, r.micros - prev_micros);
    write_varint(
        buf,
        zigzag((r.reply_micros as i64).wrapping_sub(r.micros as i64)),
    );

    let mut flags = 0u32;
    if r.fh2.is_some() {
        flags |= F_FH2;
    }
    if r.name.is_some() {
        flags |= F_NAME;
    }
    if r.name2.is_some() {
        flags |= F_NAME2;
    }
    if r.pre_size.is_some() {
        flags |= F_PRE_SIZE;
    }
    if r.post_size.is_some() {
        flags |= F_POST_SIZE;
    }
    if r.truncate_to.is_some() {
        flags |= F_TRUNCATE;
    }
    if r.new_fh.is_some() {
        flags |= F_NEW_FH;
    }
    if r.ftype.is_some() {
        flags |= F_FTYPE;
    }
    if r.eof {
        flags |= F_EOF;
    }
    write_varint(buf, u64::from(flags));

    let op_idx = Op::ALL
        .iter()
        .position(|&o| o == r.op)
        .expect("op is a member of Op::ALL") as u8;
    buf.push(op_idx);
    buf.push(r.vers);
    for v in [r.client, r.server, r.uid, r.gid, r.xid] {
        write_varint(buf, u64::from(v));
    }
    write_varint(buf, r.fh.0);
    write_varint(buf, r.offset);
    write_varint(buf, u64::from(r.count));
    write_varint(buf, u64::from(r.ret_count));
    write_varint(buf, u64::from(r.status));

    if let Some(fh2) = r.fh2 {
        write_varint(buf, fh2.0);
    }
    if let Some(name) = &r.name {
        write_varint(buf, names.intern(name));
    }
    if let Some(name2) = &r.name2 {
        write_varint(buf, names.intern(name2));
    }
    if let Some(v) = r.pre_size {
        write_varint(buf, v);
    }
    if let Some(v) = r.post_size {
        write_varint(buf, v);
    }
    if let Some(v) = r.truncate_to {
        write_varint(buf, v);
    }
    if let Some(fh) = r.new_fh {
        write_varint(buf, fh.0);
    }
    if let Some(t) = r.ftype {
        buf.push(t);
    }
}

/// One record as it sits in a chunk: every scalar decoded and checked,
/// the two names still indices into the chunk's name table — the
/// store's counterpart of the borrowed wire forms (`Call3View`,
/// `ReplyFacts3`). It is `Copy` and owns nothing, so a reader can test
/// `fh` or `micros` on every record of a chunk and pay for a
/// [`TraceRecord`] (200 bytes and a cloned `String` per name) only for
/// the ones it keeps, via [`RecordFields::materialize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordFields {
    /// Capture time of the call.
    pub micros: u64,
    /// Capture time of the reply (0: lost).
    pub reply_micros: u64,
    /// Client host.
    pub client: u32,
    /// Server host.
    pub server: u32,
    /// Caller uid.
    pub uid: u32,
    /// Caller gid.
    pub gid: u32,
    /// RPC transaction id.
    pub xid: u32,
    /// NFS protocol version.
    pub vers: u8,
    /// The operation.
    pub op: Op,
    /// Primary file handle.
    pub fh: FileId,
    /// Secondary file handle.
    pub fh2: Option<FileId>,
    /// Index of the name argument in the chunk's name table.
    pub name: Option<usize>,
    /// Index of the second name argument in the chunk's name table.
    pub name2: Option<usize>,
    /// Byte offset.
    pub offset: u64,
    /// Bytes requested.
    pub count: u32,
    /// Bytes returned.
    pub ret_count: u32,
    /// The reply reported end of file.
    pub eof: bool,
    /// NFS status (`u32::MAX`: no reply).
    pub status: u32,
    /// File size before the operation.
    pub pre_size: Option<u64>,
    /// File size after the operation.
    pub post_size: Option<u64>,
    /// Size a SETATTR truncates to.
    pub truncate_to: Option<u64>,
    /// Handle the operation created or looked up.
    pub new_fh: Option<FileId>,
    /// File type of `new_fh`.
    pub ftype: Option<u8>,
}

impl RecordFields {
    /// Parses and validates one record at `pos` — the one place that
    /// reads the record layout [`encode_record`] writes. `prev_micros`
    /// mirrors the encode side; `names` is the length of the chunk's
    /// decoded name table, against which both name indices are checked,
    /// so that [`RecordFields::materialize`] over that table cannot
    /// fail.
    ///
    /// # Errors
    ///
    /// On truncation anywhere, a timestamp delta overflowing `u64`, a
    /// presence flag the codec does not define, an unknown op byte, a
    /// narrow field past `u32::MAX`, or a name index out of range.
    // Forced into the chunk walker's loop: left to itself rustc keeps
    // this a call that returns the whole struct through memory, and a
    // point query that reads `fh` and drops the rest pays for all of it.
    #[inline(always)]
    pub(crate) fn parse(
        bytes: &[u8],
        pos: &mut usize,
        prev_micros: u64,
        names: usize,
    ) -> Result<Self> {
        let micros = prev_micros
            .checked_add(read_varint(bytes, pos)?)
            .ok_or_else(|| StoreError::Format("timestamp delta overflows".into()))?;
        let reply_delta = unzigzag(read_varint(bytes, pos)?);
        let flags = read_varint(bytes, pos)?;
        if flags & !F_KNOWN != 0 {
            return Err(StoreError::Format(format!(
                "unknown record flags {flags:#x}"
            )));
        }
        let flags = flags as u32;

        let take_byte = |pos: &mut usize| -> Result<u8> {
            let &b = bytes
                .get(*pos)
                .ok_or_else(|| StoreError::Format("truncated record".into()))?;
            *pos += 1;
            Ok(b)
        };
        let op_idx = take_byte(pos)?;
        let op = *Op::ALL
            .get(usize::from(op_idx))
            .ok_or_else(|| StoreError::Format(format!("unknown op byte {op_idx}")))?;
        let vers = take_byte(pos)?;

        let u32_field = |pos: &mut usize| -> Result<u32> {
            let v = read_varint(bytes, pos)?;
            u32::try_from(v).map_err(|_| StoreError::Format("u32 field out of range".into()))
        };
        let client = u32_field(pos)?;
        let server = u32_field(pos)?;
        let uid = u32_field(pos)?;
        let gid = u32_field(pos)?;
        let xid = u32_field(pos)?;
        let fh = FileId(read_varint(bytes, pos)?);
        let offset = read_varint(bytes, pos)?;
        let count = u32_field(pos)?;
        let ret_count = u32_field(pos)?;
        let status = u32_field(pos)?;

        let name_index = |pos: &mut usize| -> Result<usize> {
            let i = read_varint(bytes, pos)?;
            usize::try_from(i)
                .ok()
                .filter(|&i| i < names)
                .ok_or_else(|| StoreError::Format(format!("name index {i} out of range")))
        };
        let fh2 = (flags & F_FH2 != 0)
            .then(|| read_varint(bytes, pos).map(FileId))
            .transpose()?;
        let name = (flags & F_NAME != 0).then(|| name_index(pos)).transpose()?;
        let name2 = (flags & F_NAME2 != 0)
            .then(|| name_index(pos))
            .transpose()?;
        let pre_size = (flags & F_PRE_SIZE != 0)
            .then(|| read_varint(bytes, pos))
            .transpose()?;
        let post_size = (flags & F_POST_SIZE != 0)
            .then(|| read_varint(bytes, pos))
            .transpose()?;
        let truncate_to = (flags & F_TRUNCATE != 0)
            .then(|| read_varint(bytes, pos))
            .transpose()?;
        let new_fh = (flags & F_NEW_FH != 0)
            .then(|| read_varint(bytes, pos).map(FileId))
            .transpose()?;
        let ftype = (flags & F_FTYPE != 0).then(|| take_byte(pos)).transpose()?;

        Ok(RecordFields {
            micros,
            reply_micros: (micros as i64).wrapping_add(reply_delta) as u64,
            client,
            server,
            uid,
            gid,
            xid,
            vers,
            op,
            fh,
            fh2,
            name,
            name2,
            offset,
            count,
            ret_count,
            eof: flags & F_EOF != 0,
            status,
            pre_size,
            post_size,
            truncate_to,
            new_fh,
            ftype,
        })
    }

    /// Builds the owned record: the scalars copied, each name cloned
    /// out of `names` — what a record a reader keeps costs; a record
    /// only lent out is filled into a [`RecordSlot`] instead.
    ///
    /// # Panics
    ///
    /// If `names` is shorter than the table length this record was
    /// [parsed](RecordFields::parse) against.
    pub(crate) fn materialize(&self, names: &[String]) -> TraceRecord {
        TraceRecord {
            name: self.name.map(|i| names[i].clone()),
            name2: self.name2.map(|i| names[i].clone()),
            ..self.unnamed()
        }
    }

    /// The record with every scalar copied and neither name set.
    fn unnamed(&self) -> TraceRecord {
        TraceRecord {
            micros: self.micros,
            reply_micros: self.reply_micros,
            client: self.client,
            server: self.server,
            uid: self.uid,
            gid: self.gid,
            xid: self.xid,
            vers: self.vers,
            op: self.op,
            fh: self.fh,
            fh2: self.fh2,
            name: None,
            name2: None,
            offset: self.offset,
            count: self.count,
            ret_count: self.ret_count,
            eof: self.eof,
            status: self.status,
            pre_size: self.pre_size,
            post_size: self.post_size,
            truncate_to: self.truncate_to,
            new_fh: self.new_fh,
            ftype: self.ftype,
        }
    }
}

/// One [`TraceRecord`] that a walk refills record after record
/// ([`RecordSlot::fill`]) and lends out in place. Its name `String`s —
/// and a spare for each name a record lacks — keep their capacity, so a
/// walk over any number of records allocates only when a name outgrows
/// every one before it.
#[derive(Debug)]
pub(crate) struct RecordSlot {
    record: TraceRecord,
    /// Where a name's `String` waits while records lack that name.
    spare: [String; 2],
}

impl RecordSlot {
    /// An empty slot; it allocates nothing until a name is filled in.
    pub(crate) fn new() -> Self {
        RecordSlot {
            record: TraceRecord::new(0, Op::ALL[0], FileId(0)),
            spare: Default::default(),
        }
    }

    /// Overwrites the slot's record with `fields`, copying each name
    /// out of `names` into a `String` the slot already holds, and lends
    /// it out.
    ///
    /// # Panics
    ///
    /// As [`RecordFields::materialize`].
    pub(crate) fn fill(&mut self, fields: &RecordFields, names: &[String]) -> &TraceRecord {
        let [spare, spare2] = &mut self.spare;
        let (held, held2) = (self.record.name.take(), self.record.name2.take());
        self.record = fields.unnamed();
        self.record.name = refill(held, spare, fields.name.map(|i| names[i].as_str()));
        self.record.name2 = refill(held2, spare2, fields.name2.map(|i| names[i].as_str()));
        &self.record
    }
}

/// One name of a [`RecordSlot`]: `name` copied into the `String` the
/// slot held, or else into its spare; without a name, that `String`
/// becomes the spare.
fn refill(held: Option<String>, spare: &mut String, name: Option<&str>) -> Option<String> {
    let mut s = held.unwrap_or_else(|| std::mem::take(spare));
    match name {
        Some(name) => {
            s.clear();
            s.push_str(name);
            Some(s)
        }
        None => {
            *spare = s;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = Vec::new();
        let probes = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &probes {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &probes {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 500, -500, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn record_roundtrip_all_fields() {
        let mut r = TraceRecord::new(1_000_000, Op::Rename, FileId(0xdead_beef))
            .with_name("inbox tmp%1")
            .with_range(1 << 40, 65_535)
            .with_post_size(123)
            .with_eof(true);
        r.reply_micros = 1_000_250;
        r.client = u32::MAX;
        r.uid = 501;
        r.gid = 20;
        r.xid = 0x1234_5678;
        r.vers = 2;
        r.fh2 = Some(FileId(7));
        r.name2 = Some("mbox".into());
        r.pre_size = Some(0);
        r.truncate_to = Some(u64::MAX);
        r.new_fh = Some(FileId(9));
        r.ftype = Some(2);
        r.status = u32::MAX;

        let mut names = NameTable::new();
        let mut buf = Vec::new();
        encode_record(&mut buf, &r, 999_000, &mut names);
        let mut table_buf = Vec::new();
        names.encode(&mut table_buf);
        let mut pos = 0;
        let mut decoded_names = Vec::new();
        let n = NameTable::decode_into(&table_buf, &mut pos, &mut decoded_names).unwrap();
        assert_eq!(n, decoded_names.len());
        let mut pos = 0;
        let back = RecordFields::parse(&buf, &mut pos, 999_000, n)
            .unwrap()
            .materialize(&decoded_names);
        assert_eq!(back, r);
        assert_eq!(pos, buf.len());
    }

    /// Records with names present, absent, escaped and swapped, parsed
    /// against a table decoded into reused slots (more of them, holding
    /// longer stale names) and filled one after another into one
    /// [`RecordSlot`]: each lends exactly what `materialize` builds.
    #[test]
    fn a_refilled_slot_lends_the_materialized_record() {
        let mut renamed = TraceRecord::new(4, Op::Rename, FileId(1)).with_name("x");
        renamed.name2 = Some("a much longer name, escaped".into());
        let records = [
            TraceRecord::new(1, Op::Create, FileId(1)).with_name("tmp%1 =x"),
            TraceRecord::new(2, Op::Read, FileId(2)),
            TraceRecord::new(3, Op::Lookup, FileId(3)).with_name("inbox.lock"),
            renamed,
            TraceRecord::new(5, Op::Read, FileId(2)),
            TraceRecord::new(6, Op::Remove, FileId(3)).with_name("inbox.lock"),
        ];
        let mut table = NameTable::new();
        let mut buf = Vec::new();
        let mut prev = 0;
        for r in &records {
            encode_record(&mut buf, r, prev, &mut table);
            prev = r.micros;
        }
        let mut table_buf = Vec::new();
        table.encode(&mut table_buf);
        let mut names = vec!["a stale name longer than any in the table".to_string(); 9];
        let n = NameTable::decode_into(&table_buf, &mut 0, &mut names).unwrap();
        assert_eq!(
            (n, names.len()),
            (table.len(), 9),
            "slots past the table are kept"
        );

        let mut slot = RecordSlot::new();
        let (mut pos, mut prev) = (0, 0);
        for r in &records {
            let fields = RecordFields::parse(&buf, &mut pos, prev, n).unwrap();
            prev = fields.micros;
            assert_eq!(fields.materialize(&names[..n]), *r);
            assert_eq!(slot.fill(&fields, &names[..n]), r);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn lost_reply_encodes_exactly() {
        let mut r = TraceRecord::new(u64::MAX - 5, Op::Read, FileId(1));
        r.reply_micros = 0; // lost reply: a huge negative delta
        r.status = u32::MAX;
        let mut names = NameTable::new();
        let mut buf = Vec::new();
        encode_record(&mut buf, &r, u64::MAX - 5, &mut names);
        let mut pos = 0;
        let back = RecordFields::parse(&buf, &mut pos, u64::MAX - 5, 0)
            .unwrap()
            .materialize(&[]);
        assert_eq!(back, r);
    }

    #[test]
    fn the_smallest_record_takes_min_record_bytes() {
        let mut buf = Vec::new();
        let r = TraceRecord::new(7, Op::Read, FileId(0));
        encode_record(&mut buf, &r, 7, &mut NameTable::new());
        assert_eq!(buf.len() as u64, MIN_RECORD_BYTES);
    }

    #[test]
    fn interning_dedups_hot_names() {
        let mut names = NameTable::new();
        let mut buf = Vec::new();
        let mut prev = 0;
        for i in 0..100u64 {
            let r = TraceRecord::new(i, Op::Lookup, FileId(1)).with_name("inbox.lock");
            encode_record(&mut buf, &r, prev, &mut names);
            prev = i;
        }
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let r = TraceRecord::new(5, Op::Read, FileId(1)).with_range(0, 8192);
        let mut names = NameTable::new();
        let mut buf = Vec::new();
        encode_record(&mut buf, &r, 0, &mut names);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                RecordFields::parse(&buf[..cut], &mut pos, 0, 0).is_err(),
                "cut={cut}"
            );
        }
    }
}
