//! Store reader: footer-driven random access to chunks.

use crate::codec::{read_varint, NameTable, RecordFields, RecordSlot, MIN_RECORD_BYTES};
use crate::compress;
use crate::error::{Result, StoreError};
use crate::format::{
    fnv1a64, ChunkMeta, FileIdFilter, FilterKind, Window, END_MAGIC, FILTER_KIND_BLOOM,
    FILTER_KIND_EXACT, FLAG_COMPRESSED, FLAG_MASK, MAGIC, MAX_CHUNK_PAYLOAD, MAX_FILTER_BYTES,
};
use nfstrace_core::parallel;
use nfstrace_core::record::{FileId, TraceRecord};
use nfstrace_telemetry::{Counter, Registry};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Reads a chunked trace store: a sealed file, or what a
/// [`crate::StoreWriter`] holds at one instant
/// ([`crate::StoreWriter::snapshot`]).
///
/// Opening parses only the footer; record bytes are read chunk by chunk
/// on demand. There is one on-disk format ([`crate::format`]); a file
/// with any other leading magic — the retired v1/v2 layouts included —
/// is a [`StoreError::Format`] at open. The reader keeps the one file
/// handle it opened and reads every chunk through it with a positioned
/// read, which moves no shared cursor: every read takes `&self`, so
/// chunk decodes can run on any number of threads concurrently —
/// [`nfstrace_core::parallel::fork_join`] runs the chunk-parallel
/// index builds and point queries in `crate::index`, one chunk buffer
/// per job. Every read that decodes a chunk goes
/// through one walker, which refills its caller's chunk buffer, then
/// parses and checks every record and hands each to its caller.
/// The handle also keeps the file's bytes readable after the file is
/// renamed or deleted (as a sealed segment is when compaction merges
/// it away), until the reader is dropped.
#[derive(Debug)]
pub struct StoreReader {
    path: Box<Path>,
    /// The handle every chunk is read through.
    file: File,
    chunks: Box<[ChunkMeta]>,
    /// A writer snapshot's pending chunk — the last of `chunks` — as
    /// its raw payload, held here instead of stored.
    pending: Option<Box<[u8]>>,
    pub(crate) metrics: StoreReadMetrics,
}

/// Registry handles for the read-side `store.*` metrics: decodes
/// served, chunks skipped by footer filters, whole segments the query
/// planner dismissed without touching a single chunk, and per-file
/// queries that decoded a chunk the filter admitted but that held no
/// record for the file (the filter's false positives).
#[derive(Debug, Clone)]
pub(crate) struct StoreReadMetrics {
    chunks_decoded: Counter,
    pub(crate) chunks_skipped: Counter,
    segments_pruned: Counter,
    pub(crate) filter_false_positives: Counter,
}

impl StoreReadMetrics {
    fn register(registry: &Registry) -> Self {
        StoreReadMetrics {
            chunks_decoded: registry.counter("store.chunks_decoded"),
            chunks_skipped: registry.counter("store.chunks_skipped"),
            segments_pruned: registry.counter("store.segments_pruned"),
            filter_false_positives: registry.counter("store.filter_false_positives"),
        }
    }
}

/// One chunk as it sits on disk — stored bytes plus the footer entry
/// describing them — that a [`StoreReader`] has verified against the
/// footer checksum. Only [`StoreReader::read_chunk_verified`] makes
/// one, and it is all [`crate::StoreWriter::append_chunk`] accepts, so
/// bytes nobody checked cannot be relocated under a fresh footer.
#[derive(Debug)]
pub(crate) struct VerifiedChunk<'a> {
    pub(crate) meta: &'a ChunkMeta,
    pub(crate) bytes: Vec<u8>,
}

impl StoreReader {
    /// Opens a store and parses its footer, counting into a private
    /// registry.
    ///
    /// # Errors
    ///
    /// On I/O failure or a malformed/truncated file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open_with_registry(path, &Registry::new())
    }

    /// Like [`StoreReader::open`], but counts the `store.*` read
    /// metrics into `registry`. Readers sharing one registry sum
    /// their counts (so [`StoreReader::chunks_decoded`] then reads
    /// the shared total, not this reader's own).
    ///
    /// # Errors
    ///
    /// On I/O failure or a malformed/truncated file.
    pub fn open_with_registry<P: AsRef<Path>>(path: P, registry: &Registry) -> Result<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let min_len = (MAGIC.len() + END_MAGIC.len() + 8 + 16) as u64;
        if file_len < min_len {
            return Err(StoreError::Format("file too short for a store".into()));
        }
        let mut head = [0u8; 8];
        file.read_exact_at(&mut head, 0)?;
        if &head != MAGIC {
            // The magic is "NFSTRC", a revision byte, NUL: another
            // revision of this format gets named; anything else is not
            // a store at all.
            let other_revision = head[..6] == MAGIC[..6] && head[7] == MAGIC[7];
            return Err(StoreError::Format(if other_revision {
                format!(
                    "unsupported store format revision {:?} (this build reads only {:?})",
                    char::from(head[6]),
                    char::from(MAGIC[6])
                )
            } else {
                "bad leading magic".into()
            }));
        }
        let mut trailer = [0u8; 16];
        file.read_exact_at(&mut trailer, file_len - 16)?;
        if &trailer[8..] != END_MAGIC {
            return Err(StoreError::Format("bad trailing magic".into()));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        let footer_end = file_len - 16;
        if footer_offset > footer_end.saturating_sub(16) {
            return Err(StoreError::Format("footer offset out of range".into()));
        }
        let mut footer = vec![0u8; (footer_end - footer_offset) as usize];
        file.read_exact_at(&mut footer, footer_offset)?;

        if footer.len() < 24 {
            return Err(StoreError::Format("footer size mismatch".into()));
        }
        let sum_at = footer.len() - 8;
        let stored = u64::from_le_bytes(footer[sum_at..].try_into().expect("8 bytes"));
        if fnv1a64(&footer[..sum_at]) != stored {
            return Err(StoreError::Format("footer checksum mismatch".into()));
        }
        let (mut chunks, total_records) = Self::parse_footer(&footer[..sum_at])?;
        if chunks.iter().map(|m| m.records).sum::<u64>() != total_records {
            return Err(StoreError::Format("record total mismatch".into()));
        }
        // Validate the byte geometry up front so a corrupt footer is a
        // Format error here, not an allocation abort in read_chunk.
        let mut expect_offset = MAGIC.len() as u64;
        for (i, m) in chunks.iter().enumerate() {
            if m.offset != expect_offset {
                return Err(StoreError::Format(format!(
                    "chunk {i} offset {} does not follow its predecessor",
                    m.offset
                )));
            }
            expect_offset = m.offset.checked_add(m.len).ok_or_else(|| {
                StoreError::Format(format!("chunk {i} length overflows the file"))
            })?;
            if expect_offset > footer_offset {
                return Err(StoreError::Format(format!(
                    "chunk {i} extends past the footer"
                )));
            }
            // A compressed chunk can legitimately pack many records per
            // stored byte, so the record count is bounded against the
            // decoded payload in read_chunk, not here.
            if m.records > 0 && m.filter.min_fh > m.filter.max_fh {
                return Err(StoreError::Format(format!(
                    "chunk {i} file filter range is inverted"
                )));
            }
            if m.records > 0 && m.min_micros > m.max_micros {
                return Err(StoreError::Format(format!(
                    "chunk {i} time range is inverted"
                )));
            }
        }
        // Normalize the degenerate time range a zero-record chunk may
        // carry (an empty chunk has no first or last record, so its
        // min/max words are whatever the writer left — possibly
        // min > max). Pruning compares against these words; pinning
        // them to the canonical empty range means no comparison can
        // ever dismiss a live chunk or admit an empty one.
        for m in &mut chunks {
            if m.records == 0 {
                m.min_micros = u64::MAX;
                m.max_micros = 0;
            }
        }
        Ok(StoreReader {
            path: path.into(),
            file,
            chunks: chunks.into_boxed_slice(),
            pending: None,
            metrics: StoreReadMetrics::register(registry),
        })
    }

    /// The reader [`crate::StoreWriter::snapshot`] hands out: the
    /// `flushed` chunks of the store growing at `path`, read through a
    /// handle opened here, then the `pending` chunk, if any, as one last
    /// chunk whose raw payload the reader holds. Counts into `registry`.
    ///
    /// # Errors
    ///
    /// On I/O failure opening the read handle.
    pub(crate) fn of_writer(
        path: &Path,
        mut chunks: Vec<ChunkMeta>,
        pending: Option<(ChunkMeta, Vec<u8>)>,
        registry: &Registry,
    ) -> Result<Self> {
        let file = File::open(path)?;
        let pending = pending.map(|(meta, payload)| {
            chunks.push(meta);
            payload.into_boxed_slice()
        });
        Ok(StoreReader {
            path: path.into(),
            file,
            chunks: chunks.into_boxed_slice(),
            pending,
            metrics: StoreReadMetrics::register(registry),
        })
    }

    /// Parses the footer body — counts first, then variable-length
    /// entries carrying adaptively sized filters — exactly to its end.
    /// The caller has verified and stripped the trailing checksum.
    fn parse_footer(body: &[u8]) -> Result<(Vec<ChunkMeta>, u64)> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = body
                .get(*pos..*pos + n)
                .ok_or_else(|| StoreError::Format("footer size mismatch".into()))?;
            *pos += n;
            Ok(s)
        };
        let rd_u64 = |pos: &mut usize| -> Result<u64> {
            Ok(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            ))
        };
        let rd_u32 = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("4 bytes"),
            ))
        };
        let chunk_count = rd_u64(&mut pos)?;
        let total_records = rd_u64(&mut pos)?;
        // The smallest possible entry is 8 words + kind byte + an empty
        // exact set's count: a corrupt count cannot force a huge
        // allocation.
        if chunk_count > (body.len() / (8 * 8 + 5)) as u64 {
            return Err(StoreError::Format("chunk count mismatch".into()));
        }
        let mut chunks = Vec::with_capacity(chunk_count as usize);
        for i in 0..chunk_count {
            let mut word = [0u64; 8];
            for w in &mut word {
                *w = rd_u64(&mut pos)?;
            }
            let kind = take(&mut pos, 1)?[0];
            let kind = match kind {
                FILTER_KIND_EXACT => {
                    let count = rd_u32(&mut pos)? as usize;
                    let raw = take(
                        &mut pos,
                        count.checked_mul(8).ok_or_else(|| {
                            StoreError::Format(format!("chunk {i} filter set overflows"))
                        })?,
                    )?;
                    let handles: Vec<u64> = raw
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                        .collect();
                    if !handles.windows(2).all(|w| w[0] < w[1]) {
                        return Err(StoreError::Format(format!(
                            "chunk {i} exact filter is not sorted"
                        )));
                    }
                    FilterKind::Exact(handles)
                }
                FILTER_KIND_BLOOM => {
                    let hashes = u32::from(take(&mut pos, 1)?[0]);
                    if !(1..=64).contains(&hashes) {
                        return Err(StoreError::Format(format!(
                            "chunk {i} filter hash count {hashes} out of range"
                        )));
                    }
                    let nbytes = rd_u32(&mut pos)? as usize;
                    if nbytes > MAX_FILTER_BYTES {
                        return Err(StoreError::Format(format!(
                            "chunk {i} claims a {nbytes}-byte filter"
                        )));
                    }
                    FilterKind::Bloom {
                        hashes,
                        bits: take(&mut pos, nbytes)?.to_vec(),
                    }
                }
                other => {
                    return Err(StoreError::Format(format!(
                        "chunk {i} has unknown filter kind {other}"
                    )))
                }
            };
            chunks.push(ChunkMeta {
                offset: word[0],
                len: word[1],
                records: word[2],
                min_micros: word[3],
                max_micros: word[4],
                checksum: word[7],
                filter: FileIdFilter {
                    min_fh: word[5],
                    max_fh: word[6],
                    kind,
                },
            });
        }
        if pos != body.len() {
            return Err(StoreError::Format("footer size mismatch".into()));
        }
        Ok((chunks, total_records))
    }

    /// Per-chunk footer entries, in chunk-ordinal order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total records across all chunks.
    pub fn total_records(&self) -> u64 {
        self.chunks.iter().map(|m| m.records).sum()
    }

    /// The store file path — where the file was when the reader opened
    /// it; it may since have been renamed or deleted.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many chunk decodes this reader has served since opening
    /// (the `store.chunks_decoded` counter). Index construction plus
    /// one fused replay costs two per chunk; chunk-skipping per-file
    /// queries add less than a full scan.
    pub fn chunks_decoded(&self) -> u64 {
        self.metrics.chunks_decoded.value()
    }

    /// This segment's record time range `(min, max)` micros, folded
    /// from the footer without touching a single chunk — `None` for a
    /// segment holding no records (the normalized empty range, so
    /// empty segments can never confuse pruning arithmetic).
    pub fn time_range(&self) -> Option<(u64, u64)> {
        self.chunks
            .iter()
            .filter(|m| m.records > 0)
            .map(|m| (m.min_micros, m.max_micros))
            .reduce(|(lo, hi), (mlo, mhi)| (lo.min(mlo), hi.max(mhi)))
    }

    /// Query-planner check: `true` when this whole segment can be
    /// dismissed for the window `[start, end)` — its footer time range
    /// misses the window entirely (or it holds no records at all).
    /// Counts a dismissal into `store.segments_pruned`; the caller
    /// skips every chunk without iterating them.
    pub fn prune_window(&self, start: u64, end: u64) -> bool {
        self.prune_outside(Window::new(start, end))
    }

    /// [`StoreReader::prune_window`] for any [`Window`].
    pub(crate) fn prune_outside(&self, window: Window) -> bool {
        let pruned = self
            .time_range()
            .is_none_or(|(min, max)| !window.meets(min, max));
        if pruned {
            self.metrics.segments_pruned.inc();
        }
        pruned
    }

    /// Query-planner check for per-file queries: `true` when no chunk
    /// of this segment could contain a record for `fh` (every chunk is
    /// empty or its filter rejects the handle), counted into
    /// `store.segments_pruned`.
    pub(crate) fn prune_file(&self, fh: FileId) -> bool {
        let pruned = self
            .chunks
            .iter()
            .all(|m| m.records == 0 || !m.may_contain_file(fh));
        if pruned {
            self.metrics.segments_pruned.inc();
        }
        pruned
    }

    /// The raw payload of chunk `ordinal` when it is a writer
    /// snapshot's pending chunk.
    fn pending_at(&self, ordinal: usize) -> Option<&[u8]> {
        self.pending
            .as_deref()
            .filter(|_| ordinal + 1 == self.chunks.len())
    }

    /// Reads one chunk's stored bytes into `bytes` (resized to fit)
    /// with a positioned read on the reader's handle, verified against
    /// the footer's chunk checksum.
    fn read_stored_into(&self, ordinal: usize, bytes: &mut Vec<u8>) -> Result<&ChunkMeta> {
        let meta = self
            .chunks
            .get(ordinal)
            .ok_or_else(|| StoreError::Format(format!("no chunk {ordinal}")))?;
        if self.pending_at(ordinal).is_some() {
            return Err(StoreError::Format(format!(
                "chunk {ordinal} is pending in its writer and has no stored bytes"
            )));
        }
        bytes.resize(meta.len as usize, 0);
        self.file.read_exact_at(bytes, meta.offset)?;
        if fnv1a64(bytes) != meta.checksum {
            return Err(StoreError::Format(format!(
                "chunk {ordinal} checksum mismatch"
            )));
        }
        Ok(meta)
    }

    /// Reads one chunk **without decoding it**: the stored bytes,
    /// verified against the footer checksum, together with the footer
    /// entry that describes them — what
    /// [`crate::StoreWriter::append_chunk`] relocates into another
    /// segment. Thread-safe like [`StoreReader::read_chunk`]; not
    /// counted as a decode.
    ///
    /// # Errors
    ///
    /// On I/O failure, a bad ordinal, stored bytes that do not hash to
    /// the footer's chunk checksum, or a writer snapshot's pending
    /// chunk, which has no stored bytes ([`StoreError::Format`]).
    pub(crate) fn read_chunk_verified(&self, ordinal: usize) -> Result<VerifiedChunk<'_>> {
        let mut bytes = Vec::new();
        let meta = self.read_stored_into(ordinal, &mut bytes)?;
        Ok(VerifiedChunk { meta, bytes })
    }

    /// The first half of [`StoreReader::walk_chunk`]: reads chunk
    /// `ordinal` into `buf` up to its first record, counted in
    /// `store.chunks_decoded` — the stored bytes verified against the
    /// footer checksum, their flags checked, the payload decompressed
    /// if it was stored compressed, the name table decoded and the
    /// record count held to the footer's and to what the payload could
    /// hold. A writer snapshot's pending chunk is read in place, from
    /// the payload the reader holds.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_chunk`].
    pub(crate) fn open_chunk(&self, ordinal: usize, buf: &mut ChunkBuf) -> Result<()> {
        let ChunkBuf {
            stored,
            raw,
            names,
            open,
        } = buf;
        let (payload, at, bytes) = if let Some(pending) = self.pending_at(ordinal) {
            self.metrics.chunks_decoded.inc();
            (Payload::Pending, 0, pending)
        } else {
            self.read_stored_into(ordinal, stored)?;
            self.metrics.chunks_decoded.inc();
            let &flags = stored
                .first()
                .ok_or_else(|| StoreError::Format(format!("chunk {ordinal} is empty")))?;
            if flags & !FLAG_MASK != 0 {
                return Err(StoreError::Format(format!(
                    "chunk {ordinal} has unknown flags {flags:#04x}"
                )));
            }
            let mut pos = 1;
            if flags & FLAG_COMPRESSED != 0 {
                let raw_len = read_varint(stored, &mut pos)?;
                if raw_len > MAX_CHUNK_PAYLOAD {
                    return Err(StoreError::Format(format!(
                        "chunk {ordinal} claims a {raw_len}-byte payload"
                    )));
                }
                compress::decompress_into(&stored[pos..], raw_len as usize, raw)?;
                (Payload::Raw, 0, &raw[..])
            } else {
                (Payload::Stored, pos, &stored[..])
            }
        };
        let mut pos = at;
        let name_count = NameTable::decode_into(bytes, &mut pos, names)?;
        let records = self.chunks[ordinal].records;
        let count = read_varint(bytes, &mut pos)?;
        if count != records {
            return Err(StoreError::Format(format!(
                "chunk {ordinal}: header says {count} records, footer {records}"
            )));
        }
        let first_micros = read_varint(bytes, &mut pos)?;
        // Bound the count by what the bytes could hold before anyone
        // allocates 200-byte records for it.
        let left = (bytes.len() - pos) as u64;
        if count
            .checked_mul(MIN_RECORD_BYTES)
            .is_none_or(|need| need > left)
        {
            return Err(StoreError::Format(format!(
                "chunk {ordinal} claims {count} records in {left} payload bytes \
                 (a record takes at least {MIN_RECORD_BYTES})"
            )));
        }
        *open = Opened {
            ordinal,
            payload,
            names: name_count,
            count: count as usize,
            first_micros,
            records_at: pos,
        };
        Ok(())
    }

    /// The second half of [`StoreReader::walk_chunk`]: parses and checks
    /// every record of the chunk `buf` holds, in order, handing each to
    /// `visit` with the chunk's name table. `buf` must have been filled
    /// by this reader's [`StoreReader::open_chunk`].
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_chunk`].
    pub(crate) fn walk_open(
        &self,
        buf: &ChunkBuf,
        mut visit: impl FnMut(&RecordFields, &[String]),
    ) -> Result<()> {
        let open = buf.open;
        let payload = match open.payload {
            Payload::Stored => &buf.stored[..],
            Payload::Raw => &buf.raw[..],
            Payload::Pending => self
                .pending_at(open.ordinal)
                .expect("a pending chunk is walked by the reader that opened it"),
        };
        let names = &buf.names[..open.names];
        let mut pos = open.records_at;
        let mut prev = open.first_micros;
        for _ in 0..open.count {
            let r = RecordFields::parse(payload, &mut pos, prev, names.len())?;
            prev = r.micros;
            visit(&r, names);
        }
        if pos != payload.len() {
            return Err(StoreError::Format(format!(
                "chunk {}: {} trailing bytes",
                open.ordinal,
                payload.len() - pos
            )));
        }
        Ok(())
    }

    /// The one walker behind every decoding read: reads chunk `ordinal`
    /// into the caller's `buf` ([`StoreReader::open_chunk`]), then parses
    /// and checks every record in order, handing each to `visit`
    /// ([`StoreReader::walk_open`]) — the walk fails exactly when a
    /// whole read would. The walker builds nothing: a caller
    /// materializes the records it keeps, or fills the ones it lends
    /// into a [`RecordSlot`]. Refilled chunk after chunk, `buf`
    /// allocates only when a chunk outgrows every one before it.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_chunk`].
    pub(crate) fn walk_chunk(
        &self,
        ordinal: usize,
        buf: &mut ChunkBuf,
        visit: impl FnMut(&RecordFields, &[String]),
    ) -> Result<()> {
        self.open_chunk(ordinal, buf)?;
        self.walk_open(buf, visit)
    }

    /// Reads and decodes one chunk: every record parsed, checked and
    /// built. Thread-safe: a positioned read on the shared handle.
    ///
    /// # Errors
    ///
    /// On I/O failure, a bad ordinal, or corrupt chunk bytes — any
    /// stored byte that does not hash to the footer's chunk checksum is
    /// a [`StoreError::Format`] before decoding begins.
    pub fn read_chunk(&self, ordinal: usize) -> Result<Vec<TraceRecord>> {
        let mut out = Vec::new();
        self.walk_chunk(ordinal, &mut ChunkBuf::default(), |r, names| {
            // The first record comes after the walk has held the
            // footer's count to what the payload can hold.
            if out.capacity() == 0 {
                out.reserve_exact(self.chunks[ordinal].records as usize);
            }
            out.push(r.materialize(names));
        })?;
        Ok(out)
    }

    /// Streams every record in chunk order (= time order), each lent
    /// to `f` from one record refilled in place, through one chunk
    /// buffer: the walk allocates a constant number of times, however
    /// many chunks and records it reads.
    ///
    /// # Errors
    ///
    /// Propagates the first chunk read/decode failure.
    pub fn for_each(&self, mut f: impl FnMut(&TraceRecord)) -> Result<()> {
        let (mut buf, mut slot) = (ChunkBuf::default(), RecordSlot::new());
        for i in 0..self.chunks.len() {
            self.walk_chunk(i, &mut buf, |r, names| f(slot.fill(r, names)))?;
        }
        Ok(())
    }

    /// All records whose primary handle is `fh`, in time order — every
    /// capture time, `u64::MAX` included: the one-segment call of the
    /// point query behind [`StoreIndex::file_records`] — the same plan,
    /// walker and counters — so the result equals filtering a full
    /// scan. It needs no index, so it answers on a store that cannot be
    /// indexed whole.
    ///
    /// # Errors
    ///
    /// As [`StoreIndex::file_records`].
    ///
    /// [`StoreIndex::file_records`]: crate::StoreIndex::file_records
    pub fn records_for_file(&self, fh: FileId) -> Result<Vec<TraceRecord>> {
        crate::index::file_records_in(&[self], fh, 0, None, parallel::threads())
    }
}

/// The buffers a chunk walk fills, owned by the caller and refilled
/// chunk after chunk ([`StoreReader::walk_chunk`]): the stored bytes,
/// the payload decompressed out of them, and the chunk's name table.
/// Each keeps its capacity, so a walk over many chunks allocates only
/// when a chunk outgrows every one before it.
#[derive(Debug, Default)]
pub(crate) struct ChunkBuf {
    /// The stored bytes, flags byte first; the payload itself when the
    /// chunk was stored raw.
    stored: Vec<u8>,
    /// The payload decompressed out of `stored`.
    raw: Vec<u8>,
    /// Name slots: the open chunk's table is the first `open.names`;
    /// the rest wait, capacity kept, for a chunk with more names.
    names: Vec<String>,
    /// Where the open chunk's records are.
    open: Opened,
}

/// What [`StoreReader::open_chunk`] found: which payload holds the
/// chunk, and where in it the records start.
#[derive(Debug, Default, Clone, Copy)]
struct Opened {
    ordinal: usize,
    payload: Payload,
    /// Length of the chunk's name table.
    names: usize,
    /// Records in the chunk — equal to the footer's count and bounded
    /// by the payload's size.
    count: usize,
    first_micros: u64,
    /// Where in the payload the first record starts.
    records_at: usize,
}

/// Where an open chunk's payload lives.
#[derive(Debug, Default, Clone, Copy)]
enum Payload {
    /// [`ChunkBuf::stored`]: the chunk was stored raw.
    #[default]
    Stored,
    /// [`ChunkBuf::raw`]: decompressed.
    Raw,
    /// In the reader: a writer snapshot's pending chunk.
    Pending,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, StoreWriter};
    use nfstrace_core::record::Op;

    /// A footer entry's record count is held to its chunk's payload only
    /// when the chunk is opened, so a point query must not size its
    /// answer by the counts of chunks it has yet to open: one claiming
    /// 2⁶⁰ records fails the query with the open's error, at one worker
    /// and at two, instead of aborting on the allocation.
    #[test]
    fn a_point_query_does_not_reserve_by_unopened_footer_counts() {
        let records: Vec<TraceRecord> = (0..2_000u64)
            .map(|i| TraceRecord::new(i * 10, Op::Read, FileId(i % 2)).with_range(i, 512))
            .collect();
        let path = std::env::temp_dir().join(format!("nfstrace-claims-{}", std::process::id()));
        let config = StoreConfig {
            target_chunk_bytes: 4 << 10,
        };
        let mut w = StoreWriter::create(&path, config).expect("create");
        for r in &records {
            w.push(r).expect("push");
        }
        w.finish().expect("finish");
        let mut reader = StoreReader::open(&path).expect("open");
        std::fs::remove_file(&path).ok();
        let n = reader.chunks.len();
        assert!(n >= 4, "several chunks");
        for m in &mut reader.chunks[1..] {
            m.records = 1 << 60;
        }
        for threads in [1, 2] {
            let err = crate::index::file_records_in(&[&reader], FileId(1), 0, None, threads)
                .expect_err("a chunk claiming more records than it holds");
            assert!(
                err.to_string().contains("header says"),
                "threads={threads}: {err}"
            );
        }
    }
}
