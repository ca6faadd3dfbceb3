//! The record-level anonymizer.

use crate::blob::{malformed, read_sorted, read_u32, write_sorted};
use crate::names::NameAnonymizer;
use crate::tables::IdTable;
use nfstrace_core::record::{FileId, TraceRecord};
use nfstrace_store::codec::{read_varint, write_varint};
use nfstrace_store::error::Result;
use nfstrace_store::format::fnv1a64;
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"NFAN";
const VERSION: u8 = 1;

/// What to anonymize and what to omit.
#[derive(Debug, Clone)]
pub struct AnonymizerConfig {
    /// Secret seed; keep it out of published traces.
    pub seed: u64,
    /// UIDs that pass through (root, daemon by default).
    pub passthrough_uids: Vec<u32>,
    /// GIDs that pass through.
    pub passthrough_gids: Vec<u32>,
    /// "It is also possible to configure the anonymizer to omit all
    /// filename, UID, GID, and IP information entirely."
    pub omit_names: bool,
    /// Omit identities (uid/gid/client) instead of mapping them.
    pub omit_identities: bool,
}

impl Default for AnonymizerConfig {
    fn default() -> Self {
        AnonymizerConfig {
            seed: 0x6e66_7374,
            passthrough_uids: vec![0, 1],
            passthrough_gids: vec![0, 1],
            omit_names: false,
            omit_identities: false,
        }
    }
}

/// Anonymizes trace records with arbitrary-but-consistent mappings.
///
/// # Examples
///
/// ```
/// use nfstrace_anonymize::{Anonymizer, AnonymizerConfig};
/// use nfstrace_core::record::{FileId, Op, TraceRecord};
///
/// let mut anon = Anonymizer::new(AnonymizerConfig::default());
/// let rec = TraceRecord::new(0, Op::Lookup, FileId(7)).with_name("secret.txt");
/// let out = anon.anonymize(&rec);
/// assert_ne!(out.name.as_deref(), Some("secret.txt"));
/// // Consistency: anonymizing again gives the same output.
/// assert_eq!(anon.anonymize(&rec), out);
/// ```
#[derive(Debug)]
pub struct Anonymizer {
    config: AnonymizerConfig,
    uids: IdTable,
    gids: IdTable,
    ips: IdTable,
    fhs: IdTable,
    names: NameAnonymizer,
    /// Direct whole-handle map shadowing `fhs`. File handles are the
    /// hottest identities (up to three per record), and the half-based
    /// `IdTable` scheme costs two lookups each; this cache answers
    /// repeat handles with one. Rebuilt lazily after a restore — the
    /// `IdTable` mappings it mirrors are stable.
    fh_cache: HashMap<u64, u64>,
}

impl Anonymizer {
    /// Creates an anonymizer from a configuration.
    pub fn new(config: AnonymizerConfig) -> Self {
        Anonymizer {
            uids: IdTable::new(config.seed ^ 0x1, &config.passthrough_uids),
            gids: IdTable::new(config.seed ^ 0x2, &config.passthrough_gids),
            ips: IdTable::new(config.seed ^ 0x3, &[]),
            fhs: IdTable::new(config.seed ^ 0x4, &[]),
            names: NameAnonymizer::new(config.seed ^ 0x5),
            fh_cache: HashMap::new(),
            config,
        }
    }

    /// Access to the name anonymizer, to extend passthrough sets.
    pub fn names_mut(&mut self) -> &mut NameAnonymizer {
        &mut self.names
    }

    /// Anonymizes one record.
    pub fn anonymize(&mut self, r: &TraceRecord) -> TraceRecord {
        let mut out = r.clone();
        if self.config.omit_identities {
            out.uid = 0;
            out.gid = 0;
            out.client = 0;
            out.server = 0;
        } else {
            out.uid = self.uids.map(r.uid);
            out.gid = self.gids.map(r.gid);
            out.client = self.ips.map(r.client);
            out.server = self.ips.map(r.server);
        }
        // File handles are opaque server tokens but can still leak
        // inode numbers; remap them consistently.
        out.fh = self.map_fh(r.fh);
        out.fh2 = r.fh2.map(|f| self.map_fh(f));
        out.new_fh = r.new_fh.map(|f| self.map_fh(f));
        if self.config.omit_names {
            out.name = None;
            out.name2 = None;
        } else {
            out.name = r.name.as_deref().map(|n| self.names.map(n));
            out.name2 = r.name2.as_deref().map(|n| self.names.map(n));
        }
        out
    }

    fn map_fh(&mut self, fh: FileId) -> FileId {
        if let Some(&mapped) = self.fh_cache.get(&fh.0) {
            return FileId(mapped);
        }
        let lo = self.fhs.map(fh.0 as u32);
        let hi = self.fhs.map((fh.0 >> 32) as u32);
        let mapped = (u64::from(hi) << 32) | u64::from(lo);
        self.fh_cache.insert(fh.0, mapped);
        FileId(mapped)
    }

    /// Anonymizes a whole trace.
    pub fn anonymize_trace(&mut self, records: &[TraceRecord]) -> Vec<TraceRecord> {
        records.iter().map(|r| self.anonymize(r)).collect()
    }

    /// Serializes the mapping, which the traced site keeps under access
    /// control, as a checksummed binary blob; one mapping always gives
    /// the same bytes.
    ///
    /// Layout, like the store's sidecars ([`nfstrace_store::seqfile`]):
    /// magic `NFAN`, a `u8` version, a body of LEB128 varints, and a
    /// little-endian `u64` FNV-1a checksum of the body. The body holds
    /// the configuration (seed; passthrough uids, then gids; flags, bit
    /// 0 `omit_names` and bit 1 `omit_identities`), the assigned pairs
    /// of the uid, gid, ip and file-handle [`IdTable`]s, then the name
    /// anonymizer's passthrough names and suffixes and the assigned
    /// pairs of its stem and suffix tables. Each set or map is a count
    /// and its entries, sorted; a string is its length and UTF-8 bytes.
    ///
    /// Derived, not stored: each table's seed and token prefix (from
    /// the configured seed, as [`Anonymizer::new`] derives them), the
    /// used tokens (passthrough ∪ assigned), the generators, and the
    /// file-handle cache.
    pub fn to_bytes(&self) -> Vec<u8> {
        let config = &self.config;
        let mut body = Vec::new();
        write_varint(&mut body, config.seed);
        for ids in [&config.passthrough_uids, &config.passthrough_gids] {
            write_sorted(&mut body, ids, |buf, &id| write_varint(buf, id.into()));
        }
        let flags = u64::from(config.omit_names) | (u64::from(config.omit_identities) << 1);
        write_varint(&mut body, flags);
        for table in [&self.uids, &self.gids, &self.ips, &self.fhs] {
            table.write_assigned(&mut body);
        }
        self.names.write_to(&mut body);
        let checksum = fnv1a64(&body).to_le_bytes();
        [MAGIC.as_slice(), &[VERSION], &body, &checksum].concat()
    }

    /// Restores an anonymizer from [`Anonymizer::to_bytes`]. It maps all
    /// the original had mapped exactly as the original did, and keeps
    /// assigning new tokens without collisions.
    ///
    /// # Errors
    ///
    /// [`nfstrace_store::StoreError::Format`] on a bad magic, version or
    /// checksum, truncation, trailing bytes, a count the remaining bytes
    /// cannot hold (checked before anything is reserved for it), entries
    /// out of order or repeated, or a token assigned twice.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (head, checksum) = bytes
            .split_last_chunk::<8>()
            .ok_or_else(|| malformed("truncated"))?;
        let (&version, body) = head
            .strip_prefix(MAGIC)
            .and_then(<[u8]>::split_first)
            .ok_or_else(|| malformed("bad magic"))?;
        if version != VERSION {
            return Err(malformed(&format!("unsupported version {version}")));
        }
        if fnv1a64(body) != u64::from_le_bytes(*checksum) {
            return Err(malformed("checksum mismatch"));
        }
        let pos = &mut 0;
        let seed = read_varint(body, pos)?;
        let passthrough_uids = read_sorted(body, pos, 1, read_u32)?;
        let passthrough_gids = read_sorted(body, pos, 1, read_u32)?;
        let flags = read_varint(body, pos)?;
        if flags > 0b11 {
            return Err(malformed(&format!("unknown flags {flags:#x}")));
        }
        let mut anon = Anonymizer::new(AnonymizerConfig {
            seed,
            passthrough_uids,
            passthrough_gids,
            omit_names: flags & 1 != 0,
            omit_identities: flags & 2 != 0,
        });
        for table in [&mut anon.uids, &mut anon.gids, &mut anon.ips, &mut anon.fhs] {
            table.read_assigned(body, pos)?;
        }
        anon.names.read_from(body, pos)?;
        if *pos != body.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(anon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::Op;

    fn rec(uid: u32, name: &str) -> TraceRecord {
        let mut r = TraceRecord::new(5, Op::Lookup, FileId(1234)).with_name(name);
        r.uid = uid;
        r.gid = 100;
        r.client = 0x0a000001;
        r.new_fh = Some(FileId(5678));
        r
    }

    #[test]
    fn identities_mapped_consistently() {
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        let o1 = a.anonymize(&rec(1001, "x.c"));
        let o2 = a.anonymize(&rec(1001, "y.c"));
        assert_eq!(o1.uid, o2.uid);
        assert_ne!(o1.uid, 1001);
        assert_eq!(o1.client, o2.client);
        assert_ne!(o1.client, 0x0a000001);
    }

    #[test]
    fn root_uid_passes_through() {
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        assert_eq!(a.anonymize(&rec(0, "f")).uid, 0);
    }

    #[test]
    fn fh_identity_preserved_across_fields() {
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        let mut r1 = rec(5, "f");
        r1.fh = FileId(42);
        let mut r2 = rec(5, "g");
        r2.fh = FileId(9);
        r2.new_fh = Some(FileId(42)); // same file seen as a lookup result
        let o1 = a.anonymize(&r1);
        let o2 = a.anonymize(&r2);
        assert_eq!(Some(o1.fh), o2.new_fh);
        assert_ne!(o1.fh, FileId(42));
    }

    #[test]
    fn timing_and_op_fields_untouched() {
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        let mut r = rec(5, "f");
        r.offset = 8192;
        r.count = 4096;
        r.eof = true;
        let o = a.anonymize(&r);
        assert_eq!(o.micros, r.micros);
        assert_eq!(o.op, r.op);
        assert_eq!(o.offset, 8192);
        assert_eq!(o.count, 4096);
        assert!(o.eof);
    }

    #[test]
    fn omit_modes() {
        let mut a = Anonymizer::new(AnonymizerConfig {
            omit_names: true,
            omit_identities: true,
            ..AnonymizerConfig::default()
        });
        let o = a.anonymize(&rec(1001, "secret"));
        assert_eq!(o.name, None);
        assert_eq!(o.uid, 0);
        assert_eq!(o.client, 0);
    }

    #[test]
    fn two_sites_cannot_be_joined() {
        // Different seeds: the same filename maps differently, so traces
        // from different sites cannot be compared name-by-name (§2).
        let mut site_a = Anonymizer::new(AnonymizerConfig {
            seed: 111,
            ..AnonymizerConfig::default()
        });
        let mut site_b = Anonymizer::new(AnonymizerConfig {
            seed: 222,
            ..AnonymizerConfig::default()
        });
        let r = rec(1001, "grant-proposal.tex");
        assert_ne!(site_a.anonymize(&r).name, site_b.anonymize(&r).name);
    }

    #[test]
    fn state_roundtrips_through_bytes() {
        let mut a = Anonymizer::new(AnonymizerConfig {
            passthrough_uids: vec![7, 0, 7],
            omit_names: true,
            ..AnonymizerConfig::default()
        });
        let before = a.anonymize(&rec(1001, "keep.dat"));
        let bytes = a.to_bytes();
        let mut b = Anonymizer::from_bytes(&bytes).unwrap();
        assert_eq!(b.to_bytes(), bytes);
        let after = b.anonymize(&rec(1001, "keep.dat"));
        assert_eq!(before, after);
        assert_eq!(b.anonymize(&rec(7, "x")).uid, 7, "passthrough restored");
        assert_eq!(after.name, None, "omission restored");
    }

    #[test]
    fn fh_fast_path_matches_table_path() {
        // The whole-handle cache must be invisible: hitting it, missing
        // it, and rebuilding it after a restore all yield the mapping
        // the underlying IdTable halves define.
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        let fh = FileId(0xdead_beef_0042);
        let first = a.map_fh(fh);
        assert_eq!(a.map_fh(fh), first, "cache hit differs from miss");
        let mut b = Anonymizer::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(b.map_fh(fh), first, "rebuilt cache diverged");
        // A handle sharing one 32-bit half still shares that half.
        let sibling = FileId(0xdead_beef_0042 ^ (1 << 40));
        assert_eq!(
            a.map_fh(sibling).0 as u32,
            first.0 as u32,
            "low half must be mapped identically"
        );
    }

    #[test]
    fn analyses_agree_on_raw_and_anonymized_traces() {
        // The paper's promise: anonymization preserves "the information
        // necessary for almost any analysis".
        use nfstrace_core::summary::SummaryStats;
        let mut records = Vec::new();
        for i in 0..50u64 {
            let mut r =
                TraceRecord::new(i * 1000, Op::Read, FileId(i % 5)).with_range(i * 8192, 8192);
            r.uid = 1000 + (i % 3) as u32;
            records.push(r);
        }
        let mut a = Anonymizer::new(AnonymizerConfig::default());
        let anon = a.anonymize_trace(&records);
        let s1 = SummaryStats::from_records(records.iter());
        let s2 = SummaryStats::from_records(anon.iter());
        assert_eq!(s1.total_ops, s2.total_ops);
        assert_eq!(s1.bytes_read, s2.bytes_read);
        assert_eq!(s1.rw_bytes_ratio(), s2.rw_bytes_ratio());
    }
}
