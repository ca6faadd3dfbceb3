//! On-disk layout constants, the per-chunk footer entry, and the chunk
//! filters.
//!
//! There is one store format; [`crate::StoreWriter`] writes it and
//! [`crate::StoreReader`] reads it. A file whose leading magic is
//! anything else — including the two retired layouts, `"NFSTRC1\0"`
//! and `"NFSTRC2\0"` — is rejected at open with a typed
//! [`crate::StoreError::Format`].
//!
//! ```text
//! +-------------+---------+---------+ ... +--------+----------------+
//! | magic (8 B) | chunk 0 | chunk 1 |     | footer | trailer        |
//! +-------------+---------+---------+ ... +--------+----------------+
//!
//! magic    := "NFSTRC3\0"
//!
//! payload  := name_table  (varint count, then varint-len escaped names)
//!             record_count (varint)
//!             first_micros (varint)
//!             record*      (see `codec`)
//!
//! chunk    := flags (1 B)                  — bit 0: LZ-compressed;
//!                                            other bits must be zero
//!             if compressed: raw_len (varint), LZ stream (see
//!                            `compress`), else: payload verbatim
//!
//! entry    := offset, len, records, min_micros, max_micros,
//!             min_fh, max_fh, checksum  (8 × u64 LE)
//!             filter_kind u8:
//!               1 (exact): count u32 LE, count × u64 LE sorted handles
//!               2 (bloom): hashes u8, nbytes u32 LE, nbytes filter
//!                          bytes — variable length, sized from the
//!                          chunk's distinct-handle count
//!
//! footer   := chunk_count u64 ++ total_records u64 ++ entry*
//!             ++ footer_checksum u64     — FNV-1a of all prior footer
//!                                          bytes; counts lead because
//!                                          the entries are
//!                                          variable-length
//! trailer  := footer_offset u64 LE, "NFSTRCE\0"
//! ```
//!
//! The reader seeks to the trailer (last 16 bytes), validates the end
//! magic, jumps to the footer, and from then on reads chunks by
//! absolute offset — so opening a store costs one footer read no matter
//! how many records it holds, and any chunk can be decoded in isolation
//! (each chunk carries its own name table and timestamp base).
//!
//! Each chunk is LZ-compressed when that wins (the flags byte records
//! which form it took; the raw form is the fallback), and every chunk
//! and the footer carry an FNV-1a checksum, so corruption is a
//! [`crate::StoreError::Format`] rather than wrong records. The
//! per-chunk [`FileIdFilter`] is **adaptive**: a fixed-size Bloom
//! filter saturates once a chunk holds thousands of distinct file
//! handles — every bit set, every probe a false positive, every
//! per-file query decoding every chunk — so the writer counts the
//! chunk's distinct primary handles and emits either the *exact* sorted
//! handle set (at or below [`EXACT_FILTER_MAX`] distinct handles — zero
//! false positives) or a Bloom filter sized to
//! ≈[`ADAPTIVE_BITS_PER_HANDLE`] bits per distinct handle, keeping the
//! false-positive rate — and so the chunk-skip rate of per-file queries
//! — roughly constant at any fan-in.
//!
//! # Segment file naming: ordinals and generations
//!
//! A segment *directory* (the live daemons' durable form, readable by
//! [`crate::StoreIndex::open_dir`]) names each store file by the
//! ordinal range it covers and the compaction generation that produced
//! it (parsed by [`crate::segments`]):
//!
//! ```text
//! base seal  := seg-{lo:06}.nfseg             — generation 0, one
//!                                               rotation (lo == hi)
//! compacted  := seg-{lo:06}-{hi:06}.g{generation:02}.nfseg
//!                                             — generation ≥ 1, the
//!                                               merge of ordinals
//!                                               lo..=hi inclusive
//! in-flight  := either form + .tmp            — never part of a
//!                                               catalog; swept on
//!                                               owning reopen
//! ```
//!
//! The widths are cosmetic (parsing accepts any digit count;
//! lexicographic order is a convenience, not a correctness
//! dependency); generation 0 never uses the ranged form, and a ranged
//! name with `lo > hi` or `.g00` is rejected as malformed rather than
//! ignored. Catalog resolution is by **supersession**: a segment
//! whose generation is higher and whose ordinal range covers another's
//! replaces it — which is what makes the compaction rename the commit
//! point of a crash-safe swap (see [`crate::compact`]).

use nfstrace_core::record::FileId;
use std::collections::BTreeSet;

/// Leading file magic.
pub const MAGIC: &[u8; 8] = b"NFSTRC3\0";

/// Trailing file magic.
pub const END_MAGIC: &[u8; 8] = b"NFSTRCE\0";

/// Chunk flags bit: the body is LZ-compressed.
pub const FLAG_COMPRESSED: u8 = 1 << 0;
/// Every currently defined flags bit; anything else is a format error.
pub const FLAG_MASK: u8 = FLAG_COMPRESSED;

/// Hard upper bound on a decoded chunk payload. Writers flush chunks at
/// a few MiB; a (hand-crafted) compressed chunk claiming more raw bytes
/// than this is rejected before any allocation.
pub const MAX_CHUNK_PAYLOAD: u64 = 1 << 30;

/// Filter kind tag: exact sorted handle set.
pub const FILTER_KIND_EXACT: u8 = 1;
/// Filter kind tag: adaptively sized Bloom filter.
pub const FILTER_KIND_BLOOM: u8 = 2;

/// Largest distinct-handle count stored as an exact sorted set; above
/// this the filter switches to an adaptively sized Bloom.
pub const EXACT_FILTER_MAX: usize = 64;

/// Target Bloom bits per distinct handle (≈1% false positives at
/// [`ADAPTIVE_HASHES`] hashes).
pub const ADAPTIVE_BITS_PER_HANDLE: usize = 10;

/// Hash probes per handle for Bloom filters (≈0.69 × bits/handle).
pub const ADAPTIVE_HASHES: u32 = 7;

/// Hard upper bound on a single filter's byte size, enforced at parse
/// time before any allocation.
pub const MAX_FILTER_BYTES: usize = 1 << 22;

/// FNV-1a 64-bit hash — the store's checksum. Not cryptographic; it
/// exists to catch disk/transport corruption deterministically.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a64`] fed in pieces. FNV-1a folds one byte at a time, so the
/// pieces of a message hashed in order give the hash of the whole —
/// a writer can checksum what it writes without first gathering it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of nothing yet.
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in after everything before.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte folded in.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Smallest Bloom filter the writer emits, in bytes (512 bits).
pub const BLOOM_BYTES: usize = 64;

/// SplitMix64 — the Bloom filters' hash mixer.
fn mix64(mut v: u64) -> u64 {
    v = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^ (v >> 31)
}

/// Sets `hashes` Bloom bits for `fh` in `bits`.
fn bloom_set(bits: &mut [u8], hashes: u32, fh: u64) {
    let nbits = bits.len() * 8;
    let mut h = mix64(fh);
    for _ in 0..hashes {
        let bit = (h as usize) % nbits;
        bits[bit / 8] |= 1 << (bit % 8);
        h = mix64(h);
    }
}

/// Tests `hashes` Bloom bits for `fh` in `bits`.
fn bloom_test(bits: &[u8], hashes: u32, fh: u64) -> bool {
    let nbits = bits.len() * 8;
    if nbits == 0 {
        return false;
    }
    let mut h = mix64(fh);
    for _ in 0..hashes {
        let bit = (h as usize) % nbits;
        if bits[bit / 8] & (1 << (bit % 8)) == 0 {
            return false;
        }
        h = mix64(h);
    }
    true
}

/// The membership structure inside a [`FileIdFilter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterKind {
    /// The chunk's exact distinct primary handles, sorted ascending.
    /// Zero false positives; used for low-fan-in chunks.
    Exact(Vec<u64>),
    /// A Bloom filter over the handles: `hashes` bits probed per
    /// handle across `bits.len() * 8` bits, sized from the chunk's
    /// distinct-handle count.
    Bloom {
        /// Bits probed per handle.
        hashes: u32,
        /// The filter bit array.
        bits: Vec<u8>,
    },
}

/// A conservative per-chunk membership test over each record's primary
/// file handle (`TraceRecord::fh`): a min/max range plus a
/// [`FilterKind`].
///
/// `may_contain` can report false positives (a chunk is decoded and
/// yields nothing) but never false negatives, so chunk-skipping
/// per-file queries always return exactly the full-scan answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileIdFilter {
    /// Smallest primary file handle in the chunk.
    pub min_fh: u64,
    /// Largest primary file handle in the chunk.
    pub max_fh: u64,
    /// The membership structure.
    pub kind: FilterKind,
}

impl FileIdFilter {
    /// A filter that matches nothing (an empty chunk's state).
    pub fn empty() -> Self {
        FileIdFilter {
            min_fh: u64::MAX,
            max_fh: 0,
            kind: FilterKind::Exact(Vec::new()),
        }
    }

    /// Whether the chunk behind this filter could contain `fh`.
    pub fn may_contain(&self, fh: FileId) -> bool {
        if fh.0 < self.min_fh || fh.0 > self.max_fh {
            return false;
        }
        match &self.kind {
            FilterKind::Exact(handles) => handles.binary_search(&fh.0).is_ok(),
            FilterKind::Bloom { hashes, bits } => bloom_test(bits, *hashes, fh.0),
        }
    }
}

/// Accumulates one chunk's distinct primary handles while the chunk is
/// being written, then finishes into the footer filter. Memory is
/// bounded by the chunk's distinct handles, which the chunk size
/// bounds.
#[derive(Debug, Clone, Default)]
pub struct FilterBuilder {
    distinct: BTreeSet<u64>,
}

impl FilterBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FilterBuilder::default()
    }

    /// Notes one record's primary handle.
    pub fn insert(&mut self, fh: FileId) {
        self.distinct.insert(fh.0);
    }

    /// Distinct handles noted so far.
    pub fn len(&self) -> usize {
        self.distinct.len()
    }

    /// Whether nothing was noted.
    pub fn is_empty(&self) -> bool {
        self.distinct.is_empty()
    }

    fn min_max(&self) -> (u64, u64) {
        match (self.distinct.first(), self.distinct.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (u64::MAX, 0),
        }
    }

    /// The filter, sized from the distinct-handle count: exact at or
    /// below [`EXACT_FILTER_MAX`] handles, otherwise a Bloom filter of
    /// ≈[`ADAPTIVE_BITS_PER_HANDLE`] bits per handle (rounded up to a
    /// power-of-two byte count, never below [`BLOOM_BYTES`]) — so the
    /// false-positive rate stays roughly flat as chunk fan-in grows,
    /// where a fixed-size filter would saturate.
    pub fn finish_adaptive(&self) -> FileIdFilter {
        let (min_fh, max_fh) = self.min_max();
        if self.distinct.len() <= EXACT_FILTER_MAX {
            return FileIdFilter {
                min_fh,
                max_fh,
                kind: FilterKind::Exact(self.distinct.iter().copied().collect()),
            };
        }
        let want = self
            .distinct
            .len()
            .saturating_mul(ADAPTIVE_BITS_PER_HANDLE)
            .div_ceil(8);
        let nbytes = want
            .next_power_of_two()
            .clamp(BLOOM_BYTES, MAX_FILTER_BYTES);
        let mut bits = vec![0u8; nbytes];
        for &fh in &self.distinct {
            bloom_set(&mut bits, ADAPTIVE_HASHES, fh);
        }
        FileIdFilter {
            min_fh,
            max_fh,
            kind: FilterKind::Bloom {
                hashes: ADAPTIVE_HASHES,
                bits,
            },
        }
    }

    /// Forgets everything (next chunk).
    pub fn clear(&mut self) {
        self.distinct.clear();
    }
}

/// One chunk's footer entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Absolute byte offset of the chunk.
    pub offset: u64,
    /// Encoded (stored) byte length.
    pub len: u64,
    /// Records in the chunk.
    pub records: u64,
    /// First record's capture time.
    pub min_micros: u64,
    /// Last record's capture time.
    pub max_micros: u64,
    /// FNV-1a 64 of the stored chunk bytes.
    pub checksum: u64,
    /// Primary-file-handle filter.
    pub filter: FileIdFilter,
}

impl ChunkMeta {
    /// Whether this chunk could contain records in `[start, end)`.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        self.records > 0 && self.min_micros < end && self.max_micros >= start
    }

    /// Whether this chunk could contain a record whose primary handle is
    /// `fh` (false positives possible, false negatives not).
    pub fn may_contain_file(&self, fh: FileId) -> bool {
        self.filter.may_contain(fh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(handles: impl IntoIterator<Item = u64>) -> FilterBuilder {
        let mut b = FilterBuilder::new();
        for h in handles {
            b.insert(FileId(h));
        }
        b
    }

    /// The published FNV-1a 64 vectors, and any split of a message fed
    /// in pieces hashes as the whole.
    #[test]
    fn fnv1a64_in_pieces_is_the_whole() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let message: Vec<u8> = (0..=255u8).chain(0..40).collect();
        for a in 0..message.len() {
            for b in [a, (a + 7).min(message.len()), message.len()] {
                let mut h = Fnv1a64::default();
                for piece in [&message[..a], &message[a..b], &message[b..]] {
                    h.update(piece);
                }
                assert_eq!(h.finish(), fnv1a64(&message), "split at {a}, {b}");
            }
        }
    }

    #[test]
    fn filters_have_no_false_negatives() {
        let members: Vec<u64> = (0..200).map(|i| i * 977 + 13).collect();
        let f = build(members.iter().copied()).finish_adaptive();
        assert!(matches!(f.kind, FilterKind::Bloom { .. }));
        for &m in &members {
            assert!(f.may_contain(FileId(m)), "member {m} filtered out");
        }
    }

    #[test]
    fn filters_reject_out_of_range_and_most_nonmembers() {
        // Once as an exact set, once (100 handles) as a Bloom filter.
        for (lo, hi) in [(1000u64, 1040u64), (1000, 1100)] {
            let f = build(lo..hi).finish_adaptive();
            assert!(!f.may_contain(FileId(0)));
            assert!(!f.may_contain(FileId(lo - 1)));
            assert!(!f.may_contain(FileId(hi)));
            assert!(!f.may_contain(FileId(u64::MAX)));
        }
    }

    #[test]
    fn empty_filter_matches_nothing() {
        for f in [FileIdFilter::empty(), build([]).finish_adaptive()] {
            for probe in [0u64, 1, 42, u64::MAX] {
                assert!(!f.may_contain(FileId(probe)));
            }
        }
    }

    #[test]
    fn small_sets_are_stored_exactly() {
        let b = build((0..=EXACT_FILTER_MAX as u64 - 1).map(|i| i * 3));
        let f = b.finish_adaptive();
        assert!(matches!(&f.kind, FilterKind::Exact(v) if v.len() == EXACT_FILTER_MAX));
        // Exact means exact: in-range nonmembers are rejected too.
        assert!(f.may_contain(FileId(3)));
        assert!(!f.may_contain(FileId(4)));
    }

    /// At the fan-in that saturated the retired layout's fixed 512-bit
    /// filter (every probe a false positive), the adaptive filter must
    /// stay selective.
    #[test]
    fn adaptive_filter_survives_fan_in_that_saturates_legacy() {
        // ~20k distinct handles in one chunk — a production-fan-in
        // chunk.
        let members: Vec<u64> = (0..20_000u64).map(|i| i * 2 + 1).collect();
        let adaptive = build(members.iter().copied()).finish_adaptive();

        // Probe in-range nonmembers (even values inside [min, max]) so
        // the min/max guard cannot help.
        let probes: Vec<u64> = (0..10_000u64).map(|i| i * 4 + 2).collect();
        let fp = probes
            .iter()
            .filter(|&&p| adaptive.may_contain(FileId(p)))
            .count() as f64
            / probes.len() as f64;
        assert!(
            fp < 0.05,
            "the adaptive filter must stay selective, fp = {fp}"
        );
        // And still no false negatives.
        assert!(members.iter().all(|&m| adaptive.may_contain(FileId(m))));
    }

    #[test]
    fn adaptive_bloom_size_scales_with_distinct_count() {
        let sized = |n: u64| -> usize {
            match build((0..n).map(|i| i * 7)).finish_adaptive().kind {
                FilterKind::Bloom { bits, .. } => bits.len(),
                FilterKind::Exact(_) => 0,
            }
        };
        let small = sized(200);
        let big = sized(20_000);
        assert!(small >= BLOOM_BYTES);
        assert!(big > small, "bigger fan-in must get a bigger filter");
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"inbox"), fnv1a64(b"inbox.lock"));
        let mut flipped = b"some chunk body".to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(fnv1a64(b"some chunk body"), fnv1a64(&flipped));
    }
}
