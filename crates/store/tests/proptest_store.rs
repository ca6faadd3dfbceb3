//! Property tests for the chunked store: codec round-trips are
//! bit-identical whichever form each chunk negotiates, chunk-parallel
//! partial-index merges equal the single-pass in-memory index for
//! arbitrary chunk sizes and thread counts, the fused single-pass
//! replay matches the per-analysis replay path byte for byte, and
//! corrupted files surface as [`nfstrace_store::StoreError::Format`]
//! rather than silently wrong records.

use nfstrace_core::index::{PartialIndex, ReplayRequest, TraceIndex, TraceView};
use nfstrace_core::lifetime::LifetimeConfig;
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::runs::RunOptions;
use nfstrace_store::{StoreConfig, StoreError, StoreIndex, StoreReader, StoreWriter};
use nfstrace_telemetry::Registry;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        (
            0u64..2_000_000_000,
            0usize..Op::ALL.len(),
            0u64..500,
            0u64..(1 << 34),
            0u32..70_000,
            any::<bool>(),
        ),
        (
            proptest::option::of("[a-zA-Z0-9._#~ %=-]{1,24}"),
            proptest::option::of("[a-zA-Z0-9._#~ %=-]{1,24}"),
            proptest::option::of(0u64..(1 << 33)),
            proptest::option::of(0u64..(1 << 33)),
            proptest::option::of(0u64..(1 << 33)),
            proptest::option::of(0u64..10_000),
            proptest::option::of(0u8..8),
            proptest::option::of(0u64..500),
        ),
    )
        .prop_map(
            |(
                (micros, op_idx, fh, offset, count, eof),
                (name, name2, pre, post, trunc, new_fh, ftype, fh2),
            )| {
                let mut r = TraceRecord::new(micros, Op::ALL[op_idx], FileId(fh));
                r.reply_micros = micros.wrapping_add(u64::from(count) % 1000);
                r.client = (fh % 251) as u32;
                r.server = 2;
                r.uid = (fh % 97) as u32;
                r.gid = (fh % 13) as u32;
                r.xid = fh as u32;
                r.vers = if fh % 2 == 0 { 3 } else { 2 };
                r.offset = offset;
                r.count = count;
                r.ret_count = count / 2;
                r.eof = eof;
                r.status = if fh % 17 == 0 {
                    u32::MAX
                } else {
                    (fh % 3) as u32
                };
                r.name = name;
                r.name2 = name2;
                r.pre_size = pre;
                r.post_size = post;
                r.truncate_to = trunc;
                r.new_fh = new_fh.map(FileId);
                r.ftype = ftype;
                r.fh2 = fh2.map(FileId);
                r
            },
        )
}

fn tmp(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nfstrace-store-proptests");
    std::fs::create_dir_all(&dir).expect("mkdir tempdir");
    dir.join(format!("{tag}-{}-{case}", std::process::id()))
}

proptest! {
    /// Write → read returns the exact input records for any chunk size.
    #[test]
    fn store_roundtrip_is_bit_identical(
        mut records in proptest::collection::vec(arb_record(), 0..300),
        chunk_bytes in 48usize..8192,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("roundtrip", case);
        let mut w = nfstrace_store::StoreWriter::create(
            &path,
            nfstrace_store::StoreConfig {
                target_chunk_bytes: chunk_bytes,
            },
        ).expect("create");
        for r in &records {
            w.push(r).expect("push");
        }
        let summary = w.finish().expect("finish");
        prop_assert_eq!(summary.total_records, records.len() as u64);

        let reader = nfstrace_store::StoreReader::open(&path).expect("open");
        let mut back = Vec::with_capacity(records.len());
        reader.for_each(|r| back.push(r.clone())).expect("stream");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, records);
    }

    /// Chunk-parallel partial-index merge equals the one-pass in-memory
    /// index for arbitrary chunk sizes and worker counts.
    #[test]
    fn partial_merge_equals_trace_index(
        mut records in proptest::collection::vec(arb_record(), 0..250),
        chunk_records in 1usize..64,
        threads in 1usize..9,
    ) {
        records.sort_by_key(|r| r.micros);
        let whole = TraceIndex::new(records.clone());

        let chunks: Vec<&[TraceRecord]> = records.chunks(chunk_records).collect();
        let parts = nfstrace_core::parallel::run_sharded(chunks.len(), threads, |i| {
            PartialIndex::from_records(chunks[i])
        });
        let merged = PartialIndex::merge_ordered(parts);

        prop_assert_eq!(&merged.summary, whole.summary());
        prop_assert_eq!(&merged.hourly, whole.hourly());
        prop_assert_eq!(merged.raw.as_ref(), whole.accesses(0).as_ref());
        prop_assert_eq!(merged.len, whole.len());
    }

    /// The store-backed index serves the same analysis products as the
    /// in-memory index over the same records.
    #[test]
    fn store_index_equals_trace_index(
        mut records in proptest::collection::vec(arb_record(), 0..200),
        chunk_bytes in 64usize..4096,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("index", case);
        let mut w = nfstrace_store::StoreWriter::create(
            &path,
            nfstrace_store::StoreConfig {
                target_chunk_bytes: chunk_bytes,
            },
        ).expect("create");
        for r in &records {
            w.push(r).expect("push");
        }
        w.finish().expect("finish");

        let disk = nfstrace_store::StoreIndex::open(&path).expect("open");
        let mem = TraceIndex::new(records);
        prop_assert_eq!(disk.summary(), mem.summary());
        prop_assert_eq!(disk.hourly(), mem.hourly());
        prop_assert_eq!(disk.accesses(7).as_ref(), mem.accesses(7).as_ref());
        prop_assert_eq!(
            disk.runs(7, RunOptions::default()).as_ref(),
            mem.runs(7, RunOptions::default()).as_ref()
        );
        prop_assert_eq!(disk.names(), mem.names());
        std::fs::remove_file(&path).ok();
    }
}

/// Writes `records` to `path` with the given chunk size; returns the
/// registry holding the writer's `store.*` counters.
fn write_with(path: &std::path::Path, records: &[TraceRecord], chunk_bytes: usize) -> Registry {
    let registry = Registry::new();
    let config = StoreConfig {
        target_chunk_bytes: chunk_bytes,
    };
    let mut w = StoreWriter::create_with_registry(path, config, &registry).expect("create");
    for r in records {
        w.push(r).expect("push");
    }
    w.finish().expect("finish");
    registry
}

/// Reads every record back, or the first error.
fn read_all(path: &std::path::Path) -> Result<Vec<TraceRecord>, StoreError> {
    let reader = StoreReader::open(path)?;
    let mut back = Vec::new();
    reader.for_each(|r| back.push(r.clone()))?;
    Ok(back)
}

proptest! {
    /// The compression codec round-trips bit-identically through the
    /// store for arbitrary record streams × chunk sizes, and each
    /// chunk's negotiation (LZ form or raw fallback, via the flags
    /// byte) never stores more than the raw payload plus that byte.
    #[test]
    fn compressed_roundtrip_is_bit_identical(
        mut records in proptest::collection::vec(arb_record(), 0..300),
        chunk_bytes in 48usize..8192,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("lz-roundtrip", case);
        let registry = write_with(&path, &records, chunk_bytes);
        let back = read_all(&path).expect("read");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, records);
        let counted = |name: &str| registry.counter(name).value();
        prop_assert!(
            counted("store.chunk_bytes_stored")
                <= counted("store.chunk_bytes_raw") + counted("store.chunks_written")
        );
    }

    /// The fused single-pass replay produces byte-identical reports vs
    /// the per-analysis replay path (each product requested on its own,
    /// the pre-fusion shape, kept as the oracle) for arbitrary thread
    /// counts — and costs exactly one decode pass.
    #[test]
    fn fused_replay_equals_per_analysis_replay(
        mut records in proptest::collection::vec(arb_record(), 0..200),
        chunk_bytes in 64usize..4096,
        threads in 1usize..9,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("fused", case);
        write_with(&path, &records, chunk_bytes);
        let cfg = LifetimeConfig {
            phase1_start: 0,
            phase1_len: 1_000_000_000,
            phase2_len: 1_000_000_000,
        };
        let bucket = 250_000_000u64;

        let fused = StoreIndex::from_readers_with_threads(
            vec![Arc::new(StoreReader::open(&path).expect("open"))],
            threads,
        )
        .expect("index");
        fused.prepare(&[
            ReplayRequest::Names,
            ReplayRequest::Coverage(bucket),
            ReplayRequest::Lifetime(cfg),
            ReplayRequest::WeekdayLifetime,
        ]);
        prop_assert_eq!(fused.decode_passes(), 1);

        // The oracle: a fresh index, every product requested
        // individually — each call replays on its own.
        let unfused = StoreIndex::from_readers_with_threads(
            vec![Arc::new(StoreReader::open(&path).expect("open"))],
            threads,
        )
        .expect("index");
        prop_assert_eq!(fused.names(), unfused.names());
        prop_assert_eq!(
            fused.hierarchy_coverage(bucket),
            unfused.hierarchy_coverage(bucket)
        );
        prop_assert_eq!(fused.lifetime(cfg).as_ref(), unfused.lifetime(cfg).as_ref());
        prop_assert_eq!(
            fused.weekday_lifetime().as_ref(),
            unfused.weekday_lifetime().as_ref()
        );
        prop_assert_eq!(unfused.decode_passes(), 4, "one pass per product");

        // ... and both equal the direct slice-based computations.
        prop_assert_eq!(
            fused.names().as_ref(),
            &nfstrace_core::names::NamePredictionReport::from_records(records.iter())
        );
        prop_assert_eq!(
            fused.lifetime(cfg).as_ref(),
            &nfstrace_core::lifetime::analyze(records.iter(), cfg)
        );
        prop_assert_eq!(
            fused.hierarchy_coverage(bucket).as_ref(),
            &nfstrace_core::hierarchy::coverage_over_time(records.iter(), bucket)
        );
        std::fs::remove_file(&path).ok();
    }

    /// A point query on a windowed view answers what filtering the
    /// view's own record stream answers — for any file, any window
    /// (empty and inverted ones included), any chunk size — and moves
    /// the three counters `store.chunks_decoded_per_query` and
    /// `store.filter_false_positive_share` are made of exactly as the
    /// footer says it must: building only the matching records skips
    /// no chunk, no check and no count.
    #[test]
    fn windowed_file_query_equals_the_filtered_stream(
        mut records in proptest::collection::vec(arb_record(), 0..300),
        chunk_bytes in 48usize..4096,
        pick in 0usize..400,
        (a, b, shape) in (0u64..2_100_000_000, 0u64..2_100_000_000, 0u8..4),
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("windowquery", case);
        write_with(&path, &records, chunk_bytes);
        // A file of the trace more often than not; a window that is
        // proper, whole, as drawn (inverted half the time) or empty.
        let fh = records.get(pick).map_or(FileId(pick as u64), |r| r.fh);
        let (start, end) = match shape {
            0 => (a.min(b), a.max(b)),
            1 => (0, u64::MAX),
            2 => (a, b),
            _ => (a, a),
        };
        let registry = Registry::new();
        let whole = StoreIndex::open_with_registry(&path, &registry).expect("open");
        let view = whole.time_window(start, end);
        let (start, end) = (start, end.max(start));

        // What the footer and a full decode say the query must do.
        let reader = whole.reader();
        let pruned = reader
            .time_range()
            .is_none_or(|(min, max)| !(min < end && max >= start))
            || reader
                .chunks()
                .iter()
                .all(|m| m.records == 0 || !m.may_contain_file(fh));
        let oracle = StoreReader::open(&path).expect("open");
        let (mut decoded, mut skipped, mut false_positives) = (0u64, 0u64, 0u64);
        for (i, m) in oracle.chunks().iter().enumerate() {
            if pruned {
                break;
            }
            if !m.overlaps(start, end) || !m.may_contain_file(fh) {
                skipped += 1;
                continue;
            }
            decoded += 1;
            let holds = oracle.read_chunk(i).expect("chunk").iter().any(|r| r.fh == fh);
            false_positives += u64::from(!holds);
        }

        let counted = |name: &str| registry.counter(name).value();
        let before = [
            counted("store.chunks_decoded"),
            counted("store.chunks_skipped"),
            counted("store.filter_false_positives"),
        ];
        let answer = view.file_records(fh).expect("query");
        prop_assert_eq!(
            [
                counted("store.chunks_decoded") - before[0],
                counted("store.chunks_skipped") - before[1],
                counted("store.filter_false_positives") - before[2],
            ],
            [decoded, skipped, false_positives]
        );

        let mut streamed = Vec::new();
        nfstrace_core::index::RecordStream::for_each_record(&view, &mut |r| {
            if r.fh == fh {
                streamed.push(r.clone());
            }
        });
        prop_assert_eq!(&answer, &streamed);
        let direct: Vec<TraceRecord> = records
            .iter()
            .filter(|r| r.fh == fh && r.micros >= start && r.micros < end)
            .cloned()
            .collect();
        prop_assert_eq!(&answer, &direct);
        std::fs::remove_file(&path).ok();
    }

    /// Any single flipped bit anywhere in a compressed store surfaces
    /// as an error (almost always `Format`: checksums cover chunks and
    /// footer, magic and geometry cover the rest) — never as a silently
    /// different record stream.
    #[test]
    fn bit_flips_never_yield_wrong_records(
        mut records in proptest::collection::vec(arb_record(), 1..150),
        chunk_bytes in 64usize..2048,
        flip_frac in 0u32..10_000,
        bit in 0u8..8,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("flip", case);
        write_with(&path, &records, chunk_bytes);
        let mut bytes = std::fs::read(&path).expect("read file");
        let idx = (u64::from(flip_frac) * (bytes.len() as u64 - 1) / 10_000) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted");

        match read_all(&path) {
            Err(_) => {} // expected: corruption detected somewhere
            Ok(back) => prop_assert_eq!(
                back, records,
                "corruption at byte {} bit {} was silently absorbed into different records",
                idx, bit
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Truncating a compressed store anywhere is an open or read error,
    /// never a short-but-plausible record stream.
    #[test]
    fn truncations_error(
        mut records in proptest::collection::vec(arb_record(), 1..150),
        cut_frac in 0u32..10_000,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        let path = tmp("trunc2", case);
        write_with(&path, &records, 256);
        let bytes = std::fs::read(&path).expect("read file");
        let cut = (u64::from(cut_frac) * (bytes.len() as u64 - 1) / 10_000) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        prop_assert!(read_all(&path).is_err(), "cut at {} of {}", cut, bytes.len());
        std::fs::remove_file(&path).ok();
    }
}

/// A time-clustered multi-file trace: file ids advance with time, so
/// chunk min/max file filters are selective.
fn clustered_records(n: u64, per_file: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| {
            TraceRecord::new(i * 1000, Op::Read, FileId(i / per_file)).with_range(i * 8192, 8192)
        })
        .collect()
}

/// A per-file query over a multi-chunk store decodes only the chunks
/// that can match — observed via the reader's decode counter — and
/// returns exactly the full-scan answer.
#[test]
fn per_file_queries_skip_chunks() {
    let records = clustered_records(3000, 300);
    let path = tmp("skip", 0);
    write_with(&path, &records, 2048);

    let reader = StoreReader::open(&path).expect("open");
    let chunks = reader.chunk_count() as u64;
    assert!(chunks >= 8, "need a multi-chunk store, got {chunks}");

    let probe = FileId(5);
    let skipping = reader.records_for_file(probe).expect("query");
    let decoded_by_query = reader.chunks_decoded();
    assert!(
        decoded_by_query < chunks,
        "query decoded {decoded_by_query} of {chunks} chunks — nothing was skipped"
    );

    // Full-scan oracle on a fresh reader.
    let full = StoreReader::open(&path).expect("open");
    let mut scanned = Vec::new();
    full.for_each(|r| {
        if r.fh == probe {
            scanned.push(r.clone());
        }
    })
    .expect("scan");
    assert_eq!(full.chunks_decoded(), chunks, "the oracle scans everything");
    assert_eq!(skipping, scanned);

    // A file id beyond every filter range decodes nothing at all.
    let before = reader.chunks_decoded();
    assert!(reader
        .records_for_file(FileId(1 << 40))
        .expect("query")
        .is_empty());
    assert_eq!(reader.chunks_decoded(), before, "absent file: zero decodes");
    std::fs::remove_file(&path).ok();
}

/// The saturation regression, end to end: on chunks with thousands of
/// distinct handles a fixed-size Bloom filter saturates (per-file
/// queries for absent files decode nearly every chunk); the adaptive
/// filter must keep the skip rate high.
#[test]
fn adaptive_filters_keep_skipping_on_high_fan_in_chunks() {
    // Every record a distinct-ish handle, scattered so each chunk's
    // [min_fh, max_fh] range spans nearly the whole space: the range
    // guard cannot help, only the membership filter can.
    let records: Vec<TraceRecord> = (0..24_000u64)
        .map(|i| {
            let fh = ((i * 7919) % 20011) * 2 + 1; // odd members only
            TraceRecord::new(i * 500, Op::Read, FileId(fh)).with_range(0, 8192)
        })
        .collect();
    let probes: Vec<FileId> = (0..200u64).map(|i| FileId(i * 180 + 2)).collect(); // even: absent

    let path = tmp("fanin", 0);
    write_with(&path, &records, 96 << 10);
    let reader = StoreReader::open(&path).expect("open");
    assert!(reader.chunk_count() >= 4, "need several chunks");
    for p in &probes {
        assert!(
            reader.records_for_file(*p).expect("query").is_empty(),
            "even handles are absent by construction"
        );
    }
    let decoded = reader.chunks_decoded();
    let full_scans = (probes.len() * reader.chunk_count()) as u64;
    std::fs::remove_file(&path).ok();
    assert!(
        decoded * 10 < full_scans,
        "the adaptive filter decoded {decoded} chunks where full scans take {full_scans} — \
         it should be skipping more than 10x"
    );
}

/// With mixed content, compressible chunks take the LZ form and
/// incompressible ones fall back to raw — per chunk, via the flags
/// byte — and the stream still round-trips bit-identically.
#[test]
fn mixed_compression_negotiates_per_chunk() {
    // First half: one hot name, maximally repetitive. Second half:
    // every field and a long name drawn from a PRNG — so close to
    // incompressible that the LZ form loses to its own framing.
    let mut records = Vec::new();
    for i in 0..400u64 {
        records.push(TraceRecord::new(i, Op::Lookup, FileId(1)).with_name("inbox.lock"));
    }
    let mut v = 0x9e3779b97f4a7c15u64;
    let mut rand = move || {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        v
    };
    let mut micros = 400u64;
    for _ in 0..400u64 {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        let name: String = (0..120)
            .map(|_| char::from(ALPHABET[(rand() % 62) as usize]))
            .collect();
        micros += rand() % 100_000;
        let mut r = TraceRecord::new(micros, Op::Lookup, FileId(rand())).with_name(name);
        r.reply_micros = micros.wrapping_add(rand());
        r.offset = rand();
        r.pre_size = Some(rand());
        r.post_size = Some(rand());
        r.truncate_to = Some(rand());
        r.new_fh = Some(FileId(rand()));
        r.fh2 = Some(FileId(rand()));
        r.xid = rand() as u32;
        r.client = rand() as u32;
        r.server = rand() as u32;
        r.uid = rand() as u32;
        r.gid = rand() as u32;
        records.push(r);
    }
    let path = tmp("mixed", 0);
    write_with(&path, &records, 2000);
    let reader = StoreReader::open(&path).expect("open");
    let bytes = std::fs::read(&path).expect("read bytes");
    let mut saw = [false; 2];
    for m in reader.chunks() {
        let flags = bytes[m.offset as usize];
        saw[usize::from(flags & 1)] = true;
    }
    assert!(saw[1], "no chunk chose compression");
    assert!(saw[0], "no chunk fell back to raw");
    let back = read_all(&path).expect("read");
    assert_eq!(back, records);
    std::fs::remove_file(&path).ok();
}

/// Patches `file[at..at + 8]` with a little-endian word.
fn patch_word(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Where the footer starts, from the trailer. The footer leads with
/// `chunk_count` and `total_records`.
fn footer_offset(bytes: &[u8]) -> usize {
    let len = bytes.len();
    u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize
}

/// Byte offset of word `word` of footer entry 0 (offset, len, records,
/// min_micros, max_micros, min_fh, max_fh, checksum), which follows the
/// two leading count words.
fn entry0_word(bytes: &[u8], word: usize) -> usize {
    footer_offset(bytes) + 16 + word * 8
}

/// Recomputes the footer checksum after a footer patch so the tampered
/// field itself — not the checksum — is what the reader must catch.
fn refresh_footer_checksum(bytes: &mut [u8]) {
    let sum_at = bytes.len() - 24;
    let sum = nfstrace_store::format::fnv1a64(&bytes[footer_offset(bytes)..sum_at]);
    patch_word(bytes, sum_at, sum);
}

/// Recomputes chunk 0's checksum word after its bytes were patched,
/// then the footer's.
fn refresh_chunk0_checksum(bytes: &mut [u8], meta: &nfstrace_store::ChunkMeta) {
    let sum = nfstrace_store::format::fnv1a64(
        &bytes[meta.offset as usize..(meta.offset + meta.len) as usize],
    );
    let at = entry0_word(bytes, 7);
    patch_word(bytes, at, sum);
    refresh_footer_checksum(bytes);
}

/// An unknown flags bit is rejected by flag validation even when every
/// checksum has been fixed up to match the tampered bytes.
#[test]
fn unknown_flags_byte_is_a_format_error() {
    let records = clustered_records(200, 50);
    let path = tmp("badflags", 0);
    write_with(&path, &records, 1 << 20);
    let reader = StoreReader::open(&path).expect("open");
    let meta = reader.chunks()[0].clone();
    drop(reader);

    let mut bytes = std::fs::read(&path).expect("read");
    bytes[meta.offset as usize] = 0x40; // undefined flag bit
    refresh_chunk0_checksum(&mut bytes, &meta);
    std::fs::write(&path, &bytes).expect("write");

    let reader = StoreReader::open(&path).expect("footer is consistent");
    let err = reader.read_chunk(0).expect_err("unknown flags must fail");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("flags")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A footer whose file filter disagrees with itself (min > max) is
/// rejected at open, checksum notwithstanding.
#[test]
fn inverted_filter_range_is_a_format_error() {
    let records = clustered_records(200, 50);
    let path = tmp("badfilter", 0);
    write_with(&path, &records, 1 << 20);
    let mut bytes = std::fs::read(&path).expect("read");
    let (min_fh, max_fh) = (entry0_word(&bytes, 5), entry0_word(&bytes, 6));
    patch_word(&mut bytes, min_fh, 100);
    patch_word(&mut bytes, max_fh, 5); // max_fh < min_fh
    refresh_footer_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");

    let err = StoreReader::open(&path).expect_err("inverted range must fail");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("filter")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A tampered chunk checksum word in the footer makes the chunk — not
/// the open — fail, with a checksum Format error.
#[test]
fn chunk_footer_checksum_mismatch_is_a_format_error() {
    let records = clustered_records(200, 50);
    let path = tmp("badsum", 0);
    write_with(&path, &records, 1 << 20);
    let mut bytes = std::fs::read(&path).expect("read");
    let sum_at = entry0_word(&bytes, 7);
    let old = u64::from_le_bytes(bytes[sum_at..sum_at + 8].try_into().unwrap());
    patch_word(&mut bytes, sum_at, old ^ 1);
    refresh_footer_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");

    let reader = StoreReader::open(&path).expect("footer parses");
    let err = reader.read_chunk(0).expect_err("checksum must mismatch");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("checksum")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A footer whose time range disagrees with itself (min > max) on a
/// chunk that claims records is rejected at open, checksum
/// notwithstanding — the pruning planner trusts these words.
#[test]
fn inverted_time_range_is_a_format_error() {
    let records = clustered_records(200, 50);
    let path = tmp("badtime", 0);
    write_with(&path, &records, 1 << 20);
    let mut bytes = std::fs::read(&path).expect("read");
    let (min_micros, max_micros) = (entry0_word(&bytes, 3), entry0_word(&bytes, 4));
    patch_word(&mut bytes, min_micros, 100);
    patch_word(&mut bytes, max_micros, 5); // max_micros < min_micros
    refresh_footer_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");

    let err = StoreReader::open(&path).expect_err("inverted time range must fail");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("time range is inverted")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A zero-record chunk may carry whatever min/max words its writer
/// left — even min > max. Open must normalize (not reject) them to
/// the canonical empty range, so the segment folds to no time range
/// at all and the planner dismisses it from every window.
#[test]
fn zero_record_degenerate_time_range_is_normalized() {
    let records = clustered_records(200, 50);
    let path = tmp("emptyrange", 0);
    write_with(&path, &records, 1 << 20);
    let mut bytes = std::fs::read(&path).expect("read");
    let total_records = footer_offset(&bytes) + 8;
    let (records, min_micros, max_micros) = (
        entry0_word(&bytes, 2),
        entry0_word(&bytes, 3),
        entry0_word(&bytes, 4),
    );
    patch_word(&mut bytes, records, 0);
    patch_word(&mut bytes, min_micros, 100);
    patch_word(&mut bytes, max_micros, 5); // max_micros < min_micros
    patch_word(&mut bytes, total_records, 0);
    refresh_footer_checksum(&mut bytes);
    std::fs::write(&path, &bytes).expect("write");

    let reader = StoreReader::open(&path).expect("degenerate empty range must open");
    let meta = &reader.chunks()[0];
    assert_eq!(
        (meta.min_micros, meta.max_micros),
        (u64::MAX, 0),
        "zero-record chunk pinned to the canonical empty range"
    );
    assert!(
        !meta.overlaps(0, u64::MAX),
        "an empty chunk overlaps nothing"
    );
    assert_eq!(reader.time_range(), None, "the segment folds to no range");
    assert!(
        reader.prune_window(0, u64::MAX),
        "the planner dismisses the empty segment from every window"
    );
    std::fs::remove_file(&path).ok();
}

/// The two retired layouts (v1 `NFSTRC1`, v2 `NFSTRC2`) are no longer
/// read: a file carrying either magic is turned away at open with a
/// typed error that says so, not parsed and not called garbage.
#[test]
fn old_magics_are_a_typed_unsupported_error() {
    let path = tmp("oldmagic", 0);
    write_with(&path, &clustered_records(200, 50), 1 << 20);
    let mut bytes = std::fs::read(&path).expect("read");
    assert_eq!(&bytes[..8], b"NFSTRC3\0");
    for old in [b'1', b'2'] {
        bytes[6] = old;
        std::fs::write(&path, &bytes).expect("write");
        let err = StoreReader::open(&path).expect_err("an old layout must not open");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("unsupported store format")),
            "unexpected error: {err}"
        );
    }
    // Bytes that are no revision of this format stay a magic error.
    bytes[..8].copy_from_slice(b"RIFFWAVE");
    std::fs::write(&path, &bytes).expect("write");
    let err = StoreReader::open(&path).expect_err("not a store");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("bad leading magic")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A chunk header claiming more records than its payload could hold at
/// the codec's minimum record size is rejected before the reader
/// allocates decoded records for the claim — every checksum fixed up,
/// so the bound itself is what fires.
#[test]
fn record_count_beyond_the_payload_is_rejected_before_allocating() {
    // One record with no repetition to exploit: the chunk falls back
    // to raw, so its header can be patched in place.
    let mut record = TraceRecord::new(17, Op::Write, FileId(0x1234_5678)).with_range(1 << 33, 4099);
    record.reply_micros = 328;
    record.client = 0x5a5a;
    record.uid = 501;
    record.xid = 0x0fed_cba9;
    let path = tmp("hostilecount", 0);
    write_with(&path, &[record], 1 << 20);
    let meta = StoreReader::open(&path).expect("open").chunks()[0].clone();
    let mut bytes = std::fs::read(&path).expect("read");
    let at = meta.offset as usize;
    // flags (raw), empty name table, record count.
    assert_eq!(bytes[at..at + 3], [0, 0, 1], "a raw one-record chunk");

    // Inside the old bound (count ≤ payload bytes), far outside what
    // 15-byte records allow.
    let payload_len = meta.len - 1;
    let claim = payload_len - 4;
    assert!(claim < 128 && claim > payload_len / 15);
    bytes[at + 2] = claim as u8;
    let (entry_records, total_records) = (entry0_word(&bytes, 2), footer_offset(&bytes) + 8);
    patch_word(&mut bytes, entry_records, claim);
    patch_word(&mut bytes, total_records, claim);
    refresh_chunk0_checksum(&mut bytes, &meta);
    std::fs::write(&path, &bytes).expect("write");

    let reader = StoreReader::open(&path).expect("footer is consistent");
    let err = reader.read_chunk(0).expect_err("the count cannot fit");
    assert!(
        matches!(&err, StoreError::Format(m) if m.contains("a record takes at least 15")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A name-table count the payload has no room for is rejected before
/// the reader reserves a `String` per claimed name — by the full decode
/// and by the point query alike, every checksum fixed up so the bound
/// itself is what fires.
#[test]
fn name_count_beyond_the_payload_is_rejected_before_allocating() {
    let mut record = TraceRecord::new(17, Op::Write, FileId(0x1234_5678)).with_range(1 << 33, 4099);
    record.reply_micros = 328;
    record.client = 0x5a5a;
    record.uid = 501;
    record.xid = 0x0fed_cba9;
    let path = tmp("hostilenames", 0);
    write_with(&path, &[record], 1 << 20);
    let meta = StoreReader::open(&path).expect("open").chunks()[0].clone();
    let mut bytes = std::fs::read(&path).expect("read");
    let at = meta.offset as usize;
    // flags (raw), empty name table, record count.
    assert_eq!(bytes[at..at + 3], [0, 0, 1], "a raw one-record chunk");
    assert!(meta.len < 100, "100 names cannot fit");
    bytes[at + 1] = 100;
    refresh_chunk0_checksum(&mut bytes, &meta);
    std::fs::write(&path, &bytes).expect("write");

    let reader = StoreReader::open(&path).expect("footer is consistent");
    let left = meta.len - 2;
    let expected = format!("name table claims 100 names in {left} bytes");
    for err in [
        reader.read_chunk(0).expect_err("the names cannot fit"),
        reader
            .records_for_file(FileId(0x1234_5678))
            .expect_err("the names cannot fit"),
    ] {
        assert!(
            matches!(&err, StoreError::Format(m) if *m == expected),
            "unexpected error: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Every decoding read parses and checks the records it does not keep:
/// with a record of file B corrupted three ways, the query for file A
/// and the construction pass over a window holding only A, at 1 and 2
/// workers, fail exactly as the full decode of the chunk fails.
#[test]
fn a_corrupt_record_of_another_file_fails_the_query_as_it_fails_the_scan() {
    // Two records sharing no field value, so the chunk falls back to
    // raw and B's bytes — the chunk's tail — can be patched in place.
    let mut a = TraceRecord::new(1_000, Op::Read, FileId(0x0123_4567)).with_range(1 << 20, 513);
    a.reply_micros = 1_300;
    a.client = 0x0a01_0203;
    a.server = 0x0b04_0506;
    a.xid = 0x00c0_ffee;
    let mut b = TraceRecord::new(1_007, Op::Lookup, FileId(0x7654_3210)).with_name("q");
    b.reply_micros = 1_050;
    b.client = u32::MAX;
    b.server = 0x1c1d_1e1f;
    b.uid = 77;
    b.xid = 0x7eed_f00d;
    let path = tmp("corruptother", 0);
    write_with(&path, &[a.clone(), b.clone()], 1 << 20);
    let meta = StoreReader::open(&path).expect("open").chunks()[0].clone();
    let clean = std::fs::read(&path).expect("read");
    let (chunk_at, chunk_end) = (meta.offset as usize, (meta.offset + meta.len) as usize);
    assert_eq!(clean[chunk_at], 0, "a raw chunk");

    // B as the codec wrote it: time delta, reply delta and presence
    // flags (one byte each), op, version, then `client` — u32::MAX, a
    // five-byte varint ending 0x0f — … and the name index last.
    let mut encoded = Vec::new();
    nfstrace_store::codec::encode_record(
        &mut encoded,
        &b,
        a.micros,
        &mut nfstrace_store::codec::NameTable::new(),
    );
    let b_at = chunk_end - encoded.len();
    assert_eq!(clean[b_at..chunk_end], encoded[..], "B is the chunk's tail");
    assert_eq!(encoded[5..10], [0xff, 0xff, 0xff, 0xff, 0x0f]);
    assert_eq!(encoded[encoded.len() - 1], 0, "name index 0");

    let reader = StoreReader::open(&path).expect("open");
    assert_eq!(reader.records_for_file(a.fh).expect("clean"), [a.clone()]);

    let corruptions: [(usize, u8, &str); 3] = [
        (encoded.len() - 1, 5, "name index 5 out of range"),
        (3, Op::ALL.len() as u8, "unknown op byte"),
        (9, 0x1f, "u32 field out of range"),
    ];
    for (offset, byte, message) in corruptions {
        let mut bytes = clean.clone();
        bytes[b_at + offset] = byte;
        refresh_chunk0_checksum(&mut bytes, &meta);
        std::fs::write(&path, &bytes).expect("write");
        let reader = Arc::new(StoreReader::open(&path).expect("footer is consistent"));
        let scan = reader.read_chunk(0).expect_err("the scan must fail");
        let query = reader
            .records_for_file(a.fh)
            .expect_err("the query must fail");
        assert!(
            matches!(&scan, StoreError::Format(m) if m.contains(message)),
            "unexpected error: {scan}"
        );
        assert_eq!(query.to_string(), scan.to_string());
        for threads in [1, 2] {
            let readers = [reader.clone()];
            let window = nfstrace_store::build_partial_index(&readers, a.micros, b.micros, threads)
                .expect_err("the window's pass must fail");
            assert_eq!(window.to_string(), scan.to_string(), "threads={threads}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Presence-flag bits the codec does not define are an error, not
/// bits to ignore: a record whose flags varint carries bit 9 or bit 32
/// — every checksum fixed up — fails the full decode and the point
/// query with the same message.
#[test]
fn unknown_record_flags_fail_the_scan_and_the_query() {
    let mut r = TraceRecord::new(2_000, Op::Getattr, FileId(0x0246_8ace)).with_range(1 << 30, 777);
    r.reply_micros = 2_040;
    r.client = u32::MAX;
    r.server = 0x0c0d_0e0f;
    r.xid = 0x1bad_cafe;
    let path = tmp("badrecordflags", 0);
    write_with(&path, &[r.clone()], 1 << 20);
    let meta = StoreReader::open(&path).expect("open").chunks()[0].clone();
    let clean = std::fs::read(&path).expect("read");
    let chunk_end = (meta.offset + meta.len) as usize;
    assert_eq!(clean[meta.offset as usize], 0, "a raw chunk");

    // The record is the chunk's tail: time delta, reply delta, flags
    // (one byte, 0), op, version, then `client` as five bytes.
    let mut encoded = Vec::new();
    nfstrace_store::codec::encode_record(
        &mut encoded,
        &r,
        r.micros,
        &mut nfstrace_store::codec::NameTable::new(),
    );
    let at = chunk_end - encoded.len();
    assert_eq!(clean[at..chunk_end], encoded[..], "the record is the tail");
    assert_eq!(encoded[2], 0, "no optional field present");
    assert_eq!(encoded[5..10], [0xff, 0xff, 0xff, 0xff, 0x0f]);

    for flags in [1u64 << 9, 1 << 32] {
        // A longer flags varint, paid for by a shorter `client` (all
        // ones, the bytes the flags took over), so the chunk keeps its
        // length and every other field still parses.
        let mut patched = encoded[..2].to_vec();
        nfstrace_store::codec::write_varint(&mut patched, flags);
        let client_len = 10 - patched.len() - 2;
        patched.extend_from_slice(&encoded[3..5]);
        patched.extend(std::iter::repeat_n(0xff, client_len - 1));
        patched.push(0x7f);
        patched.extend_from_slice(&encoded[10..]);
        assert_eq!(patched.len(), encoded.len());

        let mut bytes = clean.clone();
        bytes[at..chunk_end].copy_from_slice(&patched);
        refresh_chunk0_checksum(&mut bytes, &meta);
        std::fs::write(&path, &bytes).expect("write");
        let reader = StoreReader::open(&path).expect("footer is consistent");
        let scan = reader.read_chunk(0).expect_err("the scan must fail");
        let query = reader
            .records_for_file(r.fh)
            .expect_err("the query must fail");
        assert!(
            matches!(&scan, StoreError::Format(m) if m.contains("unknown record flags")),
            "flags {flags:#x}: unexpected error: {scan}"
        );
        assert_eq!(query.to_string(), scan.to_string());
    }
    std::fs::remove_file(&path).ok();
}

/// The on-disk format, pinned byte for byte: three fixed records
/// through a 1-byte chunk target (one chunk each — a name table, the
/// raw fallback, three exact filters, the footer and trailer). Any
/// change to these bytes is a format change and needs a new magic.
/// (`mixed_compression_negotiates_per_chunk` covers the LZ form.)
#[test]
fn three_record_store_matches_the_golden_bytes() {
    const GOLDEN: &str = concat!(
        // magic
        "4e46535452433300",
        // chunk 0: raw flag, name table, count, first_micros, record
        "00010a696e626f782e6c6f636b01c0843d00e8024208030a00f50300effd0207",
        "00000000009221",
        // chunk 1: raw flag, name table, count, first_micros, record
        "000001d0873d00f4031007030a000000f0fd029221804080208020008060",
        // chunk 2: raw flag, name table, count, first_micros, record
        "00000180897a00ff91f401800206020000000000070080408040ffffffff0f",
        // footer: chunk_count, total_records
        "03000000000000000300000000000000",
        // entry 0: 8 words, exact filter
        "08000000000000002700000000000000010000000000000040420f0000000000",
        "40420f0000000000070000000000000007000000000000006cbab73e39953199",
        "01010000000700000000000000",
        // entry 1: 8 words, exact filter
        "2f000000000000001e000000000000000100000000000000d0430f0000000000",
        "d0430f0000000000921000000000000092100000000000005d81aabc383f4c3a",
        "01010000009210000000000000",
        // entry 2: 8 words, exact filter
        "4d000000000000001f00000000000000010000000000000080841e0000000000",
        "80841e0000000000070000000000000007000000000000007c6bc3743860ef70",
        "01010000000700000000000000",
        // footer checksum
        "8948b4855401c547",
        // trailer: footer_offset, end magic
        "6c000000000000004e46535452434500",
    );
    let mut create = TraceRecord::new(1_000_000, Op::Create, FileId(7)).with_name("inbox.lock");
    create.reply_micros = 1_000_180;
    create.client = 10;
    create.uid = 501;
    create.xid = 0xbeef;
    create.new_fh = Some(FileId(4242));
    let mut write = TraceRecord::new(1_000_400, Op::Write, FileId(4242))
        .with_range(8192, 4096)
        .with_post_size(12_288);
    write.reply_micros = 1_000_650;
    write.client = 10;
    write.xid = 0xbef0;
    let mut read = TraceRecord::new(2_000_000, Op::Read, FileId(7))
        .with_range(0, 8192)
        .with_eof(true);
    read.reply_micros = 0; // lost reply
    read.status = u32::MAX;
    read.vers = 2;
    let records = [create, write, read];

    let path = tmp("golden", 0);
    write_with(&path, &records, 1);
    let bytes = std::fs::read(&path).expect("read");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN, "the store format changed on disk");
    assert_eq!(read_all(&path).expect("read"), records);
    std::fs::remove_file(&path).ok();
}

/// Twenty-four mail-shaped records — a lock lookup, a read and a write
/// per round — small and repetitive enough to land in one LZ chunk.
fn lz_golden_records() -> Vec<TraceRecord> {
    (0..24u64)
        .map(|i| {
            let micros = 1_000_000 + i * 250;
            let mut r = match i % 3 {
                0 => TraceRecord::new(micros, Op::Lookup, FileId(7)).with_name("inbox.lock"),
                1 => TraceRecord::new(micros, Op::Read, FileId(4242)).with_range(i * 8192, 8192),
                _ => TraceRecord::new(micros, Op::Write, FileId(4242))
                    .with_range(i * 4096, 4096)
                    .with_post_size((i + 1) * 4096),
            };
            r.reply_micros = micros + 150;
            r.client = 10;
            r.uid = 501;
            r.xid = 0xbeef + i as u32;
            r
        })
        .collect()
}

/// A compressed chunk pinned byte for byte, as the LZ encoder wrote it
/// before its match search moved to a `u32` table, word-wide anchor
/// checks and eight-byte match extension: stores written then still
/// decode, and the encoder still writes exactly these bytes.
#[test]
fn lz_chunk_matches_the_golden_bytes() {
    const GOLDEN: &str = concat!(
        // magic
        "4e46535452433300",
        // chunk 0: LZ flag, raw length, then the compressed stream
        "01dc0420010a696e626f782e6c6f636b18c0843d00ac020203030a00f50300ef",
        "fd020700010006fa01ac020006150207f0fd0292218040020000180102100718",
        "0201f11803062080200080601a0000470401f2471001f32f01028002480d01f4",
        "190102a001490202c0011c00004a0401f54a1001f6310102c0034a0d01f71901",
        "0280024a0202a0021c00004a0401f84a1001f9310201054a0d01fa190101e04a",
        "030280031c00004a0401fb4a1001fc310102c0064a0d01fd190201034a0201e0",
        "4a0901fe4a1001ff31010280084a0d0280fe190002a0044a0202c0041c00004a",
        "040281fe4a0f0182310102c0094a0d018319010280054a0202a0051c00004a04",
        "01844a1001853102010b4a0d0186190101e04a03028006",
        // footer, its checksum and the trailer
        "0100000000000000180000000000000008000000000000001701000000000000",
        "180000000000000040420f0000000000b6580f00000000000700000000000000",
        "9210000000000000844f96c59c4395ca01020000000700000000000000921000",
        "0000000000116f8722e0c2d3d71f010000000000004e46535452434500",
    );
    let records = lz_golden_records();
    let golden: Vec<u8> = (0..GOLDEN.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).expect("hex"))
        .collect();
    assert_eq!(
        golden[8],
        nfstrace_store::format::FLAG_COMPRESSED,
        "the chunk is stored compressed"
    );
    let path = tmp("golden-lz", 0);
    std::fs::write(&path, &golden).expect("write");
    assert_eq!(read_all(&path).expect("decode"), records);

    write_with(&path, &records, 1 << 20);
    let bytes = std::fs::read(&path).expect("read");
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN, "the LZ encoder's output changed");
    std::fs::remove_file(&path).ok();
}
