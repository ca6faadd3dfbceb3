//! Property test: chunk-relocating compaction is invisible to readers.
//!
//! For arbitrary record streams × segment counts × `target_chunk_bytes`
//! × compression on/off × fan-in, cascading to generation ≥ 2, with and
//! without `.nfseq` sidecars: the compacted catalog's record stream,
//! sidecars, per-file query results and suite text equal the
//! uncompacted catalog's. Every merge is checked on the way: a
//! current-version source's footer entries reappear in the output
//! verbatim except for `offset`, and v1/v2 sources under the v3
//! compactor are decoded and re-encoded instead — counted as such —
//! while satisfying the same equalities.

use nfstrace_bench::suite::suite_text;
use nfstrace_core::index::RecordStream;
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::compact::{seal_segment, tmp_path, FaultInjector};
use nfstrace_store::{
    seqfile, ChunkMeta, CompactionPolicy, Compactor, Compression, SegmentCatalog, StoreConfig,
    StoreIndex, StoreReader, StoreVersion, StoreWriter,
};
use nfstrace_telemetry::Registry;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2_000_000_000,
        0usize..Op::ALL.len(),
        0u64..40,
        0u64..(1 << 30),
        0u32..70_000,
        proptest::option::of("[a-zA-Z0-9._#~ %=-]{1,16}"),
    )
        .prop_map(|(micros, op_idx, fh, offset, count, name)| {
            let mut r = TraceRecord::new(micros, Op::ALL[op_idx], FileId(fh));
            r.reply_micros = micros.wrapping_add(u64::from(count) % 997);
            r.client = (fh % 31) as u32;
            r.xid = fh as u32;
            r.offset = offset;
            r.count = count;
            r.ret_count = count / 2;
            r.name = name;
            r
        })
}

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nfstrace-compaction-equivalence")
        .join(format!("{tag}-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The arrival sequence stamped on stream position `i` (strictly
/// increasing, not the identity).
fn seq_of(i: usize) -> u64 {
    i as u64 * 3 + 1
}

/// Seals `records` as `configs.len()` base segments of near-equal
/// size, segment `s` written under `configs[s]`, sidecars when `track`.
fn seal_base_segments(dir: &Path, records: &[TraceRecord], configs: &[StoreConfig], track: bool) {
    let mut catalog = SegmentCatalog::open(dir).expect("open");
    let segs = configs.len();
    for (s, config) in configs.iter().enumerate() {
        let span = s * records.len() / segs..(s + 1) * records.len() / segs;
        let ordinal = catalog.next_ordinal();
        let dest = catalog.path_for(ordinal);
        let tmp = tmp_path(&dest);
        let mut w = StoreWriter::create(&tmp, *config).expect("create");
        for r in &records[span.clone()] {
            w.push(r).expect("push");
        }
        w.finish().expect("finish");
        let seqs: Vec<u64> = span.map(seq_of).collect();
        seal_segment(
            &tmp,
            &dest,
            track.then_some(seqs.as_slice()),
            &mut FaultInjector::none(),
        )
        .expect("seal");
        catalog.note_sealed(ordinal);
    }
}

/// What a reader of the catalog in `dir` can observe: the record
/// stream, the concatenated sidecars, every per-file query result and
/// the analysis suite's text.
#[derive(Debug, PartialEq)]
struct Observed {
    records: Vec<TraceRecord>,
    seqs: Option<Vec<u64>>,
    per_file: Vec<Vec<TraceRecord>>,
    suite: String,
}

fn observe(dir: &Path, track: bool) -> Observed {
    let index = StoreIndex::open_dir(dir).expect("open dir");
    let mut records = Vec::new();
    index.for_each_record(&mut |r| records.push(r.clone()));
    let seqs = track.then(|| {
        let catalog = SegmentCatalog::open(dir).expect("catalog");
        let mut all = Vec::new();
        for path in catalog.paths() {
            all.extend(seqfile::read_sidecar(&path).expect("sidecar"));
        }
        all
    });
    let per_file = (0..40)
        .map(|fh| index.file_records(FileId(fh)).expect("file query"))
        .collect();
    let suite = suite_text(&index, &index);
    Observed {
        records,
        seqs,
        per_file,
        suite,
    }
}

/// One merge checked against its sources (`(version, footer entries,
/// records)` each, in catalog order): a current-version source's
/// entries reappear verbatim but for `offset`; runs of other-version
/// sources were re-encoded into chunks that together hold exactly
/// their records and never straddle a relocated chunk.
fn check_merge(
    sources: &[(StoreVersion, Vec<ChunkMeta>, u64)],
    output: &StoreReader,
) -> Result<(), String> {
    let anywhere = |m: &ChunkMeta| ChunkMeta {
        offset: 0,
        ..m.clone()
    };
    let mut out = output.chunks().iter();
    let mut reencoded = 0u64;
    let settle =
        |out: &mut std::slice::Iter<'_, ChunkMeta>, owed: &mut u64| -> Result<(), String> {
            while *owed > 0 {
                let m = out.next().ok_or("output ran out of re-encoded chunks")?;
                prop_assert!(m.records <= *owed, "a re-encoded chunk straddles sources");
                *owed -= m.records;
            }
            Ok(())
        };
    for (version, chunks, records) in sources {
        if *version != StoreVersion::V3 {
            reencoded += records;
            continue;
        }
        settle(&mut out, &mut reencoded)?;
        for m in chunks {
            let moved = out.next().ok_or("output ran out of relocated chunks")?;
            prop_assert_eq!(anywhere(moved), anywhere(m));
        }
    }
    settle(&mut out, &mut reencoded)?;
    prop_assert!(
        out.next().is_none(),
        "output holds chunks no source explains"
    );
    Ok(())
}

proptest! {
    #[test]
    fn compaction_by_relocation_is_invisible_to_readers(
        mut records in proptest::collection::vec(arb_record(), 13..220),
        fan_in in 2usize..4,
        extra_segs in 0usize..4,
        chunk_bytes in 64usize..2048,
        source_chunk_bytes in 64usize..2048,
        compress in any::<bool>(),
        track in any::<bool>(),
        old_version in 0u8..3,
        old_quarters in 0usize..5,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        // Enough base segments for the cascade to reach generation 2.
        let segs = fan_in * fan_in + extra_segs;
        let compression = if compress { Compression::Lz } else { Compression::None };
        let current = StoreConfig {
            target_chunk_bytes: source_chunk_bytes,
            compression,
            version: StoreVersion::V3,
        };
        // A catalog begun under an older format: its first segments are
        // v1 or v2, the rest current.
        let old = match old_version {
            0 => StoreVersion::V3,
            1 => StoreVersion::V2,
            _ => StoreVersion::V1,
        };
        let old_upto = segs * old_quarters / 4;
        let configs: Vec<StoreConfig> = (0..segs)
            .map(|s| StoreConfig {
                version: if s < old_upto { old } else { StoreVersion::V3 },
                ..current
            })
            .collect();

        let plain = tmpdir("plain", case);
        seal_base_segments(&plain, &records, &configs, track);
        let work = tmpdir("work", case);
        seal_base_segments(&work, &records, &configs, track);

        // The cascade, one pass at a time so every merge can be held
        // against its sources.
        let registry = Registry::new();
        let compactor = Compactor::new(
            CompactionPolicy { fan_in },
            StoreConfig { target_chunk_bytes: chunk_bytes, ..current },
            &registry,
        );
        let mut catalog = SegmentCatalog::open_and_sweep(&work).expect("catalog");
        let (mut relocated, mut rewritten) = (0u64, 0u64);
        while let Some(output) = compactor.policy().plan(catalog.ids()) {
            let sources: Vec<(StoreVersion, Vec<ChunkMeta>, u64)> = catalog
                .ids()
                .iter()
                .filter(|id| output.contains(id))
                .map(|id| {
                    let r = StoreReader::open(catalog.path_of(id)).expect("open source");
                    (r.version(), r.chunks().to_vec(), r.total_records())
                })
                .collect();
            for (version, chunks, _) in &sources {
                if *version == StoreVersion::V3 {
                    relocated += chunks.len() as u64;
                } else {
                    rewritten += chunks.len() as u64;
                }
            }
            compactor
                .compact(&mut catalog, output, &mut FaultInjector::none())
                .expect("compact");
            let merged = StoreReader::open(catalog.path_of(&output)).expect("open output");
            prop_assert_eq!(merged.version(), StoreVersion::V3);
            check_merge(&sources, &merged)?;
        }
        let top = catalog.ids().iter().map(|id| id.generation).max();
        prop_assert!(top >= Some(2), "cascade stopped at generation {top:?}");
        prop_assert_eq!(
            registry.counter("store.compaction_chunks_relocated").value(),
            relocated
        );
        prop_assert_eq!(
            registry.counter("store.compaction_chunks_rewritten").value(),
            rewritten
        );
        if old == StoreVersion::V3 || old_upto == 0 {
            prop_assert!(relocated > 0 && rewritten == 0);
        } else {
            prop_assert!(rewritten > 0, "old-version sources must be re-encoded");
        }

        let compacted = observe(&work, track);
        prop_assert_eq!(&compacted.records, &records);
        prop_assert_eq!(
            compacted.seqs.as_ref(),
            track.then(|| (0..records.len()).map(seq_of).collect::<Vec<_>>()).as_ref()
        );
        prop_assert!(compacted == observe(&plain, track), "compacted catalog reads differently");

        for d in [&plain, &work] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}
