//! Property test: chunk-relocating compaction is invisible to readers.
//!
//! For arbitrary record streams × segment counts × `target_chunk_bytes`
//! × fan-in, cascading to generation ≥ 2, with and without `.nfseq`
//! sidecars: the compacted catalog's record stream, sidecars, per-file
//! query results and suite text equal the uncompacted catalog's. Every
//! merge is checked on the way: each source's footer entries reappear
//! in the output verbatim except for `offset`, in catalog order, and
//! every one of them is counted as relocated.

use nfstrace_bench::suite::suite_text;
use nfstrace_core::index::RecordStream;
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::compact::{seal_segment, tmp_path, FaultInjector};
use nfstrace_store::{
    seqfile, ChunkMeta, CompactionPolicy, Compactor, SegmentCatalog, StoreConfig, StoreIndex,
    StoreReader, StoreWriter,
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

/// Seals `records` as `segs` base segments of near-equal size written
/// under `config`, sidecars when `track`.
fn seal_base_segments(
    dir: &Path,
    records: &[TraceRecord],
    segs: usize,
    config: StoreConfig,
    track: bool,
) {
    let mut catalog = SegmentCatalog::open(dir).expect("open");
    for s in 0..segs {
        let span = s * records.len() / segs..(s + 1) * records.len() / segs;
        let ordinal = catalog.next_ordinal();
        let dest = catalog.path_for(ordinal);
        let tmp = tmp_path(&dest);
        let mut w = StoreWriter::create(&tmp, config).expect("create");
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

/// One merge checked against its sources' footer entries (catalog
/// order): the output holds exactly those entries, verbatim but for
/// `offset`.
fn check_merge(sources: &[ChunkMeta], output: &StoreReader) -> Result<(), String> {
    let anywhere = |m: &ChunkMeta| ChunkMeta {
        offset: 0,
        ..m.clone()
    };
    prop_assert_eq!(
        output.chunks().iter().map(anywhere).collect::<Vec<_>>(),
        sources.iter().map(anywhere).collect::<Vec<_>>()
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
        track in any::<bool>(),
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);
        // Enough base segments for the cascade to reach generation 2.
        let segs = fan_in * fan_in + extra_segs;
        let source_config = StoreConfig { target_chunk_bytes: source_chunk_bytes };

        let plain = tmpdir("plain", case);
        seal_base_segments(&plain, &records, segs, source_config, track);
        let work = tmpdir("work", case);
        seal_base_segments(&work, &records, segs, source_config, track);

        // The cascade, one pass at a time so every merge can be held
        // against its sources.
        let registry = Registry::new();
        let compactor = Compactor::new(
            CompactionPolicy { fan_in },
            StoreConfig { target_chunk_bytes: chunk_bytes },
            &registry,
        );
        let mut catalog = SegmentCatalog::open_and_sweep(&work).expect("catalog");
        let mut relocated = 0u64;
        while let Some(output) = compactor.policy().plan(catalog.ids()) {
            let sources: Vec<ChunkMeta> = catalog
                .ids()
                .iter()
                .filter(|id| output.contains(id))
                .flat_map(|id| {
                    let r = StoreReader::open(catalog.path_of(id)).expect("open source");
                    r.chunks().to_vec()
                })
                .collect();
            relocated += sources.len() as u64;
            compactor
                .compact(&mut catalog, output, &mut FaultInjector::none())
                .expect("compact");
            let merged = StoreReader::open(catalog.path_of(&output)).expect("open output");
            check_merge(&sources, &merged)?;
        }
        let top = catalog.ids().iter().map(|id| id.generation).max();
        prop_assert!(top >= Some(2), "cascade stopped at generation {top:?}");
        prop_assert_eq!(
            registry.counter("store.compaction_chunks_relocated").value(),
            relocated,
            "every source chunk is relocated"
        );

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
