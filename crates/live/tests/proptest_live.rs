//! Property tests: live ingest ≡ batch, for arbitrary record streams ×
//! batch (slice) lengths × rotation thresholds × worker counts —
//! byte-identical segment files and identical `TraceView` products.

use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::runs::RunOptions;
use nfstrace_live::{LiveConfig, LiveIngest, RecordSource, ShardedLiveIngest};
use nfstrace_store::{StoreConfig, StoreIndex};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..2_000_000_000,
        0usize..Op::ALL.len(),
        0u64..200,
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

/// A [`RecordSource`] replaying a fixed record vector in fixed-size
/// batches — the arbitrary-slice-length stand-in.
struct ChunkedSource {
    records: Vec<TraceRecord>,
    at: usize,
    batch: usize,
}

impl RecordSource for ChunkedSource {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        if self.at >= self.records.len() {
            return false;
        }
        let end = (self.at + self.batch).min(self.records.len());
        out.extend_from_slice(&self.records[self.at..end]);
        self.at = end;
        true
    }
}

fn tmpdir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("nfstrace-live-proptests")
        .join(format!("{tag}-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn ingest_all(
    dir: &std::path::Path,
    records: &[TraceRecord],
    batch: usize,
    rotate_records: u64,
    rotate_micros: u64,
    chunk_bytes: usize,
) -> nfstrace_live::LiveSummary {
    ingest_all_compacting(
        dir,
        records,
        batch,
        rotate_records,
        rotate_micros,
        chunk_bytes,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn ingest_all_compacting(
    dir: &std::path::Path,
    records: &[TraceRecord],
    batch: usize,
    rotate_records: u64,
    rotate_micros: u64,
    chunk_bytes: usize,
    compaction: Option<nfstrace_store::CompactionPolicy>,
) -> nfstrace_live::LiveSummary {
    let mut ingest = LiveIngest::create(LiveConfig {
        dir: dir.to_path_buf(),
        store: StoreConfig {
            target_chunk_bytes: chunk_bytes,
        },
        rotate_records,
        rotate_micros,
        compaction,
        registry: Default::default(),
    })
    .expect("create ingest");
    let mut source = ChunkedSource {
        records: records.to_vec(),
        at: 0,
        batch,
    };
    ingest.run(&mut source).expect("run");
    ingest.finish().expect("finish")
}

fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read file"),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    /// For any record stream, batch length, rotation thresholds, and
    /// worker count: the segment files are byte-identical to a
    /// reference run (batching and threading must not leak into the
    /// bytes), the merged segment index equals the in-memory index,
    /// and a mid-stream live view equals the index over its prefix.
    #[test]
    fn live_ingest_equals_batch(
        mut records in proptest::collection::vec(arb_record(), 1..250),
        batch in 1usize..97,
        rotate_records in 8u64..120,
        rotate_micros in 1_000_000u64..2_000_000_000,
        chunk_bytes in 64usize..4096,
        threads in 1usize..5,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);

        // Reference: one-record batches, worker count 1.
        let ref_dir = tmpdir("ref", case);
        ingest_all(&ref_dir, &records, 1, rotate_records, rotate_micros, chunk_bytes);
        let reference = dir_bytes(&ref_dir);

        // Same stream, arbitrary batching: identical bytes on disk.
        let dir = tmpdir("case", case);
        let summary = ingest_all(&dir, &records, batch, rotate_records, rotate_micros, chunk_bytes);
        prop_assert_eq!(dir_bytes(&dir), reference);
        prop_assert_eq!(summary.total_records, records.len() as u64);
        prop_assert!(summary.peak_hot_records as u64 <= rotate_records);

        // The merged segment index equals the in-memory index — with
        // the construction pass run at an arbitrary worker count.
        let readers: Vec<_> = nfstrace_store::SegmentCatalog::open(&dir)
            .expect("catalog")
            .paths()
            .into_iter()
            .map(|p| std::sync::Arc::new(nfstrace_store::StoreReader::open(p).expect("open")))
            .collect();
        let merged = StoreIndex::from_readers_with_threads(readers, threads).expect("index");
        let mut back = Vec::new();
        merged.for_each_record(&mut |r| back.push(r.clone()));
        prop_assert_eq!(&back, &records);

        let mem = TraceIndex::new(records.clone());
        prop_assert_eq!(TraceView::len(&merged), TraceView::len(&mem));
        prop_assert_eq!(merged.summary(), mem.summary());
        prop_assert_eq!(merged.hourly(), mem.hourly());
        prop_assert_eq!(merged.accesses(7).as_ref(), mem.accesses(7).as_ref());
        prop_assert_eq!(
            merged.runs(7, RunOptions::default()).as_ref(),
            mem.runs(7, RunOptions::default()).as_ref()
        );
        prop_assert_eq!(merged.names(), mem.names());

        // Mid-stream: ingest a prefix, snapshot, compare to the prefix
        // index (sealed + hot both in play).
        let cut = records.len() / 2;
        let mid_dir = tmpdir("mid", case);
        let mut ingest = LiveIngest::create(LiveConfig {
            dir: mid_dir.clone(),
            store: StoreConfig {
                target_chunk_bytes: chunk_bytes,
            },
            rotate_records,
            rotate_micros,
            compaction: None,
            registry: Default::default(),
        })
        .expect("create");
        for r in &records[..cut] {
            ingest.ingest(r).expect("ingest");
        }
        let view = ingest.view();
        let prefix = TraceIndex::new(records[..cut].to_vec());
        prop_assert_eq!(TraceView::len(&view), TraceView::len(&prefix));
        prop_assert_eq!(view.summary(), prefix.summary());
        prop_assert_eq!(view.hourly(), prefix.hourly());
        prop_assert_eq!(view.accesses(7).as_ref(), prefix.accesses(7).as_ref());
        prop_assert_eq!(view.names(), prefix.names());
        ingest.finish().expect("finish");

        for d in [&ref_dir, &dir, &mid_dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

/// Records dense in time (many equal-timestamp ties) with the client
/// id drawn **independently** of the file id, so the same file is hit
/// from clients landing on different shards — the case where only the
/// arrival sequences can reconstruct the original interleave.
fn arb_tied_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..3_000,
        0usize..Op::ALL.len(),
        0u64..40,
        0u64..(1 << 20),
        0u32..5_000,
        0u32..24,
        proptest::option::of("[a-z0-9._-]{1,12}"),
    )
        .prop_map(|(micros, op_idx, fh, offset, count, client, name)| {
            let mut r = TraceRecord::new(micros, Op::ALL[op_idx], FileId(fh));
            r.reply_micros = micros + 1;
            r.client = client;
            r.xid = fh as u32 ^ (client << 8);
            r.offset = offset;
            r.count = count;
            r.ret_count = count / 2;
            r.name = name;
            r
        })
}

proptest! {
    /// For any record stream, shard count, batch length, and rotation
    /// thresholds: a sharded multi-writer ingest's merged view replays
    /// the exact original stream (equal-timestamp ties included) and
    /// its analysis products equal the in-memory index's — mid-ingest
    /// over sealed + hot, and again after sealing and reopening
    /// entirely from disk (sequence sidecars included). With a
    /// compaction fan-in, every chain compacts behind the ingest and
    /// splices its merged sidecars in.
    #[test]
    fn sharded_ingest_equals_single_writer_and_memory(
        mut records in proptest::collection::vec(arb_tied_record(), 1..250),
        shards in 1usize..5,
        batch in 1usize..97,
        rotate_records in 8u64..120,
        rotate_micros in 200u64..4_000_000,
        chunk_bytes in 64usize..4096,
        fan_in in proptest::option::of(2usize..5),
        case in 0u64..1_000_000,
    ) {
        // Stable sort: equal timestamps keep generation (arrival) order.
        records.sort_by_key(|r| r.micros);
        let dir = tmpdir("sharded", case);
        let config = || LiveConfig {
            dir: dir.clone(),
            store: StoreConfig {
                target_chunk_bytes: chunk_bytes,
            },
            rotate_records,
            rotate_micros,
            compaction: fan_in.map(|fan_in| nfstrace_store::CompactionPolicy { fan_in }),
            registry: Default::default(),
        };
        let mut ingest = ShardedLiveIngest::create(config(), shards).expect("create sharded");
        let mut source = ChunkedSource {
            records: records.clone(),
            at: 0,
            batch,
        };
        ingest.run(&mut source).expect("run");
        prop_assert_eq!(ingest.shard_count(), shards);
        prop_assert_eq!(ingest.total_records(), records.len() as u64);

        // Mid-ingest (pre-finish): sealed + hot per shard, merged on read.
        let view = ingest.view();
        let mut back = Vec::new();
        view.for_each_record(&mut |r| back.push(r.clone()));
        prop_assert_eq!(&back, &records);
        let mem = TraceIndex::new(records.clone());
        prop_assert_eq!(TraceView::len(&view), TraceView::len(&mem));
        prop_assert_eq!(view.summary(), mem.summary());
        prop_assert_eq!(view.hourly(), mem.hourly());
        prop_assert_eq!(view.accesses(7).as_ref(), mem.accesses(7).as_ref());
        prop_assert_eq!(
            view.runs(7, RunOptions::default()).as_ref(),
            mem.runs(7, RunOptions::default()).as_ref()
        );
        prop_assert_eq!(view.names(), mem.names());

        // Windowed merged replay (chunk skipping must keep the sequence
        // index aligned).
        let vw = view.time_window(700, 2_300);
        let mw = mem.time_window(700, 2_300);
        prop_assert_eq!(vw.summary(), mw.summary());
        prop_assert_eq!(vw.accesses(7).as_ref(), mw.accesses(7).as_ref());

        // Sealed + reopened: the same stream, now entirely from disk.
        // Each shard's hot tail stayed bounded by the rotation threshold.
        let summary = ingest.finish().expect("finish");
        prop_assert_eq!(summary.shards.len(), shards);
        for shard in &summary.shards {
            prop_assert!(shard.peak_hot_records as u64 <= rotate_records);
        }
        let mut reopened = ShardedLiveIngest::open(config()).expect("reopen");
        prop_assert_eq!(reopened.total_records(), records.len() as u64);
        let view = reopened.view();
        let mut back = Vec::new();
        view.for_each_record(&mut |r| back.push(r.clone()));
        prop_assert_eq!(&back, &records);
        prop_assert_eq!(view.summary(), mem.summary());
        prop_assert_eq!(view.accesses(7).as_ref(), mem.accesses(7).as_ref());

        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// The segment-lifecycle invariant: for any record stream ×
    /// rotation thresholds × compaction fan-in, the analysis suite
    /// over a compacted catalog is byte-identical to the uncompacted
    /// one — live mid-cascade views and from-disk reopens alike.
    #[test]
    fn compacted_catalog_is_byte_identical_to_uncompacted(
        mut records in proptest::collection::vec(arb_record(), 1..250),
        batch in 1usize..97,
        rotate_records in 8u64..60,
        rotate_micros in 1_000_000u64..500_000_000,
        chunk_bytes in 64usize..4096,
        fan_in in 2usize..5,
        case in 0u64..1_000_000,
    ) {
        records.sort_by_key(|r| r.micros);

        // Reference: the plain, never-compacted catalog.
        let plain_dir = tmpdir("nocompact", case);
        ingest_all(&plain_dir, &records, batch, rotate_records, rotate_micros, chunk_bytes);
        let plain = StoreIndex::open_dir(&plain_dir).expect("plain index");

        // Same stream with background compaction cascading behind the
        // ingest.
        let dir = tmpdir("compact", case);
        let policy = nfstrace_store::CompactionPolicy { fan_in };
        ingest_all_compacting(
            &dir, &records, batch, rotate_records, rotate_micros, chunk_bytes, Some(policy),
        );
        let catalog = nfstrace_store::SegmentCatalog::open(&dir).expect("catalog");
        prop_assert!(
            catalog.ids().windows(fan_in).all(|w| {
                !(w.iter().all(|id| id.generation == w[0].generation)
                    && w.windows(2).all(|p| p[0].hi + 1 == p[1].lo))
            }),
            "nothing ripe may remain after the cascade: {:?}",
            catalog.ids()
        );
        let compacted = StoreIndex::open_dir(&dir).expect("compacted index");
        let mut plain_records = Vec::new();
        plain.for_each_record(&mut |r| plain_records.push(r.clone()));
        let mut compacted_records = Vec::new();
        compacted.for_each_record(&mut |r| compacted_records.push(r.clone()));
        prop_assert_eq!(&compacted_records, &plain_records);
        prop_assert_eq!(&compacted_records, &records);
        prop_assert_eq!(compacted.summary(), plain.summary());
        prop_assert_eq!(compacted.hourly(), plain.hourly());
        prop_assert_eq!(compacted.accesses(7).as_ref(), plain.accesses(7).as_ref());
        prop_assert_eq!(
            compacted.runs(7, RunOptions::default()).as_ref(),
            plain.runs(7, RunOptions::default()).as_ref()
        );
        prop_assert_eq!(compacted.names(), plain.names());

        // A live ingest reopened over the compacted catalog continues
        // appending past the compacted ranges and sees every record.
        let mut reopened = LiveIngest::open(LiveConfig {
            dir: dir.clone(),
            store: StoreConfig { target_chunk_bytes: chunk_bytes },
            rotate_records,
            rotate_micros,
            compaction: Some(policy),
            registry: Default::default(),
        })
        .expect("reopen over compacted");
        prop_assert_eq!(reopened.total_records(), records.len() as u64);
        let view = reopened.view();
        let mut live_back = Vec::new();
        view.for_each_record(&mut |r| live_back.push(r.clone()));
        prop_assert_eq!(&live_back, &records);
        drop(reopened);

        for d in [&plain_dir, &dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}
