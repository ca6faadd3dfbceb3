//! The sharded write path's contract: a client router over plain
//! single-writer ingests, each shard an ordinary segment directory.

use nfstrace_core::index::{RecordStream, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{shard_for_client, LiveConfig, ShardedLiveIngest};
use nfstrace_store::{SegmentCatalog, StoreConfig, StoreError, StoreIndex};
use nfstrace_workload::{CampusConfig, CampusWorkload};
use std::path::Path;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-sharded-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sharded_cfg(dir: &Path) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 64 << 10,
        },
        rotate_records: 4_000,
        rotate_micros: 6 * HOUR,
        ..LiveConfig::new(dir)
    }
}

/// Every record the segment directory of shard `i` holds, in stream
/// order; none when no record was routed there and it sealed nothing.
fn shard_records(root: &Path, i: usize) -> Vec<TraceRecord> {
    let dir = root.join(format!("shard-{i:03}"));
    if SegmentCatalog::open(&dir).expect("catalog").is_empty() {
        return Vec::new();
    }
    let stored = StoreIndex::open_dir(&dir).expect("open shard");
    let mut out = Vec::with_capacity(stored.len());
    stored.for_each_record(&mut |r| out.push(r.clone()));
    out
}

/// After `finish`, each `shard-NNN` directory streams exactly the
/// input records routed to it, in input order, and the shards add up
/// to the input — at any shard count.
#[test]
fn each_shard_directory_streams_its_clients_records_in_input_order() {
    let input = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1);
    for shards in [1usize, 2, 4] {
        let dir = tmpdir(&format!("route-{shards}"));
        let mut ingest = ShardedLiveIngest::create(sharded_cfg(&dir), shards).expect("create");
        for batch in input.chunks(997) {
            ingest.ingest_batch(batch).expect("ingest");
        }
        let summaries = ingest.finish().expect("finish");
        assert_eq!(summaries.len(), shards);
        let mut total = 0;
        let mut used = 0;
        for (i, summary) in summaries.iter().enumerate() {
            let expected: Vec<TraceRecord> = input
                .iter()
                .filter(|r| shard_for_client(r.client, shards) == i)
                .cloned()
                .collect();
            assert_eq!(
                shard_records(&dir, i),
                expected,
                "{shards} shards: shard {i}"
            );
            assert_eq!(summary.total_records, expected.len() as u64);
            total += expected.len();
            used += usize::from(!expected.is_empty());
        }
        assert_eq!(total, input.len(), "{shards} shards: the shards add up");
        if shards > 1 {
            assert!(used > 1, "the clients must spread across {shards} shards");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A batch that travels back in time is refused whole, before any
/// shard is touched — including its in-order records ahead of the bad
/// one — and the router keeps ordering against what it accepted.
#[test]
fn an_out_of_order_batch_writes_no_shard() {
    let dir = tmpdir("order");
    assert!(ShardedLiveIngest::create(sharded_cfg(&dir), 0).is_err());
    let mut ingest = ShardedLiveIngest::create(sharded_cfg(&dir), 2).expect("create");
    let r = |micros, client| TraceRecord::new(micros, Op::Read, FileId(1)).with_client(client);
    // Clients on both shards.
    let first: Vec<TraceRecord> = (0..8).map(|c| r(1000 + u64::from(c), c)).collect();
    assert!((0..2).all(|i| first.iter().any(|r| shard_for_client(r.client, 2) == i)));
    ingest.ingest_batch(&first).expect("in order");

    let late = [r(3000, 0), r(3000, 1), r(1999, 2)];
    assert!(matches!(
        ingest.ingest_batch(&late),
        Err(StoreError::OutOfOrder {
            prev: 3000,
            next: 1999
        })
    ));
    assert!(matches!(
        ingest.ingest_batch(&[r(1006, 3)]),
        Err(StoreError::OutOfOrder {
            prev: 1007,
            next: 1006
        })
    ));
    ingest.ingest_batch(&[r(1007, 4)]).expect("ties continue");
    let summaries = ingest.finish().expect("finish");
    assert_eq!(
        summaries.iter().map(|s| s.total_records).sum::<u64>(),
        9,
        "the refused batches wrote nothing"
    );
    for i in 0..2 {
        let expected: Vec<TraceRecord> = first
            .iter()
            .chain([&r(1007, 4)])
            .filter(|r| shard_for_client(r.client, 2) == i)
            .cloned()
            .collect();
        assert_eq!(shard_records(&dir, i), expected, "shard {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
