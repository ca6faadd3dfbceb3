//! A view outlives the seal of its hot segment.
//!
//! A view takes the hot segment as its writer holds it: the chunks
//! already flushed to the segment file, behind a read handle of the
//! view's own, and the pending chunk's bytes. Behind the view the
//! ingest goes on: the segment seals, is renamed, and compaction
//! merges it away and deletes it. The view still replays, windows and
//! hands out its hot records exactly as it did when taken.

use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::DAY;
use nfstrace_live::{shard_for_client, LiveConfig, LiveIngest, LiveView, ShardedLiveIngest};
use nfstrace_store::compact::tmp_path;
use nfstrace_store::segments::segment_file_name;
use nfstrace_store::{CompactionPolicy, StoreConfig};
use nfstrace_workload::{CampusConfig, CampusWorkload};
use std::path::{Path, PathBuf};

/// Records per chain before it rotates.
const ROTATE: u64 = 400;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Tiny chunks, so a hot segment holds flushed chunks and a pending
/// one; every two segments of a generation merge.
fn config(dir: &Path) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 1 << 10,
        },
        rotate_records: ROTATE,
        rotate_micros: u64::MAX,
        compaction: Some(CompactionPolicy { fan_in: 2 }),
        ..LiveConfig::new(dir)
    }
}

/// A CAMPUS day, its records spread over eight clients so that two
/// shards both get a share.
fn trace() -> Vec<TraceRecord> {
    let mut records = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1);
    for (i, r) in records.iter_mut().enumerate() {
        r.client = (i % 8) as u32;
    }
    records
}

fn replay(view: &impl RecordStream) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    view.for_each_record(&mut |r| out.push(r.clone()));
    out
}

/// The view, taken inside each chain's first segment, equals an
/// in-memory index over `prefix`: its replay, two windows cutting
/// through the hot records, and each chain's hot records — the records
/// routed to it.
fn assert_view_is(view: &LiveView, prefix: &[TraceRecord], ctx: &str) {
    let oracle = TraceIndex::new(prefix.to_vec());
    assert_eq!(replay(view), prefix, "{ctx}: replay");
    assert_eq!(view.summary(), oracle.summary(), "{ctx}: summary");
    let at = |share: usize| prefix[share * (prefix.len() - 1) / 4].micros;
    for (start, end) in [(at(1), at(3)), (at(2), u64::MAX)] {
        let (vw, ow) = (view.time_window(start, end), oracle.time_window(start, end));
        assert!(ow.len() > 0, "{ctx}: window [{start}, {end}) is empty");
        assert_eq!(replay(&vw), replay(&ow), "{ctx}: window [{start}, {end})");
        assert_eq!(vw.summary(), ow.summary(), "{ctx}: window summary");
        assert_eq!(vw.hourly(), ow.hourly(), "{ctx}: window hourly");
    }
    let shards = view.chains().len();
    for (i, chain) in view.chains().iter().enumerate() {
        let routed: Vec<TraceRecord> = prefix
            .iter()
            .filter(|r| shard_for_client(r.client, shards) == i)
            .cloned()
            .collect();
        assert!(chain.sealed().is_empty(), "{ctx}: chain {i} sealed");
        assert_eq!(chain.hot(), routed, "{ctx}: chain {i} hot");
    }
}

/// Checks a view over `prefix`, taken while every chain writes its
/// first segment, before and after `more` ingests enough for that
/// segment to seal and merge away — both its names gone from `dir`.
fn check(dir: &Path, prefix: &[TraceRecord], view: LiveView, more: impl FnOnce(), ctx: &str) {
    let shards = view.chains().len();
    let first: Vec<PathBuf> = (0..shards)
        .map(|shard| {
            let chain_dir = if shards == 1 {
                dir.to_path_buf()
            } else {
                dir.join(format!("shard-{shard:03}"))
            };
            chain_dir.join(segment_file_name(0))
        })
        .collect();
    for segment in &first {
        let growing = tmp_path(segment);
        let len = std::fs::metadata(&growing).expect("the hot segment").len();
        assert!(
            len > 1 << 10,
            "{ctx}: {} flushed {len} bytes",
            growing.display()
        );
    }
    assert_view_is(&view, prefix, &format!("{ctx}, before the seal"));
    more();
    for segment in &first {
        assert!(
            !segment.exists() && !tmp_path(segment).exists(),
            "{ctx}: {} was not merged away",
            segment.display()
        );
    }
    assert_view_is(&view, prefix, &format!("{ctx}, after the merge"));
}

#[test]
fn a_view_outlives_the_seal_and_merge_of_its_hot_segment() {
    let records = trace();
    // Half a segment seen; then it seals, the next one too, and the
    // two merge.
    let (seen, total) = (ROTATE as usize / 2, 5 * ROTATE as usize / 2);
    let dir = tmpdir("outlive-single");
    let mut ingest = LiveIngest::create(config(&dir)).expect("create");
    for r in &records[..seen] {
        ingest.ingest(r).expect("ingest");
    }
    let view = ingest.view();
    let more = || {
        for r in &records[seen..total] {
            ingest.ingest(r).expect("ingest");
        }
        ingest.sealed_segments();
    };
    check(&dir, &records[..seen], view, more, "single writer");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sharded_view_outlives_the_seal_and_merge_of_its_hot_segments() {
    let records = trace();
    // About half a segment a chain seen, then at least two more each.
    let (seen, total) = (ROTATE as usize, 8 * ROTATE as usize);
    let dir = tmpdir("outlive-sharded");
    let mut ingest = ShardedLiveIngest::create(config(&dir), 2).expect("create");
    ingest.ingest_batch(&records[..seen]).expect("ingest");
    let view = ingest.view();
    let more = || {
        ingest.ingest_batch(&records[seen..total]).expect("ingest");
        ingest.sealed_segments();
    };
    check(&dir, &records[..seen], view, more, "2 shards");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}
