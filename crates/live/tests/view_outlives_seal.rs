//! A view outlives the seal and the merge of every segment it reads.
//!
//! A view reads each segment through the file handle its reader
//! opened: the sealed segments', and the hot segment's — the chunks
//! its writer had flushed to the segment file, plus a copy of the
//! pending chunk's bytes. Behind the view the ingest goes on: the hot
//! segment seals and is renamed, and compaction merges the view's
//! segments away and deletes them. The view still replays, windows and
//! reads each of its segments exactly as it did when taken.

use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::DAY;
use nfstrace_live::{shard_for_client, LiveConfig, LiveIngest, ShardedLiveIngest, ShardedView};
use nfstrace_store::{CompactionPolicy, StoreConfig, StoreIndex, StoreReader};
use nfstrace_workload::{CampusConfig, CampusWorkload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// One chain of a view: its sealed segments, then its hot one.
type Chain<'a> = (&'a [Arc<StoreReader>], Option<&'a Arc<StoreReader>>);

/// The two views a live ingest takes, read as segment chains.
trait Chains: TraceView {
    fn segment_chains(&self) -> Vec<Chain<'_>>;
}

/// A single writer's view is one chain: its readers, the hot segment
/// (still under its growing `.tmp` name) last.
impl Chains for StoreIndex {
    fn segment_chains(&self) -> Vec<Chain<'_>> {
        let readers = self.readers();
        let hot = readers
            .last()
            .filter(|r| r.path().extension() == Some("tmp".as_ref()));
        vec![(&readers[..readers.len() - usize::from(hot.is_some())], hot)]
    }
}

impl Chains for ShardedView {
    fn segment_chains(&self) -> Vec<Chain<'_>> {
        self.chains()
            .iter()
            .map(|c| (c.sealed(), c.hot()))
            .collect()
    }
}

fn replay(view: &impl RecordStream) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    view.for_each_record(&mut |r| out.push(r.clone()));
    out
}

/// The view equals an in-memory index over `prefix`: its replay, two
/// windows cutting through it, and each chain's segments — `sealed`
/// sealed ones, then a hot one holding flushed chunks and a pending
/// one — which read back the records routed to the chain.
fn assert_view_is<V: Chains>(view: &V, prefix: &[TraceRecord], sealed: usize, ctx: &str) {
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
    let chains = view.segment_chains();
    for (i, &(sealed_segments, hot)) in chains.iter().enumerate() {
        let routed: Vec<TraceRecord> = prefix
            .iter()
            .filter(|r| shard_for_client(r.client, chains.len()) == i)
            .cloned()
            .collect();
        assert_eq!(sealed_segments.len(), sealed, "{ctx}: chain {i} sealed");
        let hot = hot.expect("a hot segment");
        assert!(hot.chunk_count() > 1, "{ctx}: chain {i} flushed no chunk");
        let mut held = Vec::new();
        for segment in sealed_segments.iter().chain([hot]) {
            segment
                .for_each(|r| held.push(r.clone()))
                .expect("a segment of the view");
        }
        assert_eq!(held, routed, "{ctx}: chain {i} records");
    }
}

/// Every name a view's segments can go by in their directories: each
/// sealed segment's, and the hot segment's growing and sealed names.
fn segment_names(view: &impl Chains) -> Vec<PathBuf> {
    let mut names = Vec::new();
    for (sealed, hot) in view.segment_chains() {
        names.extend(sealed.iter().map(|r| r.path().to_path_buf()));
        let growing = hot.expect("a hot segment").path();
        names.push(growing.to_path_buf());
        names.push(growing.with_extension(""));
    }
    names
}

/// Checks a view over `prefix` whose chains each read `sealed` sealed
/// segments and a hot one, before and after `more` ingests enough for
/// every one of them to be merged away — all their names gone.
fn check(prefix: &[TraceRecord], view: impl Chains, sealed: usize, more: impl FnOnce(), ctx: &str) {
    let names = segment_names(&view);
    assert_view_is(&view, prefix, sealed, &format!("{ctx}, before the merge"));
    more();
    for name in &names {
        assert!(
            !name.exists(),
            "{ctx}: {} was not merged away",
            name.display()
        );
    }
    assert_view_is(&view, prefix, sealed, &format!("{ctx}, after the merge"));
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
    check(&records[..seen], view, 0, more, "single writer");
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
    check(&records[..seen], view, 0, more, "2 shards");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

/// Whether every chain of `view` reads two sealed segments — at fan-in
/// 2, a merged pair and the segment sealed after it — and a hot one
/// that has flushed a chunk.
fn two_sealed_and_hot(view: &impl Chains) -> bool {
    view.segment_chains()
        .iter()
        .all(|(sealed, hot)| sealed.len() == 2 && hot.is_some_and(|hot| hot.chunk_count() > 1))
}

/// Feeds `records` to `step` a few at a time — it ingests them and
/// takes a view — until the view satisfies [`two_sealed_and_hot`];
/// returns that view and the records it covers.
fn view_over_two_sealed<V: Chains>(
    records: &[TraceRecord],
    mut step: impl FnMut(&[TraceRecord]) -> V,
) -> (V, usize) {
    for seen in (40..records.len()).step_by(40) {
        let view = step(&records[seen - 40..seen]);
        if two_sealed_and_hot(&view) {
            return (view, seen);
        }
    }
    panic!("no chain state with two sealed segments and a hot one");
}

#[test]
fn a_view_outlives_the_merge_of_its_sealed_segments() {
    let records = trace();
    let dir = tmpdir("outlive-sealed-single");
    let mut ingest = LiveIngest::create(config(&dir)).expect("create");
    let (view, seen) = view_over_two_sealed(&records, |batch| {
        for r in batch {
            ingest.ingest(r).expect("ingest");
        }
        ingest.view()
    });
    // The hot segment seals and merges with the last sealed one, and
    // that pair with the first.
    let total = seen + 2 * ROTATE as usize;
    let more = || {
        for r in &records[seen..total] {
            ingest.ingest(r).expect("ingest");
        }
        ingest.sealed_segments();
    };
    check(&records[..seen], view, 2, more, "single writer");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sharded_view_outlives_the_merge_of_its_sealed_segments() {
    let records = trace();
    let dir = tmpdir("outlive-sealed-sharded");
    let mut ingest = ShardedLiveIngest::create(config(&dir), 2).expect("create");
    let (view, seen) = view_over_two_sealed(&records, |batch| {
        ingest.ingest_batch(batch).expect("ingest");
        ingest.view()
    });
    let total = seen + 4 * ROTATE as usize;
    let more = || {
        ingest.ingest_batch(&records[seen..total]).expect("ingest");
        ingest.sealed_segments();
    };
    check(&records[..seen], view, 2, more, "2 shards");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}
