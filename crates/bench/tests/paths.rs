//! The pipeline's paths against one another, at the smallest scale:
//! what `repro --via store|live` (plain, compacting) renders
//! must be what `repro` renders, byte for byte — and on the way, what
//! only those paths can show: a live view queried mid-ingest equals
//! the batch trace windowed to the records so far, compaction relocates
//! chunks and the query planner prunes whole segments, and resident
//! records stay bounded.
//!
//! The fourth path (`--via serve`, 15 s in release) stays a CI smoke
//! beside `crates/serve/tests/e2e.rs`.

use nfstrace_bench::scenarios;
use nfstrace_bench::suite::suite_text;
use nfstrace_core::index::{TraceIndex, TraceView};
use nfstrace_core::time::DAY;
use nfstrace_live::LiveIngest;
use nfstrace_store::{CompactionPolicy, SegmentCatalog, StoreConfig};
use nfstrace_telemetry::Registry;
use nfstrace_workload::SlicedWorkload;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The smallest scale `repro` accepts.
const SCALE: f64 = 0.05;

/// The in-memory path, generated and rendered once for every case:
/// the reference text and the windowing oracle.
struct Reference {
    campus: TraceIndex,
    eecs: TraceIndex,
    text: String,
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (campus, eecs) = scenarios::eight_day_index_pair(SCALE);
        let text = suite_text(&campus, &eecs);
        Reference { campus, eecs, text }
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-paths-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn store_and_live_paths_render_the_in_memory_suite() {
    let want = &reference().text;
    let registry = Registry::new();

    let dir = tmpdir("store");
    let (campus, eecs) =
        scenarios::eight_day_store_pair(SCALE, &dir, StoreConfig::default()).expect("store path");
    assert!(suite_text(&campus, &eecs) == *want, "store path diverged");
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmpdir("live");
    let (campus, eecs) =
        scenarios::eight_day_live_pair(SCALE, &dir, None, &registry).expect("live path");
    assert!(suite_text(&campus, &eecs) == *want, "live path diverged");
    std::fs::remove_dir_all(&dir).ok();
}

/// The construction products and reorder-corrected accesses of a view
/// taken mid-ingest against the batch trace windowed to `boundary`.
fn assert_midpoint<V: TraceView>(name: &str, view: &V, oracle8: &TraceIndex, boundary: u64) {
    let window = oracle8.time_window(0, boundary);
    assert_eq!(view.len(), window.len(), "{name}: mid-ingest len");
    assert_eq!(
        view.summary(),
        window.summary(),
        "{name}: mid-ingest summary"
    );
    assert_eq!(view.hourly(), window.hourly(), "{name}: mid-ingest hourly");
    assert_eq!(
        view.accesses(10).as_ref(),
        window.accesses(10).as_ref(),
        "{name}: mid-ingest accesses"
    );
}

/// One system through the live ingest, driven slice by slice to day 4
/// and queried there, then run to the end.
fn check_midpoints(name: &str, slices_of: fn(f64) -> SlicedWorkload, oracle8: &TraceIndex) {
    let registry = Registry::new();
    let dir = tmpdir(&format!("midpoint-{name}"));

    // Sealed segments and a hot tail both populated.
    let config = scenarios::live_config(&dir, None, &registry);
    let mut ingest = LiveIngest::create(config).expect("create");
    let mut slices = slices_of(SCALE);
    while slices.emitted_to() < 4 * DAY {
        assert!(slices.next_slice_into(&mut ingest).expect("ingest slice"));
    }
    assert!(ingest.sealed_segments() > 0 && ingest.hot_len() > 0);
    assert_midpoint(name, &ingest.view(), oracle8, slices.emitted_to());

    // Then to the end: what was resident at once — the hot tail plus
    // the generator's slice — stays below the trace.
    ingest.run(&mut slices).expect("run");
    let summary = ingest.finish().expect("finish");
    assert_eq!(summary.total_records, oracle8.len() as u64);
    let peak_resident = summary.peak_hot_records + slices.peak_resident_records();
    assert!(
        (peak_resident as u64) < summary.total_records,
        "{name}: {peak_resident} records resident at peak, the trace holds {}",
        summary.total_records
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_ingest_views_equal_the_batch_trace_windowed_to_the_records_so_far() {
    check_midpoints("campus", scenarios::campus_slices, &reference().campus);
    check_midpoints("eecs", scenarios::eecs_slices, &reference().eecs);
}

#[test]
fn compacted_catalog_renders_the_same_suite_and_prunes_windows() {
    let want = &reference().text;
    let registry = Registry::new();
    let dir = tmpdir("compact");
    let policy = CompactionPolicy { fan_in: 3 };
    let (campus, eecs) =
        scenarios::eight_day_live_pair(SCALE, &dir, Some(policy), &registry).expect("live path");
    assert!(
        suite_text(&campus, &eecs) == *want,
        "compacting live path diverged"
    );

    // Compaction really ran, by moving verified chunks.
    let campus_dir = dir.join("campus-segments");
    let catalog = SegmentCatalog::open(&campus_dir).expect("reopen catalog");
    let max_generation = catalog.ids().iter().map(|id| id.generation).max();
    assert!(max_generation > Some(0), "only generation-0 segments left");
    assert!(registry.counter("store.compactions").value() > 0);
    assert!(
        registry
            .counter("store.compaction_chunks_relocated")
            .value()
            > 0
    );

    // The planner: a one-day window over the 8-day catalog dismisses
    // whole segments by footer time range and decodes strictly fewer
    // chunks than a full scan.
    let decoded = registry.counter("store.chunks_decoded");
    let pruned = registry.counter("store.segments_pruned");
    let d0 = decoded.value();
    let _full = campus.time_window(0, u64::MAX);
    let full_decodes = decoded.value() - d0;
    let (d1, p0) = (decoded.value(), pruned.value());
    let day = campus.time_window(2 * DAY, 3 * DAY);
    let day_decodes = decoded.value() - d1;
    assert!(pruned.value() > p0, "a one-day window pruned no segment");
    assert!(
        day_decodes < full_decodes,
        "one-day window decoded {day_decodes} chunks, a full scan {full_decodes}"
    );
    let oracle = reference().campus.time_window(2 * DAY, 3 * DAY);
    assert_eq!(TraceView::len(&day), TraceView::len(&oracle));
    std::fs::remove_dir_all(&dir).ok();
}
