//! Live-ingest reproduction: generate the suite's 8-day traces through
//! the bounded-memory live pipeline (time-sliced simulation →
//! rotating segment ingest), query a [`nfstrace_live::LiveView`]
//! mid-ingest, then print the full table/figure suite over the merged
//! segment directories.
//!
//! Stdout is **byte-identical** to `repro --store` at the same
//! `NFSTRACE_SCALE` — the CI `live-smoke` job `cmp`s exactly that —
//! because the live path ingests bit-identical record streams and the
//! suite itself is shared (`nfstrace_bench::suite`). Internally this
//! bin additionally asserts:
//!
//! - mid-ingest `LiveView` products equal the batch store index
//!   windowed to the records ingested so far;
//! - the merged segment `StoreIndex` prints the same suite text as the
//!   batch `--store` path;
//! - peak resident record counts stay bounded by the slice and
//!   rotation thresholds (reported on stderr; the benchmark's
//!   `live.peak_hot_records` row is described in `nfsbench/README.md`).
//!
//! With `--shards <n>` the same traces run through the sharded
//! multi-writer daemon ([`nfstrace_live::ShardedLiveIngest`]) instead:
//! records split by client hash across `n` independent writers and the
//! suite runs over the merged mid-ingest view — still byte-identical
//! to `repro --store` (the CI job `cmp`s shard counts 1, 2, and 4
//! against the batch output).
//!
//! With `--metrics <path>` the whole live pipeline — ingest daemons,
//! segment writers/readers, and every view the suite queries — reports
//! into one shared telemetry [`Registry`], exported periodically as
//! JSON lines to `<path>` (plus Prometheus text exposition to
//! `<path>.prom`) and dumped once to **stderr** at exit. Stdout is
//! untouched: the byte-identity `cmp` against `repro --store` holds
//! with telemetry on or off (a tier-1 test pins that).
//!
//! With `--compact <fan_in>` the single-writer daemons compact on the
//! fly: every rotation merges ripe runs of `fan_in` adjacent sealed
//! segments into generation-tagged segments
//! ([`nfstrace_store::Compactor`]), cascading up the generations —
//! by relocating verified chunks, which the bin asserts
//! (`store.compaction_chunks_relocated > 0`). The
//! suite over the compacted catalogs must stay byte-identical, the bin
//! asserts the footer-pruning query planner dismisses whole segments
//! on a windowed query (`store.segments_pruned > 0`) while decoding
//! strictly fewer chunks than a full scan, and `--retain <bytes>` then
//! applies a size-budget retention pass that archives the oldest
//! segments into `<dir>/archive` — with the archived ∪ retained union
//! re-printing the same suite bytes.
//!
//! Usage: `live [--dir <dir>] [--shards <n>] [--compact <fan_in>]
//! [--retain <bytes>] [--metrics <path>] [--metrics-interval <secs>]`
//! (default: a per-process temp dir, removed on success; single-writer
//! daemon; no compaction; no metrics export).

use nfstrace_bench::suite::{peak_rss_kb, suite_text};
use nfstrace_bench::{scale, scenarios};
use nfstrace_core::index::TraceView;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{LiveConfig, LiveIngest, LiveView, ShardedLiveIngest};
use nfstrace_store::{
    CompactionPolicy, RetentionPolicy, SegmentCatalog, StoreConfig, StoreIndex, StoreReader,
};
use nfstrace_telemetry::{Exporter, ExporterConfig, Registry, Snapshot};
use nfstrace_workload::SlicedWorkload;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Simulated time per generation slice.
const SLICE_MICROS: u64 = 6 * HOUR;

/// Rotation: seal segments daily (or at half a million records), with
/// optional in-line compaction at the requested fan-in.
fn live_config(dir: &Path, registry: &Registry, compact: Option<usize>) -> LiveConfig {
    LiveConfig {
        store: StoreConfig::default(),
        rotate_records: 500_000,
        rotate_micros: DAY,
        compaction: compact.map(|fan_in| CompactionPolicy { fan_in }),
        ..LiveConfig::new(dir)
    }
    .with_registry(registry)
}

/// The exit-time pipeline-health dump (stderr only): every counter and
/// gauge, plus count/mean for every histogram with samples.
fn dump_metrics(snapshot: &Snapshot) {
    eprintln!("pipeline metrics:");
    for (name, v) in &snapshot.counters {
        eprintln!("  {name} = {v}");
    }
    for (name, v) in &snapshot.gauges {
        eprintln!("  {name} = {v:.6}");
    }
    for (name, h) in &snapshot.histograms {
        if h.count > 0 {
            eprintln!("  {name}: count={} mean={:.1}us", h.count, h.mean());
        }
    }
}

/// The mid-ingest consistency check both daemons run: the live view's
/// construction products and reorder-corrected accesses must equal
/// `oracle8` windowed to the records ingested so far (`boundary`).
fn assert_midpoint(name: &str, view: &LiveView, oracle8: &StoreIndex, boundary: u64) {
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

/// Ingests `sliced` to exhaustion; at the first slice boundary at or
/// past `check_at` (mid-ingest, hot + sealed both populated), asserts
/// the live view equals `oracle8` windowed to the records so far.
fn ingest_with_midpoint_check(
    name: &str,
    mut sliced: SlicedWorkload,
    dir: &Path,
    oracle8: &StoreIndex,
    check_at: u64,
    registry: &Registry,
    compact: Option<usize>,
) -> (nfstrace_live::LiveSummary, usize) {
    let mut ingest = LiveIngest::create(live_config(dir, registry, compact))
        .unwrap_or_else(|e| panic!("{name}: create ingest: {e}"));
    // The sink path bypasses `LiveIngest::run`, so sample the batch
    // latency per generation slice here.
    let batch_micros = registry.histogram("live.batch_micros");
    let mut checked = false;
    let mut peak_slice = 0u64;
    let mut before = 0u64;
    while {
        let _span = nfstrace_telemetry::span!(batch_micros);
        sliced
            .next_slice_into(&mut ingest)
            .unwrap_or_else(|e| panic!("{name}: ingest slice: {e}"))
    } {
        peak_slice = peak_slice.max(ingest.total_records() - before);
        before = ingest.total_records();
        let boundary = sliced.emitted_to();
        if !checked && boundary >= check_at {
            checked = true;
            let view = ingest.view();
            assert_midpoint(name, &view, oracle8, boundary);
            eprintln!(
                "  {name}: mid-ingest check at {:.1} days — {} records ({} sealed segments, {} hot), consistent",
                boundary as f64 / DAY as f64,
                view.len(),
                ingest.sealed_segments(),
                ingest.hot_len(),
            );
        }
    }
    assert!(checked, "{name}: the mid-ingest checkpoint never ran");
    let gen_peak = sliced.peak_resident_records();
    let mut summary = ingest
        .finish()
        .unwrap_or_else(|e| panic!("{name}: finish: {e}"));
    // The sink path bypasses `LiveIngest::run`, so fill the batch peak
    // from the per-slice deltas observed here.
    summary.peak_batch_records = summary.peak_batch_records.max(peak_slice as usize);
    (summary, gen_peak)
}

/// Like [`ingest_with_midpoint_check`], but through the sharded
/// multi-writer daemon. Returns the still-open ingest (the suite runs
/// over its merged mid-ingest view) plus the generator's resident peak.
#[allow(clippy::too_many_arguments)]
fn ingest_sharded_with_midpoint_check(
    name: &str,
    mut sliced: SlicedWorkload,
    dir: &Path,
    oracle8: &StoreIndex,
    check_at: u64,
    shards: usize,
    registry: &Registry,
    compact: Option<usize>,
) -> (ShardedLiveIngest, usize) {
    let mut ingest = ShardedLiveIngest::create(live_config(dir, registry, compact), shards)
        .unwrap_or_else(|e| panic!("{name}: create sharded ingest: {e}"));
    let mut checked = false;
    let mut batch: Vec<TraceRecord> = Vec::new();
    loop {
        batch.clear();
        if !sliced
            .next_slice_into(&mut batch)
            .unwrap_or_else(|e| panic!("{name}: generate slice: {e}"))
        {
            break;
        }
        ingest
            .ingest_batch(&batch)
            .unwrap_or_else(|e| panic!("{name}: ingest batch: {e}"));
        let boundary = sliced.emitted_to();
        if !checked && boundary >= check_at {
            checked = true;
            let view = ingest.view();
            assert_midpoint(&format!("{name}/{shards} shards"), &view, oracle8, boundary);
            eprintln!(
                "  {name}: mid-ingest check at {:.1} days — {} records across {} shards \
                 ({} sealed segments, {} hot), consistent",
                boundary as f64 / DAY as f64,
                view.len(),
                shards,
                ingest.sealed_segments(),
                ingest.hot_len(),
            );
        }
    }
    assert!(checked, "{name}: the mid-ingest checkpoint never ran");
    let gen_peak = sliced.peak_resident_records();
    (ingest, gen_peak)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<std::path::PathBuf> = None;
    let mut shards: Option<usize> = None;
    let mut compact: Option<usize> = None;
    let mut retain: Option<u64> = None;
    let mut metrics: Option<std::path::PathBuf> = None;
    let mut metrics_interval = Duration::from_secs(10);
    let usage = || -> ! {
        eprintln!(
            "usage: live [--dir <dir>] [--shards <n>] [--compact <fan_in>] [--retain <bytes>] \
             [--metrics <path>] [--metrics-interval <secs>]"
        );
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => {
                dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--shards" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if n == 0 {
                    usage();
                }
                shards = Some(n);
            }
            "--compact" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if n < 2 {
                    usage();
                }
                compact = Some(n);
            }
            "--retain" => {
                retain = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--metrics" => {
                metrics = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--metrics-interval" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                metrics_interval = Duration::from_secs(secs.max(1));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if retain.is_some() && shards.is_some() {
        eprintln!("--retain applies to the single-writer segment catalogs only");
        usage();
    }
    let cleanup = dir.is_none();
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nfstrace-live-bin-{}", std::process::id()))
    });
    let s = scale();
    let threads = nfstrace_core::parallel::threads();

    // One registry for the whole pipeline; the exporter thread renders
    // it to the JSONL/Prometheus files while the ingest runs.
    let registry = Registry::new();
    let exporter = metrics.as_ref().map(|path| {
        let mut prom = path.clone().into_os_string();
        prom.push(".prom");
        Exporter::spawn(
            registry.clone(),
            ExporterConfig {
                interval: metrics_interval,
                jsonl_path: Some(path.clone()),
                prometheus_path: Some(prom.into()),
                stderr: false,
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot start metrics exporter at {}: {e}", path.display());
            std::process::exit(1);
        })
    });

    // The batch oracle: the same 8-day traces streamed into single
    // store files (the `repro --store` path).
    eprintln!("generating the batch-path store pair at scale {s} ...");
    let batch_dir = dir.join("batch");
    let (campus_b, eecs_b) = scenarios::eight_day_store_pair(s, &batch_dir, StoreConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("batch store pipeline failed: {e}");
            std::process::exit(1);
        });

    // The live path: time-sliced generation → rotating segment ingest,
    // with a consistency check mid-ingest.
    let campus_dir = dir.join("campus-segments");
    let eecs_dir = dir.join("eecs-segments");
    let live_text = if let Some(shards) = shards {
        eprintln!(
            "sharded-live-ingesting the same traces ({SLICE_MICROS}us slices, daily rotation, \
             {shards} shards) ..."
        );
        let (campus_i, campus_gen_peak) = ingest_sharded_with_midpoint_check(
            "CAMPUS",
            SlicedWorkload::campus(
                scenarios::campus_config(8, s, scenarios::CAMPUS_SEED),
                SLICE_MICROS,
                threads,
            ),
            &campus_dir,
            &campus_b,
            4 * DAY,
            shards,
            &registry,
            compact,
        );
        let (eecs_i, eecs_gen_peak) = ingest_sharded_with_midpoint_check(
            "EECS",
            SlicedWorkload::eecs(
                scenarios::eecs_config(8, s, scenarios::EECS_SEED),
                SLICE_MICROS,
                threads,
            ),
            &eecs_dir,
            &eecs_b,
            4 * DAY,
            shards,
            &registry,
            compact,
        );
        eprintln!(
            "  segments: CAMPUS {} ({} records), EECS {} ({} records)",
            campus_i.sealed_segments(),
            campus_i.total_records(),
            eecs_i.sealed_segments(),
            eecs_i.total_records(),
        );
        // The suite runs over the *merged mid-ingest views* — sealed
        // segments plus every shard's hot tail, k-way merged on arrival
        // sequence.
        eprintln!("running the suite over the merged shard views ...");
        let live_text = suite_text(&campus_i.view(), &eecs_i.view());

        // The bounded-memory observables, per shard.
        let total = campus_i.total_records() + eecs_i.total_records();
        let hot_peaks = |i: &ShardedLiveIngest| -> Vec<usize> {
            i.shards().iter().map(|s| s.peak_hot_records()).collect()
        };
        let sum_peaks: usize = hot_peaks(&campus_i)
            .iter()
            .sum::<usize>()
            .max(hot_peaks(&eecs_i).iter().sum());
        eprintln!(
            "live-memory-sharded: shards={shards} total_records={total} \
             campus_per_shard_peak_hot={:?} eecs_per_shard_peak_hot={:?} \
             peak_slice_records={} gen_peak_resident_records={} peak_rss_kb={} cpus={}",
            hot_peaks(&campus_i),
            hot_peaks(&eecs_i),
            campus_i
                .peak_batch_records()
                .max(eecs_i.peak_batch_records()),
            campus_gen_peak.max(eecs_gen_peak),
            peak_rss_kb().unwrap_or(0),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        let peak_resident = sum_peaks + campus_gen_peak.max(eecs_gen_peak);
        assert!(
            (peak_resident as u64) < total.max(1),
            "peak resident records ({peak_resident}) must stay below the trace size ({total})"
        );
        campus_i
            .finish()
            .unwrap_or_else(|e| panic!("CAMPUS: finish: {e}"));
        eecs_i
            .finish()
            .unwrap_or_else(|e| panic!("EECS: finish: {e}"));
        live_text
    } else {
        eprintln!("live-ingesting the same traces ({SLICE_MICROS}us slices, daily rotation) ...");
        let (campus_sum, campus_gen_peak) = ingest_with_midpoint_check(
            "CAMPUS",
            SlicedWorkload::campus(
                scenarios::campus_config(8, s, scenarios::CAMPUS_SEED),
                SLICE_MICROS,
                threads,
            ),
            &campus_dir,
            &campus_b,
            4 * DAY,
            &registry,
            compact,
        );
        let (eecs_sum, eecs_gen_peak) = ingest_with_midpoint_check(
            "EECS",
            SlicedWorkload::eecs(
                scenarios::eecs_config(8, s, scenarios::EECS_SEED),
                SLICE_MICROS,
                threads,
            ),
            &eecs_dir,
            &eecs_b,
            4 * DAY,
            &registry,
            compact,
        );

        // Merged segment indices must print the exact batch suite.
        eprintln!(
            "  segments: CAMPUS {} ({} records), EECS {} ({} records)",
            campus_sum.segments,
            campus_sum.total_records,
            eecs_sum.segments,
            eecs_sum.total_records
        );
        let campus_l =
            StoreIndex::open_dir_with_registry(&campus_dir, &registry).unwrap_or_else(|e| {
                eprintln!("open campus segments: {e}");
                std::process::exit(1);
            });
        let eecs_l = StoreIndex::open_dir_with_registry(&eecs_dir, &registry).unwrap_or_else(|e| {
            eprintln!("open eecs segments: {e}");
            std::process::exit(1);
        });
        eprintln!("running the suite over the live segments ...");
        let live_text = suite_text(&campus_l, &eecs_l);

        // The bounded-memory observables (stderr, machine-greppable).
        let total = campus_sum.total_records + eecs_sum.total_records;
        let peak_resident = campus_sum.peak_hot_records.max(eecs_sum.peak_hot_records)
            + campus_gen_peak.max(eecs_gen_peak);
        eprintln!(
            "live-memory: total_records={total} peak_hot_records={} peak_slice_records={} \
             gen_peak_resident_records={} peak_rss_kb={} cpus={}",
            campus_sum.peak_hot_records.max(eecs_sum.peak_hot_records),
            campus_sum
                .peak_batch_records
                .max(eecs_sum.peak_batch_records),
            campus_gen_peak.max(eecs_gen_peak),
            peak_rss_kb().unwrap_or(0),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        assert!(
            (peak_resident as u64) < total.max(1),
            "peak resident records ({peak_resident}) must stay below the trace size ({total})"
        );

        if compact.is_some() {
            // Compaction really ran: the catalog holds generation-tagged
            // merges and the daemon counted them.
            let catalog = SegmentCatalog::open(&campus_dir).unwrap_or_else(|e| {
                eprintln!("reopen campus catalog: {e}");
                std::process::exit(1);
            });
            let max_gen = catalog
                .ids()
                .iter()
                .map(|id| id.generation)
                .max()
                .unwrap_or(0);
            assert!(
                max_gen > 0,
                "forced compaction left only generation-0 segments"
            );
            let compactions = registry.counter("store.compactions").value();
            assert!(compactions > 0, "store.compactions never fired");
            // Every merge moved verified chunks.
            let relocated = registry
                .counter("store.compaction_chunks_relocated")
                .value();
            assert!(relocated > 0, "compaction relocated no chunks");

            // The planner acceptance: a one-day window over the 8-day
            // catalog must dismiss whole segments by footer time range
            // and decode strictly fewer chunks than a full scan.
            let decoded = registry.counter("store.chunks_decoded");
            let pruned = registry.counter("store.segments_pruned");
            let d0 = decoded.value();
            let full = campus_l.time_window(0, u64::MAX);
            let full_decodes = decoded.value() - d0;
            let p0 = pruned.value();
            let d1 = decoded.value();
            let day = campus_l.time_window(2 * DAY, 3 * DAY);
            let window_decodes = decoded.value() - d1;
            let window_pruned = pruned.value() - p0;
            assert!(
                window_pruned > 0,
                "a one-day window must prune whole segments by footer time range"
            );
            assert!(
                window_decodes < full_decodes,
                "windowed query decoded {window_decodes} chunks, full scan {full_decodes}"
            );
            assert_eq!(
                TraceView::len(&day),
                TraceView::len(&campus_b.time_window(2 * DAY, 3 * DAY)),
                "pruned windowed query must match the batch oracle"
            );
            drop(full);
            eprintln!(
                "  compaction: campus catalog {} segments (max generation {max_gen}), \
                 {compactions} compactions relocating {relocated} chunks; day window decoded {window_decodes}/{full_decodes} \
                 chunks, pruned {window_pruned} segments",
                catalog.len(),
            );
        }

        // Retention: archive the oldest segments down to the byte
        // budget, then prove nothing was lost — the archived ∪ retained
        // union must re-print the exact suite bytes.
        if let Some(cap) = retain {
            let open_reader = |path: &Path| -> Arc<StoreReader> {
                Arc::new(StoreReader::open(path).unwrap_or_else(|e| {
                    eprintln!("reopen segment for the retention union: {e}");
                    std::process::exit(1);
                }))
            };
            let mut union_pair = Vec::new();
            for (name, seg_dir) in [("CAMPUS", &campus_dir), ("EECS", &eecs_dir)] {
                let mut catalog = SegmentCatalog::open_and_sweep(seg_dir).unwrap_or_else(|e| {
                    eprintln!("{name}: reopen catalog for retention: {e}");
                    std::process::exit(1);
                });
                let before = catalog.len();
                let archive = seg_dir.join("archive");
                let policy = RetentionPolicy {
                    max_total_bytes: Some(cap),
                    max_age_micros: None,
                    archive_dir: Some(archive.clone()),
                };
                let retired =
                    nfstrace_store::compact::apply_retention(&mut catalog, &policy, &registry)
                        .unwrap_or_else(|e| {
                            eprintln!("{name}: retention: {e}");
                            std::process::exit(1);
                        });
                eprintln!(
                    "  retention: {name} archived {} of {before} segments under the {cap}-byte budget",
                    retired.len()
                );
                let mut readers: Vec<Arc<StoreReader>> = Vec::new();
                if archive.is_dir() {
                    let archived = SegmentCatalog::open(&archive).unwrap_or_else(|e| {
                        eprintln!("{name}: open archive: {e}");
                        std::process::exit(1);
                    });
                    readers.extend(archived.paths().iter().map(|p| open_reader(p)));
                }
                readers.extend(catalog.paths().iter().map(|p| open_reader(p)));
                union_pair.push(StoreIndex::from_readers(readers).unwrap_or_else(|e| {
                    eprintln!("{name}: index the retention union: {e}");
                    std::process::exit(1);
                }));
            }
            let union_text = suite_text(&union_pair[0], &union_pair[1]);
            assert_eq!(
                union_text, live_text,
                "archived + retained union must re-print the suite byte for byte"
            );
            eprintln!("  retention: archived + retained union is byte-identical to the suite");
        }
        live_text
    };

    eprintln!("running the suite over the batch stores ...");
    let batch_text = suite_text(&campus_b, &eecs_b);
    assert_eq!(
        live_text, batch_text,
        "live-ingested segments must reproduce the batch suite byte for byte"
    );

    // Final export + stderr summary before the suite hits stdout; the
    // suite bytes themselves carry no telemetry either way.
    if let Some(exporter) = exporter {
        match exporter.stop() {
            Ok(snapshot) => dump_metrics(&snapshot),
            Err(e) => {
                eprintln!("metrics exporter failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Stdout: the suite, byte-identical to `repro --store`.
    print!("{live_text}");
    if cleanup {
        std::fs::remove_dir_all(&dir).ok();
    }
}
