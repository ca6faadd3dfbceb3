//! Runs the full reproduction suite and prints every table and figure —
//! over whichever of the pipeline's five paths `--via` picks. Stdout is
//! **byte-identical** on all of them at the same `NFSTRACE_SCALE`; CI
//! `cmp`s each against the default.
//!
//! ```text
//! repro [--via mem|store|live|serve] [--dir <dir>] [--only <artifact>]
//!       [--shards <n>] [--compact <fan_in>] [--metrics <path>]
//! ```
//!
//! What each path *is* lives in [`nfstrace_bench::scenarios`]; this
//! program only picks one. `mem` (the default) generates and indexes
//! each system once in memory. `store` runs out of core through chunked
//! store files, and after the full suite asserts the fused-replay bound
//! at chunk granularity (construction + one fused replay = exactly two
//! decodes per chunk). `live` goes through the bounded-memory segment
//! ingest — with `--compact <fan_in>` compacting in line, with
//! `--shards <n>` through the sharded multi-writer daemon, the suite
//! over its merged mid-ingest view. `serve` closes the loop over real
//! loopback TCP: served, replayed, tapped, sniffed, live-ingested.
//!
//! The on-disk paths work under `--dir <dir>` (default: a per-process
//! temp dir, removed on success). `--only <artifact>` prints a single
//! entry of `nfstrace_bench::suite::ARTIFACTS` — the same bytes the
//! full suite prints for it, on any path — computing only the analyses
//! that artifact needs. `--only loss|nfsiod|readahead` prints one of
//! the paper's side experiments (`experiments::EXPERIMENTS`) instead:
//! not views of the traces, they take no other flag and generate no
//! 8-day pair. With `--metrics <path>` the whole pipeline reports into
//! one shared telemetry [`Registry`], exported every second as JSON
//! lines to `<path>` (plus Prometheus text exposition to `<path>.prom`)
//! and dumped once to **stderr** at exit; stdout is untouched.
//! `NFSTRACE_THREADS` scales generation and chunk indexing across
//! worker threads without changing the output.

use nfstrace_bench::experiments::{experiment_text, EXPERIMENTS};
use nfstrace_bench::suite::{artifact_text, suite_text, ARTIFACTS};
use nfstrace_bench::{scale, scenarios, tables};
use nfstrace_core::index::TraceView;
use nfstrace_core::time::DAY;
use nfstrace_store::{CompactionPolicy, StoreConfig, StoreIndex};
use nfstrace_telemetry::{Exporter, ExporterConfig, Registry, Snapshot};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--via mem|store|live|serve] [--dir <dir>] [--only <artifact>]\n\
         \x20            [--shards <n>] [--compact <fan_in>] [--metrics <path>]\n\
         \x20 --dir needs a path that writes (store, live, serve); \
         --shards (>= 1) and --compact (>= 2) need --via live\n\
         \x20 artifacts: {}\n\
         \x20 experiments (--only <experiment> and no other flag): {}",
        ARTIFACTS.join(" "),
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq, Default)]
enum Via {
    #[default]
    Mem,
    Store,
    Live,
    Serve,
}

#[derive(Default)]
struct Args {
    via: Via,
    dir: Option<PathBuf>,
    only: Option<String>,
    shards: Option<usize>,
    compact: Option<usize>,
    metrics: Option<PathBuf>,
}

/// The value of the flag just read, or the usage error.
fn value(args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut parsed = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--via" => {
                parsed.via = match value(&mut args).as_str() {
                    "mem" => Via::Mem,
                    "store" => Via::Store,
                    "live" => Via::Live,
                    "serve" => Via::Serve,
                    other => {
                        eprintln!("unknown path {other:?}");
                        usage();
                    }
                }
            }
            "--dir" => parsed.dir = Some(value(&mut args).into()),
            "--only" => {
                let artifact = value(&mut args);
                if EXPERIMENTS.contains(&artifact.as_str()) {
                    // Not a view of the traces: no other flag applies.
                    if std::env::args().len() != 3 {
                        usage();
                    }
                } else if !ARTIFACTS.contains(&artifact.as_str()) {
                    eprintln!("unknown artifact {artifact:?}");
                    usage();
                }
                parsed.only = Some(artifact);
            }
            "--shards" => {
                parsed.shards = Some(value(&mut args).parse().unwrap_or_else(|_| usage()));
            }
            "--compact" => {
                parsed.compact = Some(value(&mut args).parse().unwrap_or_else(|_| usage()));
            }
            "--metrics" => parsed.metrics = Some(value(&mut args).into()),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    let live_only = parsed.shards.is_some() || parsed.compact.is_some();
    if (live_only && parsed.via != Via::Live)
        || (parsed.dir.is_some() && parsed.via == Via::Mem)
        || parsed.shards == Some(0)
        || parsed.compact.is_some_and(|fan_in| fan_in < 2)
    {
        usage();
    }
    parsed
}

/// Unwraps a path's result or reports the failure and exits 1.
fn or_exit<T>(result: nfstrace_store::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("pipeline failed: {e}");
        std::process::exit(1);
    })
}

/// The whole suite, or the one artifact `--only` named (validated
/// against [`ARTIFACTS`] while parsing).
fn render<V: TraceView>(campus8: &V, eecs8: &V, only: Option<&str>) -> String {
    match only {
        None => suite_text(campus8, eecs8),
        Some(artifact) => artifact_text(campus8, eecs8, artifact).expect("validated artifact name"),
    }
}

/// The fused-replay bound of the full suite over single-file stores,
/// at chunk granularity: each chunk set is decoded exactly twice —
/// index construction plus the one fused replay — for the 8-day view
/// and for its analysis-week window alike, plus one construction
/// decode of the chunks under Figure 1's Wednesday-morning window.
fn assert_fused_bound(campus8: &StoreIndex, eecs8: &StoreIndex) {
    for (name, idx) in [("CAMPUS", campus8), ("EECS", eecs8)] {
        let r = idx.reader();
        let all = r.chunk_count() as u64;
        let in_window = |start: u64, end: u64| {
            r.chunks().iter().filter(|m| m.overlaps(start, end)).count() as u64
        };
        let week = in_window(0, scenarios::WEEK_DAYS * DAY);
        let wed = in_window(tables::FIG1_WINDOW_MICROS.0, tables::FIG1_WINDOW_MICROS.1);
        let decoded = r.chunks_decoded();
        assert_eq!(
            decoded,
            2 * (all + week) + wed,
            "{name}: {all} chunks ({week} in the week, {wed} under \
             fig1's Wednesday window) decoded more than the fused \
             bound allows"
        );
        eprintln!("  {name}: {decoded} chunk decodes over {all} chunks (bound met)");
    }
}

/// Renders `registry` to `<path>` (JSON lines) and `<path>.prom` once a
/// second while the pipeline runs.
fn spawn_exporter(registry: &Registry, path: &Path) -> Exporter {
    let mut prom = path.as_os_str().to_owned();
    prom.push(".prom");
    Exporter::spawn(
        registry.clone(),
        ExporterConfig {
            interval: Duration::from_secs(1),
            jsonl_path: Some(path.to_path_buf()),
            prometheus_path: Some(prom.into()),
            stderr: false,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start metrics exporter at {}: {e}", path.display());
        std::process::exit(1);
    })
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

fn main() {
    let args = parse_args();
    let s = scale();
    let only = args.only.as_deref();
    if let Some(text) = only.and_then(|name| experiment_text(name, s)) {
        print!("{text}");
        return;
    }
    // One registry for the whole pipeline, whichever path it takes.
    let registry = Registry::new();
    let exporter = args
        .metrics
        .as_deref()
        .map(|path| spawn_exporter(&registry, path));
    let cleanup = args.dir.is_none();
    let dir = args.dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nfstrace-repro-{}", std::process::id()))
    });
    let compaction = args.compact.map(|fan_in| CompactionPolicy { fan_in });

    eprintln!("rendering 8-day traces at scale {s} ...");
    let text = match (args.via, args.shards) {
        (Via::Mem, _) => {
            let (campus8, eecs8) = scenarios::eight_day_index_pair(s);
            render(&campus8, &eecs8, only)
        }
        (Via::Store, _) => {
            let (campus8, eecs8) = or_exit(scenarios::eight_day_store_pair(
                s,
                &dir,
                StoreConfig::default(),
            ));
            let text = render(&campus8, &eecs8, only);
            if only.is_none() {
                assert_fused_bound(&campus8, &eecs8);
            }
            text
        }
        (Via::Live, None) => {
            let pair = scenarios::eight_day_live_pair(s, &dir, compaction, &registry);
            let (campus8, eecs8) = or_exit(pair);
            render(&campus8, &eecs8, only)
        }
        (Via::Live, Some(shards)) => {
            let pair = scenarios::eight_day_sharded_pair(s, &dir, shards, compaction, &registry);
            let (mut campus8, mut eecs8) = or_exit(pair);
            let views = (or_exit(campus8.try_view()), or_exit(eecs8.try_view()));
            let text = render(&views.0, &views.1, only);
            or_exit(campus8.finish());
            or_exit(eecs8.finish());
            text
        }
        (Via::Serve, _) => {
            let (campus8, eecs8) = or_exit(scenarios::eight_day_served_pair(s, &dir, &registry));
            render(&campus8, &eecs8, only)
        }
    };

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
    print!("{text}");
    if cleanup {
        std::fs::remove_dir_all(&dir).ok();
    }
}
