//! Runs the full reproduction suite and prints every table and figure.
//!
//! `NFSTRACE_SCALE` scales the simulated populations; `NFSTRACE_THREADS`
//! scales generation and chunk indexing across worker threads without
//! changing the output.
//!
//! Each system is generated once (eight days: the lifetime analyses
//! need the Friday end margin) and indexed once; the canonical analysis
//! week is a zero-copy time window over the same trace, so the whole
//! suite buckets and sorts each trace exactly once per reorder window.
//!
//! # Out-of-core mode
//!
//! `repro --store <dir>` runs the same suite end to end without ever
//! holding a full trace in memory: generation streams straight into
//! chunked, per-chunk-compressed store files under `<dir>`
//! (`campus.nfstore`, `eecs.nfstore`), indexing builds one partial
//! index per chunk across `NFSTRACE_THREADS` workers and merges them,
//! and every record-replaying analysis rides **one** fused decode pass
//! per view (registered up front via `TraceView::prepare`) — asserted
//! both per view (`decode_passes == 1`) and at chunk granularity
//! (construction + fused replay = exactly two decodes per chunk). Its
//! stdout is **byte-identical** to the in-memory run — CI asserts
//! exactly that.
//!
//! # One artifact
//!
//! `repro --only <artifact>` prints a single entry of
//! `nfstrace_bench::suite::ARTIFACTS` (`table1`…`table5`, `fig1`…`fig5`,
//! `names`, `coverage`) over the same 8-day traces and analysis-week
//! windows — the same bytes the full suite prints for it, in either
//! mode — computing only the analyses that artifact needs.

use nfstrace_bench::suite::{artifact_text, suite_text, ARTIFACTS};
use nfstrace_bench::{scale, scenarios, tables};
use nfstrace_core::index::TraceView;
use nfstrace_core::time::DAY;
use nfstrace_store::StoreConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--store <dir>] [--only <artifact>]\n  artifacts: {}",
        ARTIFACTS.join(" ")
    );
    std::process::exit(2);
}

/// The whole suite, or the one artifact `--only` named (validated
/// against [`ARTIFACTS`] while parsing).
fn render<V: TraceView>(campus8: &V, eecs8: &V, only: Option<&str>) -> String {
    match only {
        None => suite_text(campus8, eecs8),
        Some(artifact) => artifact_text(campus8, eecs8, artifact).expect("validated artifact name"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut store_dir: Option<std::path::PathBuf> = None;
    let mut only: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store_dir = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--only" => {
                let artifact = args.next().unwrap_or_else(|| usage());
                if !ARTIFACTS.contains(&artifact.as_str()) {
                    eprintln!("unknown artifact {artifact:?}");
                    usage();
                }
                only = Some(artifact);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    let s = scale();
    match store_dir {
        None => {
            eprintln!("generating 8-day traces at scale {s} ...");
            let (campus8, eecs8) = scenarios::eight_day_index_pair(s);
            print!("{}", render(&campus8, &eecs8, only.as_deref()));
        }
        Some(dir) => {
            eprintln!(
                "generating 8-day traces at scale {s} into store {} ...",
                dir.display()
            );
            let (campus8, eecs8) = scenarios::eight_day_store_pair(s, &dir, StoreConfig::default())
                .unwrap_or_else(|e| {
                    eprintln!("store pipeline failed: {e}");
                    std::process::exit(1);
                });
            eprintln!(
                "  store chunks: CAMPUS {}, EECS {}",
                campus8.reader().chunk_count(),
                eecs8.reader().chunk_count()
            );
            print!("{}", render(&campus8, &eecs8, only.as_deref()));
            if only.is_some() {
                // The bound below describes the full suite's decodes.
                return;
            }
            // The fused-replay bound, at chunk granularity: each chunk
            // set is decoded exactly twice — index construction plus
            // the one fused replay — for the 8-day view and for its
            // analysis-week window alike, plus one construction decode
            // of the chunks under Figure 1's Wednesday-morning window.
            for (name, idx) in [("CAMPUS", &campus8), ("EECS", &eecs8)] {
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
    }
}
