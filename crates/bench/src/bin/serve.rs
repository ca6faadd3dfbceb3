//! Serving-loop reproduction: the suite's 8-day traces replayed over
//! **real loopback TCP** against the record-marked NFSv3 RPC server,
//! with every byte the clients and server exchange tapped into the
//! sniffer and live-ingested into segment stores — then the full
//! table/figure suite printed over those captured stores.
//!
//! Stdout is **byte-identical** to `repro --store` at the same
//! `NFSTRACE_SCALE` — the CI `serve-smoke` job `cmp`s exactly that —
//! because the serving loop is a section of the sniffer's canonical
//! flattening (`nfstrace_serve::reverse`): every record that goes out
//! as wire RPC comes back as the same record (the one normalized field
//! is the `vers` tag, which no suite product reads). Internally this
//! bin additionally asserts, per system:
//!
//! - every call the server saw was planned (`unplanned_calls == 0`)
//!   and every planned call was sent exactly once (no retransmissions
//!   on loopback);
//! - the tap's mirror dropped nothing and the sniffer matched every
//!   reply (`orphan_replies == 0`);
//! - the ingested record count equals the batch oracle's.
//!
//! Throughput and latency go to **stderr** (machine-greppable
//! `serve-loop:` lines): served calls/sec over the whole roundtrip,
//! replay RTT p50/p99, and server-side dispatch mean. The tracked
//! numbers are the `serve-campus` workload's (`nfsbench/README.md`).
//!
//! With `--metrics <path>` the loop — server, replay clients, sniffer
//! source, and ingest daemons — reports into one shared telemetry
//! [`Registry`], exported as JSON lines to `<path>` (plus Prometheus
//! text to `<path>.prom`) and dumped once to stderr at exit; stdout is
//! untouched either way.
//!
//! Usage: `serve [--dir <dir>] [--connections <n>] [--metrics <path>]
//! [--metrics-interval <secs>]` (default: a per-process temp dir,
//! removed on success; 2 connections per system; no metrics export).

use nfstrace_bench::suite::suite_text;
use nfstrace_bench::{scale, scenarios};
use nfstrace_core::index::TraceView;
use nfstrace_serve::{serve_roundtrip, ReplayOptions, ReplayPlan};
use nfstrace_store::{StoreConfig, StoreIndex};
use nfstrace_telemetry::{Exporter, ExporterConfig, Registry, Snapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// Serves one system's plan and asserts the loop's internal contracts.
/// Returns the roundtrip wall-clock seconds.
fn serve_system(
    name: &str,
    plan: &ReplayPlan,
    options: &ReplayOptions,
    registry: &Registry,
    dir: &Path,
) -> f64 {
    let total = plan.calls.len() as u64;
    let call_bytes: usize = plan.calls.iter().map(|c| c.call_bytes.len()).sum();
    let reply_bytes: usize = plan
        .calls
        .iter()
        .filter_map(|c| c.reply_bytes.as_ref().map(Vec::len))
        .sum();
    eprintln!(
        "  {name}: plan {total} calls ({:.1} MiB calls, {:.1} MiB replies)",
        call_bytes as f64 / (1 << 20) as f64,
        reply_bytes as f64 / (1 << 20) as f64,
    );
    let t = Instant::now();
    let outcome = serve_roundtrip(plan, options, registry, dir).unwrap_or_else(|e| {
        eprintln!("{name}: serve roundtrip failed: {e}");
        std::process::exit(1);
    });
    let roundtrip_s = t.elapsed().as_secs_f64();
    assert_eq!(outcome.unplanned_calls, 0, "{name}: unplanned calls");
    assert_eq!(
        outcome.replay.retransmits, 0,
        "{name}: loopback replay must not retransmit"
    );
    assert_eq!(outcome.replay.calls_sent, total, "{name}: calls sent");
    assert_eq!(
        outcome.summary.total_records, total,
        "{name}: ingested records"
    );
    assert_eq!(outcome.mirror.dropped, 0, "{name}: mirror drops");
    let stats = outcome.sniffer.expect("sniffer stats after exhaustion");
    assert_eq!(stats.calls, total, "{name}: sniffed calls");
    assert_eq!(stats.orphan_replies, 0, "{name}: orphan replies");
    assert_eq!(stats.decode_errors, 0, "{name}: decode errors");
    eprintln!(
        "  {name}: {total} calls served and captured in {roundtrip_s:.2}s \
         ({:.0} calls/s roundtrip), {} segments",
        total as f64 / roundtrip_s.max(1e-9),
        outcome.summary.segments,
    );
    roundtrip_s
}

/// The exit-time dump (stderr only), same shape as the `live` bin's.
fn dump_metrics(snapshot: &Snapshot) {
    eprintln!("serving-loop metrics:");
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
    let mut args = std::env::args().skip(1);
    let mut dir: Option<std::path::PathBuf> = None;
    let mut connections = 2usize;
    let mut metrics: Option<std::path::PathBuf> = None;
    let mut metrics_interval = Duration::from_secs(10);
    let usage = || -> ! {
        eprintln!(
            "usage: serve [--dir <dir>] [--connections <n>] [--metrics <path>] \
             [--metrics-interval <secs>]"
        );
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--dir" => {
                dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--connections" => {
                connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if connections == 0 {
                    usage();
                }
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
    let cleanup = dir.is_none();
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("nfstrace-serve-bin-{}", std::process::id()))
    });
    let s = scale();

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

    // Compile both traces into replay plans (records → wire RPC).
    eprintln!("compiling replay plans ...");
    let campus_plan = ReplayPlan::from_stream(&campus_b);
    let eecs_plan = ReplayPlan::from_stream(&eecs_b);

    // The loop under test: serve, replay, tap, sniff, live-ingest.
    let options = ReplayOptions {
        connections,
        ..ReplayOptions::default()
    };
    eprintln!("serving both traces over loopback TCP ({connections} connections each) ...");
    let campus_dir = dir.join("campus-served");
    let eecs_dir = dir.join("eecs-served");
    let campus_s = serve_system("CAMPUS", &campus_plan, &options, &registry, &campus_dir);
    let eecs_s = serve_system("EECS", &eecs_plan, &options, &registry, &eecs_dir);

    // The loop's own telemetry.
    let calls = registry.counter("serve.calls").value();
    let rtt = registry.histogram("replay.rtt_micros").snapshot();
    let dispatch = registry.histogram("serve.dispatch_micros").snapshot();
    assert!(calls > 0, "the server dispatched nothing");
    assert_eq!(
        calls,
        (campus_plan.calls.len() + eecs_plan.calls.len()) as u64,
        "every planned call must reach the server exactly once"
    );
    assert_eq!(registry.counter("replay.retransmits").value(), 0);
    eprintln!(
        "serve-loop: calls={calls} roundtrip_s={:.2} calls_per_s={:.0} \
         rtt_p50_us={} rtt_p99_us={} dispatch_mean_us={:.1} connections={connections}",
        campus_s + eecs_s,
        calls as f64 / (campus_s + eecs_s).max(1e-9),
        rtt.percentile(0.5),
        rtt.percentile(0.99),
        dispatch.mean(),
    );

    // The captured stores must re-print the batch suite byte for byte.
    let campus_c = StoreIndex::open_dir_with_registry(&campus_dir, &registry).unwrap_or_else(|e| {
        eprintln!("open captured campus segments: {e}");
        std::process::exit(1);
    });
    let eecs_c = StoreIndex::open_dir_with_registry(&eecs_dir, &registry).unwrap_or_else(|e| {
        eprintln!("open captured eecs segments: {e}");
        std::process::exit(1);
    });
    assert_eq!(TraceView::len(&campus_c), TraceView::len(&campus_b));
    assert_eq!(TraceView::len(&eecs_c), TraceView::len(&eecs_b));
    eprintln!("running the suite over the captured stores ...");
    let served_text = suite_text(&campus_c, &eecs_c);
    eprintln!("running the suite over the batch stores ...");
    let batch_text = suite_text(&campus_b, &eecs_b);
    assert_eq!(
        served_text, batch_text,
        "the served-and-captured stores must reproduce the batch suite byte for byte"
    );

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
    print!("{served_text}");
    if cleanup {
        std::fs::remove_dir_all(&dir).ok();
    }
}
