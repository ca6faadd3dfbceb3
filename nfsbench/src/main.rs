//! `nfsbench`: the repository's benchmark. Four long workloads over the
//! nfstrace pipeline, timed with the composite-floor estimator, with
//! exact allocation counts and — under `--trace 1` — the same corpus
//! replayed layer by layer from outside the program. README.md in this
//! directory says what every workload and metric means.
//!
//! ```text
//! nfsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! nfsbench --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! nfsbench --aa <pairs> (--workload <name> | --all) [--seed <n>] [--seconds <s>]
//! nfsbench --list
//! ```
//!
//! `--smoke` shrinks every corpus to a sixteenth and runs two passes;
//! `--out <dir>` moves the scratch directory (default `.bench_out`);
//! `--fault flip-reply|drop-packet|truncate-segment` damages the input
//! so that the verifier has something to catch.

#![deny(unsafe_op_in_unsafe_fn)]

mod aa;
mod alloc;
mod capture;
mod corpus;
mod floors;
mod micro;
mod run;
mod serve;
mod spans;
mod spec;
mod stages;
mod suite;
mod timing;

pub use run::{Budget, Verdict};

use corpus::Sizes;
use run::{Fault, RunConfig, RunResult};
use spec::WORKLOADS;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The worker count every `NFSTRACE_THREADS`-driven layer uses: the
/// load never has more busy threads than the machine has cores, and
/// never more than two.
fn pin_worker_threads() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("NFSTRACE_THREADS", cores.min(2).to_string());
}

#[derive(Debug)]
struct Args {
    workload: Option<usize>,
    all: bool,
    list: bool,
    aa: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    fault: Option<Fault>,
}

fn usage(problem: &str) -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "nfsbench: {problem}\n\
         usage: nfsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      nfsbench --all | --aa <pairs> (--workload <name> | --all) | --list\n\
         \x20      [--smoke] [--out <dir>] [--fault flip-reply|drop-packet|truncate-segment]",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        list: false,
        aa: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
        fault: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| usage(&format!("{flag} wants {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let index = WORKLOADS.iter().position(|w| w.name == name);
                args.workload = Some(index.ok_or_else(|| usage(&format!("no workload {name:?}")))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| usage("--seed wants a number"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| usage("--seconds wants a number"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace wants 0 or 1")),
                }
            }
            "--aa" => {
                args.aa = Some(
                    value("a pair count")?
                        .parse()
                        .map_err(|_| usage("--aa wants a count"))?,
                )
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--fault" => {
                let kind = value("a fault")?;
                args.fault =
                    Some(Fault::parse(&kind).ok_or_else(|| usage(&format!("no fault {kind:?}")))?);
            }
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--smoke" => args.smoke = true,
            other => return Err(usage(&format!("unknown argument {other:?}"))),
        }
    }
    if !args.list && !args.all && args.workload.is_none() {
        return Err(usage("name a workload, or --all, or --list"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(usage("--seconds must be positive"));
    }
    Ok(args)
}

/// The result line: one JSON object, the last line of standard output.
fn result_json(result: &RunResult, traced: bool) -> String {
    let metrics: Vec<String> = result
        .metrics
        .emit(traced)
        .into_iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let failed = result.verdict.failed.min(result.verdict.attempted);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        result.verdict.attempted,
        failed,
        metrics.join(", ")
    )
}

/// The same numbers for a reader, on standard error.
fn report(name: &str, result: &RunResult, traced: bool) {
    eprintln!("== {name}");
    for (metric, value, unit) in result.metrics.emit(traced) {
        eprintln!("  {metric:<40} {value:>16.4} {unit}");
    }
    for (metric, value) in &result.health {
        eprintln!("  {metric:<40} {value:>16.4} (health, not gated)");
    }
    for note in &result.verdict.notes {
        eprintln!("  FAILED {note}");
    }
}

fn config(args: &Args, workload: usize) -> RunConfig {
    RunConfig {
        workload,
        seed: args.seed,
        started: std::time::Instant::now(),
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        out: args.out.clone(),
        fault: args.fault,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let workloads: Vec<usize> = match args.workload {
        Some(w) if !args.all => vec![w],
        _ => (0..WORKLOADS.len()).collect(),
    };
    if let Some(pairs) = args.aa {
        return match aa::run(&args, &workloads, pairs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("nfsbench --aa: {e}");
                ExitCode::from(3)
            }
        };
    }
    pin_worker_threads();
    let mut failed = false;
    for &w in &workloads {
        let name = WORKLOADS[w].name;
        match run::run(&config(&args, w)) {
            Ok(result) => {
                report(name, &result, args.trace);
                failed |= result.verdict.failed > 0;
                if args.all {
                    println!("{name} {}", result_json(&result, args.trace));
                } else {
                    println!("{}", result_json(&result, args.trace));
                }
            }
            Err(e) => {
                eprintln!("nfsbench: {name}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::from(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{END_TO_END, PER_LAYER};

    fn smoke(workload: &str, trace: bool, fault: Option<Fault>) -> RunResult {
        static PIN: std::sync::Once = std::sync::Once::new();
        PIN.call_once(pin_worker_threads);
        let _counters = alloc::exclusive();
        let workload = WORKLOADS.iter().position(|w| w.name == workload).unwrap();
        run::run(&RunConfig {
            workload,
            seed: 3,
            started: std::time::Instant::now(),
            seconds: 0.01,
            trace,
            sizes: Sizes::smoke(),
            out: PathBuf::from(format!(".bench_out/test-{workload}-{trace}-{fault:?}")),
            fault,
        })
        .expect("smoke run")
    }

    /// Every declared end-to-end metric, exactly once, with its unit,
    /// nothing else, and a clean verdict.
    fn assert_end_to_end(workload: &str) {
        let result = smoke(workload, false, None);
        assert_eq!(result.verdict.failed, 0, "{:?}", result.verdict.notes);
        assert!(result.verdict.attempted > 10);
        let line = result_json(&result, false);
        for m in &END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert_eq!(
                line.matches(&key).count(),
                1,
                "{workload}: {} in {line}",
                m.name
            );
            let tail = &line[line.find(&key).unwrap()..];
            let unit = format!("\"unit\": \"{}\"}}", m.unit);
            assert!(
                tail[..tail.find('}').unwrap() + 1].ends_with(&unit),
                "{workload}: unit of {}",
                m.name
            );
            assert!(
                result.metrics.get(m.name).unwrap() > 0.0,
                "{workload}: {} is 0",
                m.name
            );
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }

    #[test]
    fn smoke_capture_campus() {
        assert_end_to_end("capture-campus");
    }

    #[test]
    fn smoke_capture_eecs() {
        assert_end_to_end("capture-eecs");
    }

    #[test]
    fn smoke_serve_campus() {
        assert_end_to_end("serve-campus");
    }

    #[test]
    fn smoke_suite_store() {
        assert_end_to_end("suite-store");
    }

    /// A traced run reports every per-layer metric once and writes the
    /// spans file; one workload stands for the four (each runs every
    /// stage group, its own at full size).
    #[test]
    fn smoke_traced_run_reports_every_layer_and_writes_spans() {
        let result = smoke("capture-eecs", true, None);
        assert_eq!(result.verdict.failed, 0, "{:?}", result.verdict.notes);
        let line = result_json(&result, true);
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        for m in &PER_LAYER {
            assert_eq!(
                line.matches(&format!("\"{}\": {{", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }
        assert_eq!(result.metrics.get("sniffer.estimated_loss_rate"), Some(0.0));
        assert_eq!(result.metrics.get("serve.retransmits"), Some(0.0));
        let spans = std::fs::read_to_string(".bench_out/test-1-true-None/spans-capture-eecs.jsonl")
            .unwrap();
        assert!(spans.lines().count() > 100);
        assert!(spans
            .lines()
            .all(|l| l.starts_with("{\"name\":\"") && l.ends_with('}')));
        assert!(spans.contains("\"name\":\"rpc.record_split\""));
    }

    // A benchmark that cannot fail cannot certify: each kind of damage
    // must show up as `failed > 0` (and so as a non-zero exit).

    #[test]
    fn a_flipped_reply_byte_fails_the_run() {
        let result = smoke("serve-campus", false, Some(Fault::FlipReply));
        assert_eq!(result.verdict.failed, 1, "{:?}", result.verdict.notes);
        assert!(result_json(&result, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_dropped_packet_fails_the_run() {
        let result = smoke("capture-campus", false, Some(Fault::DropPacket));
        assert!(result.verdict.failed > 0);
        assert!(
            result.verdict.failed < result.verdict.attempted,
            "one packet, not the trace"
        );
    }

    #[test]
    fn a_truncated_segment_fails_the_run() {
        let result = smoke("capture-eecs", false, Some(Fault::TruncateSegment));
        assert!(result.verdict.failed > 0);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = "--workload serve-campus --seed 9 --seconds 30 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Some(2), 9, 30.0, true)
        );
        assert!(parse_args(["--workload".to_string(), "nope".to_string()].into_iter()).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }
}
