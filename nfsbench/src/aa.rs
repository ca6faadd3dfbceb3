//! `--aa N`: the benchmark against itself. N interleaved pairs of runs
//! of the same code (A first in even pairs, B first in odd ones), each
//! run a fresh process as the driver would start it; per end-to-end
//! metric both medians, their relative difference, and the bound. Two
//! sets of runs of one program must agree within the benchmark's own
//! bounds, or the benchmark is too noisy to certify anything.

use crate::floors::interpolate;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::Args;
use std::process::{Command, Stdio};

/// `"name": {"value": <number>` → the number.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One run in a child process; the end-to-end values in declaration
/// order.
fn one_run(args: &Args, workload: usize, seed: u64) -> std::io::Result<Vec<f64>> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", WORKLOADS[workload].name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--out"])
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(std::io::Error::other(format!(
            "{} seed {seed}: {} — {line}",
            WORKLOADS[workload].name, output.status
        )));
    }
    END_TO_END
        .iter()
        .map(|m| {
            value_of(line, m.name)
                .ok_or_else(|| std::io::Error::other(format!("no {} in {line}", m.name)))
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    interpolate(&sorted, 0.5)
}

/// Runs the pairs; `Ok(true)` when every metric of every workload
/// agrees within its bound.
pub fn run(args: &Args, workloads: &[usize], pairs: usize) -> std::io::Result<bool> {
    let mut agree = true;
    for &w in workloads {
        let (mut a, mut b): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
        for pair in 0..pairs {
            let seed = args.seed + pair as u64;
            let sides: [&mut Vec<Vec<f64>>; 2] = if pair % 2 == 0 {
                [&mut a, &mut b]
            } else {
                [&mut b, &mut a]
            };
            for side in sides {
                side.push(one_run(args, w, seed)?);
            }
        }
        println!(
            "== {} ({pairs} pairs, seeds {}..{})",
            WORKLOADS[w].name,
            args.seed,
            args.seed + pairs as u64
        );
        println!(
            "{:<24} {:>14} {:>14} {:>9} {:>7} {:>9}",
            "metric", "median A", "median B", "diff", "bound", "max dev"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let column = |runs: &[Vec<f64>]| -> Vec<f64> { runs.iter().map(|r| r[i]).collect() };
            let (va, vb) = (column(&a), column(&b));
            let (ma, mb) = (median(&va), median(&vb));
            // Positive when B reads worse than A.
            let diff = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            // The farthest any run strays from its own set's median.
            let max_dev = va
                .iter()
                .map(|v| (v / ma - 1.0).abs())
                .chain(vb.iter().map(|v| (v / mb - 1.0).abs()))
                .fold(0.0, f64::max);
            let ok = diff.abs() <= m.bound;
            agree &= ok;
            println!(
                "{:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>8.2}%{}",
                m.name,
                ma,
                mb,
                diff * 100.0,
                m.bound * 100.0,
                max_dev * 100.0,
                if ok { "" } else { "  OUT OF BOUND" }
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"records_per_s\": {\"value\": 1.5e5, \"unit\": \"1/s\"}}}";
        assert_eq!(value_of(line, "setup_s"), Some(0.25));
        assert_eq!(value_of(line, "records_per_s"), Some(150_000.0));
        assert_eq!(value_of(line, "latency_p50_us"), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
