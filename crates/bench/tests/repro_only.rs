//! `repro --only <artifact>`: every entry of `ARTIFACTS` is exactly
//! its slice of the full suite, on any `--via` path, every entry of
//! `EXPERIMENTS` is exactly its library text, and the binary rejects
//! anything else.

use nfstrace_bench::experiments::{self, EXPERIMENTS};
use nfstrace_bench::scenarios;
use nfstrace_bench::suite::{artifact_text, suite_text, ARTIFACTS};
use std::process::Command;

/// The smallest scale `repro` accepts.
const SCALE: &str = "0.05";

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("NFSTRACE_SCALE", SCALE)
        .output()
        .expect("run repro")
}

#[test]
fn artifacts_in_order_are_the_suite_byte_for_byte() {
    let (campus8, eecs8) = scenarios::eight_day_index_pair(SCALE.parse().expect("scale"));
    let mut concatenated = String::new();
    for artifact in ARTIFACTS {
        let text = artifact_text(&campus8, &eecs8, artifact).expect("a listed artifact renders");
        assert!(!text.is_empty(), "{artifact} rendered nothing");
        concatenated.push_str(&text);
        concatenated.push('\n');
    }
    assert_eq!(concatenated, suite_text(&campus8, &eecs8));
    assert_eq!(artifact_text(&campus8, &eecs8, "table6"), None);

    // The binary prints that same render, and nothing else, to stdout
    // — in memory and out of core alike.
    for args in [
        &["--only", "fig1"][..],
        &["--via", "store", "--only", "fig1"],
    ] {
        let out = repro(args);
        assert!(out.status.success(), "repro {args:?}: {:?}", out.status);
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            artifact_text(&campus8, &eecs8, "fig1").expect("fig1 is listed"),
            "repro {args:?}"
        );
    }
}

#[test]
fn each_experiment_prints_exactly_its_library_text() {
    // At the smallest scale `loss` replays its floor day, the one
    // `tests/paper_shapes.rs` asserts on.
    let day = scenarios::campus(1, 0.1, 42);
    let texts = [
        experiments::loss(&day).text,
        experiments::nfsiod().text,
        experiments::readahead().text,
    ];
    assert_eq!(EXPERIMENTS, ["loss", "nfsiod", "readahead"]);
    for (experiment, text) in EXPERIMENTS.into_iter().zip(texts) {
        let out = repro(&["--only", experiment]);
        assert!(out.status.success(), "{experiment}: {:?}", out.status);
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            text,
            "repro --only {experiment}"
        );
    }
}

/// Exit status 2, nothing on stdout, the usage (which names every
/// artifact and experiment) on stderr.
fn assert_usage_error(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: exit status");
    assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("usage: repro"), "{args:?}: no usage");
    for name in ARTIFACTS.iter().chain(&EXPERIMENTS) {
        assert!(stderr.contains(name), "{args:?}: usage omits {name}");
    }
}

#[test]
fn an_unknown_artifact_is_a_usage_error_naming_the_valid_ones() {
    assert_usage_error(&["--only", "table6"]);
    assert_usage_error(&["--only"]);
}

#[test]
fn an_unknown_path_or_a_flag_off_its_path_is_a_usage_error() {
    assert_usage_error(&["--via", "tape"]);
    assert_usage_error(&["--via"]);
    // `--shards` and `--compact` belong to `--via live`.
    assert_usage_error(&["--shards", "2"]);
    assert_usage_error(&["--via", "store", "--compact", "3"]);
    // `--store <dir>` is `--via store --dir <dir>` now.
    assert_usage_error(&["--store", "x"]);
    // An experiment is not a view of the traces: no path, no path flag.
    assert_usage_error(&["--only", "loss", "--via", "store"]);
    assert_usage_error(&["--only", "nfsiod", "--shards", "2"]);
}
