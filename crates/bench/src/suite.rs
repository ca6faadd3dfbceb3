//! The full reproduction suite as a reusable, view-generic function.
//!
//! `repro` (in-memory and `--store` out-of-core) and `live` (segment
//! directories written by a rotating ingest) all print **the same
//! bytes** for the same records; keeping the suite in one place is
//! what makes "byte-identical stdout" a meaningful cross-binary
//! assertion (CI `cmp`s the outputs).

use crate::{scenarios, tables};
use nfstrace_core::index::{ReplayRequest, TraceView};
use nfstrace_core::time::DAY;

/// Renders every table and figure over the 8-day pair and its
/// analysis-week windows, asserting the one-pass contracts (sorts
/// *and* replays) on the way. Returns exactly the bytes `repro`
/// historically printed to stdout. Progress goes to stderr.
pub fn suite_text<V: TraceView>(campus8: &V, eecs8: &V) -> String {
    eprintln!(
        "  CAMPUS: {} records, EECS: {} records",
        campus8.len(),
        eecs8.len()
    );
    eprintln!("indexing the analysis week ...");
    let campus_week = campus8.time_window(0, scenarios::WEEK_DAYS * DAY);
    let eecs_week = eecs8.time_window(0, scenarios::WEEK_DAYS * DAY);

    // Register every record-replaying analysis the suite is about to
    // run, so each view replays (for the store: decodes) its records
    // exactly once. The 8-day views serve only the five weekday
    // lifetime windows (Table 4 / Figure 3); the week views serve
    // Table 1's names + whole-span lifetime, plus — CAMPUS only —
    // the name-prediction report and hierarchy coverage.
    eprintln!("fusing replay analyses ...");
    campus8.prepare(&[ReplayRequest::WeekdayLifetime]);
    eecs8.prepare(&[ReplayRequest::WeekdayLifetime]);
    campus_week.prepare(&[
        ReplayRequest::Names,
        ReplayRequest::Lifetime(tables::table1_lifetime_config(&campus_week)),
        ReplayRequest::Coverage(tables::COVERAGE_BUCKET_MICROS),
    ]);
    eecs_week.prepare(&[
        ReplayRequest::Names,
        ReplayRequest::Lifetime(tables::table1_lifetime_config(&eecs_week)),
    ]);

    let mut out = String::new();
    let mut push = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    push(tables::table1(&campus_week, &eecs_week).text);
    push(tables::table2(&campus_week, &eecs_week).text);
    push(tables::table3(&campus_week, &eecs_week).text);
    push(tables::table4(campus8, eecs8).text);
    push(tables::table5(&campus_week, &eecs_week).text);
    push(tables::fig1(&campus_week, &eecs_week).text);
    push(tables::fig2(&campus_week, &eecs_week).text);
    push(tables::fig3(campus8, eecs8).text);
    push(tables::fig4(&campus_week, &eecs_week).text);
    push(tables::fig5(&campus_week, &eecs_week).text);
    push(tables::names_report(&campus_week));
    push(tables::hierarchy_coverage(&campus_week));

    // The one-pass contracts: each index sorted its trace exactly once
    // per reorder window (CAMPUS 10 ms, EECS 5 ms), and each view
    // replayed (decoded) its records exactly once — the fused pass.
    for (name, passes, expect) in [
        ("campus week", campus_week.sort_passes(), 1),
        ("eecs week", eecs_week.sort_passes(), 1),
        ("campus 8-day", campus8.sort_passes(), 0),
        ("eecs 8-day", eecs8.sort_passes(), 0),
    ] {
        assert_eq!(passes, expect, "{name} sort passes");
    }
    for (name, view) in [
        ("campus week", &campus_week),
        ("eecs week", &eecs_week),
        ("campus 8-day", campus8),
        ("eecs 8-day", eecs8),
    ] {
        assert_eq!(view.decode_passes(), 1, "{name} decode passes");
    }
    out
}

/// Peak resident set size of this process so far, in kilobytes
/// (`VmHWM` on Linux; `None` elsewhere). What the `live` bin reports
/// alongside wall-clock; the benchmark's own memory rows are described
/// in `nfsbench/README.md`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
