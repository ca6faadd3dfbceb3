//! The full reproduction suite as a reusable, view-generic function.
//!
//! `repro` prints **the same bytes** for the same records over every
//! `--via` path (in memory, out of core, live segment directories,
//! the socket loop); keeping the suite in one place is what makes
//! "byte-identical stdout" a meaningful cross-path assertion (CI
//! `cmp`s the outputs). [`ARTIFACTS`] is that place: the
//! full suite is every entry in order, and `repro --only <artifact>` is
//! one entry over the same views — so a single table prints exactly
//! the numbers the suite prints for it.

use crate::{scenarios, tables};
use nfstrace_core::index::{ReplayRequest, TraceView};
use nfstrace_core::time::DAY;

/// Every artifact of the suite, by the name `repro --only` takes, in
/// the order [`suite_text`] prints them.
pub const ARTIFACTS: [&str; 12] = [
    "table1", "table2", "table3", "table4", "table5", "fig1", "fig2", "fig3", "fig4", "fig5",
    "names", "coverage",
];

/// The views the artifacts draw from: the 8-day pair (the lifetime
/// analyses need the Friday end margin) and its analysis-week windows.
struct Views<'a, V> {
    campus8: &'a V,
    eecs8: &'a V,
    campus_week: V,
    eecs_week: V,
}

impl<'a, V: TraceView> Views<'a, V> {
    fn new(campus8: &'a V, eecs8: &'a V) -> Self {
        let week = scenarios::WEEK_DAYS * DAY;
        Views {
            campus8,
            eecs8,
            campus_week: campus8.time_window(0, week),
            eecs_week: eecs8.time_window(0, week),
        }
    }

    /// One [`ARTIFACTS`] entry's text; `None` for any other name.
    fn render(&self, artifact: &str) -> Option<String> {
        let (c8, e8) = (self.campus8, self.eecs8);
        let (cw, ew) = (&self.campus_week, &self.eecs_week);
        Some(match artifact {
            "table1" => tables::table1(cw, ew).text,
            "table2" => tables::table2(cw, ew).text,
            "table3" => tables::table3(cw, ew).text,
            "table4" => tables::table4(c8, e8).text,
            "table5" => tables::table5(cw, ew).text,
            "fig1" => tables::fig1(cw, ew).text,
            "fig2" => tables::fig2(cw, ew).text,
            "fig3" => tables::fig3(c8, e8).text,
            "fig4" => tables::fig4(cw, ew).text,
            "fig5" => tables::fig5(cw, ew).text,
            "names" => tables::names_report(cw),
            "coverage" => tables::hierarchy_coverage(cw),
            _ => return None,
        })
    }
}

/// Renders one artifact over the 8-day pair — what `repro --only`
/// prints. `None` unless `artifact` is one of [`ARTIFACTS`]. Only the
/// analyses that artifact needs are computed.
pub fn artifact_text<V: TraceView>(campus8: &V, eecs8: &V, artifact: &str) -> Option<String> {
    Views::new(campus8, eecs8).render(artifact)
}

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
    let views = Views::new(campus8, eecs8);
    let (campus_week, eecs_week) = (&views.campus_week, &views.eecs_week);

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
        ReplayRequest::Lifetime(tables::table1_lifetime_config(campus_week)),
        ReplayRequest::Coverage(tables::COVERAGE_BUCKET_MICROS),
    ]);
    eecs_week.prepare(&[
        ReplayRequest::Names,
        ReplayRequest::Lifetime(tables::table1_lifetime_config(eecs_week)),
    ]);

    let mut out = String::new();
    for artifact in ARTIFACTS {
        out.push_str(
            &views
                .render(artifact)
                .expect("every listed artifact renders"),
        );
        out.push('\n');
    }

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
        ("campus week", campus_week),
        ("eecs week", eecs_week),
        ("campus 8-day", campus8),
        ("eecs 8-day", eecs8),
    ] {
        assert_eq!(view.decode_passes(), 1, "{name} decode passes");
    }
    out
}

/// Peak resident set size of this process so far, in kilobytes
/// (`VmHWM` on Linux; `None` elsewhere) — the benchmark's
/// `bench.vm_hwm_mib` row (`nfsbench/README.md`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
