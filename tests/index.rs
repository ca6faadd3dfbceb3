//! The TraceIndex contract: every artifact of the reproduction suite
//! over one index performs exactly one bucket+sort pass per (trace,
//! reorder window), and the index's products are identical to the
//! legacy slice-based computations.

use nfstrace::core::runs::RunOptions;
use nfstrace::core::time::DAY;
use nfstrace::core::{reorder, SummaryStats, TraceIndex, TraceView};
use nfstrace_bench::{scenarios, tables};

#[test]
fn repro_suite_sorts_each_trace_once_per_window() {
    // The repro binary's exact shape, at a small scale: one 8-day
    // generation per system, the analysis week as a time window.
    let (campus8, eecs8) = (
        TraceIndex::new(scenarios::campus(8, 0.1, 42)),
        TraceIndex::new(scenarios::eecs(8, 0.1, 1789)),
    );
    let campus_week = campus8.time_window(0, scenarios::WEEK_DAYS * DAY);
    let eecs_week = eecs8.time_window(0, scenarios::WEEK_DAYS * DAY);

    let _ = tables::table1(&campus_week, &eecs_week);
    let _ = tables::table2(&campus_week, &eecs_week);
    let _ = tables::table3(&campus_week, &eecs_week);
    let _ = tables::table4(&campus8, &eecs8);
    let _ = tables::table5(&campus_week, &eecs_week);
    let _ = tables::fig1(&campus_week, &eecs_week);
    let _ = tables::fig2(&campus_week, &eecs_week);
    let _ = tables::fig3(&campus8, &eecs8);
    let _ = tables::fig4(&campus_week, &eecs_week);
    let _ = tables::fig5(&campus_week, &eecs_week);
    let _ = tables::names_report(&campus_week);
    let _ = tables::hierarchy_coverage(&campus_week);

    // Week views: table3 raw+processed, fig2, and fig5 all need the
    // system's reorder window — one sort pass each, total.
    assert_eq!(campus_week.sort_passes(), 1, "campus week");
    assert_eq!(eecs_week.sort_passes(), 1, "eecs week");
    // The 8-day indices only serve the lifetime artifacts: no sorting.
    assert_eq!(campus8.sort_passes(), 0, "campus 8-day");
    assert_eq!(eecs8.sort_passes(), 0, "eecs 8-day");
}

#[test]
fn index_products_match_legacy_paths_on_generated_trace() {
    let records = scenarios::campus(2, 0.1, 7);
    let idx = TraceIndex::new(records.clone());

    // Summary and hourly: the one-pass build vs dedicated passes.
    assert_eq!(idx.summary(), &SummaryStats::from_records(records.iter()));
    assert_eq!(
        idx.hourly(),
        &nfstrace::core::hourly::HourlySeries::from_records(records.iter())
    );

    // Run tables: index cache vs the legacy bucket-then-sort pipeline.
    for (window, opts) in [
        (0u64, RunOptions::raw()),
        (10, RunOptions::raw()),
        (10, RunOptions::default()),
    ] {
        let mut per_file = reorder::accesses_by_file(records.iter());
        for (_, list) in &mut per_file {
            let list: &mut Vec<_> = std::sync::Arc::make_mut(list);
            reorder::sort_within_window(list, window * 1000);
        }
        let legacy = nfstrace::core::runs::runs_for_trace(&per_file, opts);
        assert_eq!(
            idx.runs(window, opts).as_ref(),
            &legacy,
            "window={window} opts={opts:?}"
        );
    }

    // Lifetime: index cache vs direct analysis.
    let cfg = nfstrace::core::lifetime::LifetimeConfig::daily(DAY / 2);
    assert_eq!(
        idx.lifetime(cfg).as_ref(),
        &nfstrace::core::lifetime::analyze(records.iter(), cfg)
    );

    // Names: index cache vs direct report.
    assert_eq!(
        idx.names().as_ref(),
        &nfstrace::core::names::NamePredictionReport::from_records(records.iter())
    );
}

#[test]
fn time_window_matches_filtered_rebuild() {
    let records = scenarios::eecs(2, 0.1, 3);
    let idx = TraceIndex::new(records.clone());
    let window = idx.time_window(DAY / 4, DAY);
    let filtered: Vec<_> = records
        .iter()
        .filter(|r| (DAY / 4..DAY).contains(&r.micros))
        .cloned()
        .collect();
    let rebuilt = TraceIndex::new(filtered);
    assert_eq!(window.len(), rebuilt.len());
    assert_eq!(window.summary(), rebuilt.summary());
    assert_eq!(
        window.runs(5, RunOptions::default()).as_ref(),
        rebuilt.runs(5, RunOptions::default()).as_ref()
    );
}
