//! One function per paper artifact, producing its printable text.
//!
//! Every artifact is generic over [`TraceView`] — the analysis surface
//! both the in-memory `TraceIndex` and the out-of-core
//! `nfstrace_store::StoreIndex` implement — so the same code serves
//! traces held in RAM and traces streamed from a chunked store. The
//! index is built once per trace (one bucketing pass) and every table
//! and figure below pulls its reorder-corrected access streams, run
//! tables, lifetime reports, and hourly buckets from the index's
//! caches. Running the whole suite sorts each trace exactly once per
//! reorder window.

use nfstrace_core::historical;
use nfstrace_core::index::TraceView;
use nfstrace_core::lifetime::LifetimeConfig;
use nfstrace_core::names::FileCategory;
use nfstrace_core::runs::{PatternTable, Run, RunOptions, SizeProfile};
use nfstrace_core::seqmetric::{cumulative_runs_by_size, metric_by_run_size};
use nfstrace_core::time::{DAY, HOUR};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The paper's reorder windows: 5 ms for EECS, 10 ms for CAMPUS (§4.2).
pub(crate) const WINDOW_CAMPUS_MS: u64 = 10;
/// See [`WINDOW_CAMPUS_MS`].
pub(crate) const WINDOW_EECS_MS: u64 = 5;

/// The measurement interval [`hierarchy_coverage`] buckets by
/// (30 minutes) — public so replay-fusing callers can pre-register the
/// coverage request (`repro` does, via [`TraceView::prepare`]).
pub const COVERAGE_BUCKET_MICROS: u64 = 30 * 60 * 1_000_000;

/// The Wednesday 9am–12pm sub-window [`fig1`] sweeps, as
/// `(start, end)` in microseconds — public so the out-of-core decode
/// accounting in `repro --via store` can count the chunks its construction
/// touches.
pub const FIG1_WINDOW_MICROS: (u64, u64) = (3 * DAY + 9 * HOUR, 3 * DAY + 12 * HOUR);

/// A rendered paper artifact: the text the suite prints for it.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Rendered text.
    pub text: String,
}

/// The whole-span lifetime window [`table1`] derives its median block
/// lifetime from — public so replay-fusing callers can pre-register it
/// and keep Table 1 from costing a replay pass of its own.
pub fn table1_lifetime_config<V: TraceView>(idx: &V) -> LifetimeConfig {
    let s = idx.summary();
    let span_days = ((s.last_micros - s.first_micros) / DAY).max(1);
    LifetimeConfig {
        phase1_start: 0,
        phase1_len: span_days / 2 * DAY + DAY / 2,
        phase2_len: span_days / 2 * DAY + DAY / 2,
    }
}

/// Table 1, the qualitative characterization, computed from week-long
/// traces.
pub fn table1<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let mut data_fraction = [0.0; 2];
    let mut rw_bytes = [0.0; 2];
    let mut lock_churn = [0.0; 2];
    let mut median_life = [None, None];
    let mut ow_frac = [0.0; 2];
    for (i, idx) in [campus, eecs].into_iter().enumerate() {
        let s = idx.summary();
        data_fraction[i] = s.data_fraction();
        rw_bytes[i] = s.rw_bytes_ratio();
        lock_churn[i] = idx.names().lock_fraction_of_churn();
        let rep = idx.lifetime(table1_lifetime_config(idx));
        median_life[i] = rep.median_lifespan().map(|m| m as f64 / 1e6);
        let deaths = rep.deaths_total().max(1);
        ow_frac[i] = rep.deaths_overwrite as f64 / deaths as f64;
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 1: Characteristics of CAMPUS and EECS (measured)"
    );
    let _ = writeln!(text, "{:<46} {:>10} {:>10}", "", "CAMPUS", "EECS");
    let _ = writeln!(
        text,
        "{:<46} {:>9.0}% {:>9.0}%",
        "NFS calls that move data",
        100.0 * data_fraction[0],
        100.0 * data_fraction[1]
    );
    let _ = writeln!(
        text,
        "{:<46} {:>10.2} {:>10.2}",
        "Read/write ratio (bytes)", rw_bytes[0], rw_bytes[1]
    );
    let _ = writeln!(
        text,
        "{:<46} {:>9.0}% {:>9.0}%",
        "Created+deleted files that are locks",
        100.0 * lock_churn[0],
        100.0 * lock_churn[1]
    );
    let _ = writeln!(
        text,
        "{:<46} {:>10} {:>10}",
        "Median block lifetime",
        median_life[0].map_or("-".into(), |m| format!("{m:.0} s")),
        median_life[1].map_or("-".into(), |m| format!("{m:.2} s")),
    );
    let _ = writeln!(
        text,
        "{:<46} {:>9.0}% {:>9.0}%",
        "Block deaths due to overwriting",
        100.0 * ow_frac[0],
        100.0 * ow_frac[1]
    );
    Rendered { text }
}

/// Table 2, average daily activity with the historical columns, from
/// week-long traces.
pub fn table2<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let sc = campus.summary().daily();
    let se = eecs.summary().daily();
    let mut text = String::new();
    let _ = writeln!(text, "Table 2: summary of average daily activity");
    let _ = writeln!(
        text,
        "{:<24} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "", "CAMPUS", "EECS", "INS", "RES", "NT", "Sprite"
    );
    let hist = &historical::TABLE2_HISTORICAL;
    let line = |label: &str, c: f64, e: f64, h: [f64; 4], prec: usize| {
        format!(
            "{label:<24} {c:>10.prec$} {e:>10.prec$} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            h[0], h[1], h[2], h[3]
        )
    };
    let hcol = |f: fn(&historical::DailyActivityRow) -> f64| {
        [f(&hist[0]), f(&hist[1]), f(&hist[2]), f(&hist[3])]
    };
    let _ = writeln!(
        text,
        "{}",
        line(
            "Total ops (millions)",
            sc.total_ops_millions,
            se.total_ops_millions,
            hcol(|h| h.total_ops_millions),
            3,
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "Data read (GB)",
            sc.data_read_gb,
            se.data_read_gb,
            hcol(|h| h.data_read_gb),
            3
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "Read ops (millions)",
            sc.read_ops_millions,
            se.read_ops_millions,
            hcol(|h| h.read_ops_millions),
            4,
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "Data written (GB)",
            sc.data_written_gb,
            se.data_written_gb,
            hcol(|h| h.data_written_gb),
            3,
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "Write ops (millions)",
            sc.write_ops_millions,
            se.write_ops_millions,
            hcol(|h| h.write_ops_millions),
            4,
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "R/W bytes ratio",
            sc.rw_bytes_ratio,
            se.rw_bytes_ratio,
            hcol(|h| h.rw_bytes_ratio),
            2
        )
    );
    let _ = writeln!(
        text,
        "{}",
        line(
            "R/W ops ratio",
            sc.rw_ops_ratio,
            se.rw_ops_ratio,
            hcol(|h| h.rw_ops_ratio),
            2
        )
    );
    let _ = writeln!(
        text,
        "(paper: CAMPUS R/W bytes {:.2}, EECS {:.2})",
        historical::TABLE2_PAPER[0].rw_bytes_ratio,
        historical::TABLE2_PAPER[1].rw_bytes_ratio
    );
    Rendered { text }
}

/// Table 3, run patterns raw and processed, from week-long traces.
pub fn table3<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let raw = [
        PatternTable::from_runs(&campus.runs(WINDOW_CAMPUS_MS, RunOptions::raw())),
        PatternTable::from_runs(&eecs.runs(WINDOW_EECS_MS, RunOptions::raw())),
    ];
    let processed = [
        PatternTable::from_runs(&campus.runs(WINDOW_CAMPUS_MS, RunOptions::default())),
        PatternTable::from_runs(&eecs.runs(WINDOW_EECS_MS, RunOptions::default())),
    ];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 3: file access patterns (entire/sequential/random)"
    );
    let _ = writeln!(
        text,
        "{:<22} {:>8} {:>8} | {:>8} {:>8} | {:>7} {:>7} {:>7}",
        "", "CAMPUS", "EECS", "CAMPUS", "EECS", "NT", "Sprite", "BSD"
    );
    let _ = writeln!(
        text,
        "{:<22} {:>8} {:>8} | {:>8} {:>8} |",
        "", "raw", "raw", "proc", "proc"
    );
    let hist = &historical::TABLE3_HISTORICAL;
    let mut push = |label: &str, get: &dyn Fn(&PatternTable) -> f64, h: [f64; 3]| {
        let _ = writeln!(
            text,
            "{label:<22} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>7.1} {:>7.1} {:>7.1}",
            get(&raw[0]),
            get(&raw[1]),
            get(&processed[0]),
            get(&processed[1]),
            h[0],
            h[1],
            h[2]
        );
    };
    push(
        "Reads (% total)",
        &|t| t.reads_pct,
        [hist[0].reads[0], hist[1].reads[0], hist[2].reads[0]],
    );
    push(
        "  Entire (% read)",
        &|t| t.read_entire_pct,
        [hist[0].reads[1], hist[1].reads[1], hist[2].reads[1]],
    );
    push(
        "  Sequential (% read)",
        &|t| t.read_sequential_pct,
        [hist[0].reads[2], hist[1].reads[2], hist[2].reads[2]],
    );
    push(
        "  Random (% read)",
        &|t| t.read_random_pct,
        [hist[0].reads[3], hist[1].reads[3], hist[2].reads[3]],
    );
    push(
        "Writes (% total)",
        &|t| t.writes_pct,
        [hist[0].writes[0], hist[1].writes[0], hist[2].writes[0]],
    );
    push(
        "  Entire (% write)",
        &|t| t.write_entire_pct,
        [hist[0].writes[1], hist[1].writes[1], hist[2].writes[1]],
    );
    push(
        "  Sequential (% write)",
        &|t| t.write_sequential_pct,
        [hist[0].writes[2], hist[1].writes[2], hist[2].writes[2]],
    );
    push(
        "  Random (% write)",
        &|t| t.write_random_pct,
        [hist[0].writes[3], hist[1].writes[3], hist[2].writes[3]],
    );
    push(
        "Read-Write (% total)",
        &|t| t.rw_pct,
        [
            hist[0].read_writes[0],
            hist[1].read_writes[0],
            hist[2].read_writes[0],
        ],
    );
    push(
        "  Random (% r-w)",
        &|t| t.rw_random_pct,
        [
            hist[0].read_writes[3],
            hist[1].read_writes[3],
            hist[2].read_writes[3],
        ],
    );
    Rendered { text }
}

/// Table 4, block births and deaths over the five weekday windows
/// (requires ≥ 8 days of trace for full margins).
pub fn table4<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let rc = campus.weekday_lifetime();
    let re = eecs.weekday_lifetime();
    let pct = |n: u64, d: u64| {
        if d == 0 {
            0.0
        } else {
            100.0 * n as f64 / d as f64
        }
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 4: daily block life statistics (five weekday windows)"
    );
    let _ = writeln!(text, "{:<28} {:>12} {:>12}", "", "CAMPUS", "EECS");
    let _ = writeln!(
        text,
        "{:<28} {:>12} {:>12}",
        "Total births",
        rc.births_total(),
        re.births_total()
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "  due to writes",
        pct(rc.births_write, rc.births_total()),
        pct(re.births_write, re.births_total())
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "  due to extension",
        pct(rc.births_extension, rc.births_total()),
        pct(re.births_extension, re.births_total())
    );
    let _ = writeln!(
        text,
        "{:<28} {:>12} {:>12}",
        "Total deaths",
        rc.deaths_total(),
        re.deaths_total()
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "  due to overwrites",
        pct(rc.deaths_overwrite, rc.deaths_total()),
        pct(re.deaths_overwrite, re.deaths_total())
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "  due to truncates",
        pct(rc.deaths_truncate, rc.deaths_total()),
        pct(re.deaths_truncate, re.deaths_total())
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "  due to file deletion",
        pct(rc.deaths_delete, rc.deaths_total()),
        pct(re.deaths_delete, re.deaths_total())
    );
    let _ = writeln!(
        text,
        "{:<28} {:>11.1}% {:>11.1}%",
        "End surplus / births",
        100.0 * rc.end_surplus_fraction(),
        100.0 * re.end_surplus_fraction()
    );
    let _ = writeln!(text, "(paper: CAMPUS overwrites 99.1%, EECS deletes 51.8%)");
    Rendered { text }
}

/// Table 5, hourly averages over all hours and peak hours, from
/// week-long traces.
pub fn table5<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let sc = campus.hourly();
    let se = eecs.hourly();
    let all = [sc.table5(false), se.table5(false)];
    let peak = [sc.table5(true), se.table5(true)];
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 5: average hourly activity (std dev as % of mean)"
    );
    for (label, rows) in [("All hours", &all), ("Peak hours (9am-6pm M-F)", &peak)] {
        let _ = writeln!(text, "-- {label}");
        let _ = writeln!(text, "{:<24} {:>18} {:>18}", "", "CAMPUS", "EECS");
        let mut push = |name: &str,
                        f: &dyn Fn(
            &nfstrace_core::hourly::Table5Row,
        ) -> nfstrace_core::hourly::MeanStd| {
            let c = f(&rows[0]);
            let e = f(&rows[1]);
            let _ = writeln!(
                text,
                "{name:<24} {:>9.1} ({:>4.0}%) {:>9.1} ({:>4.0}%)",
                c.mean,
                c.std_pct(),
                e.mean,
                e.std_pct()
            );
        };
        push("Total ops (1000s)", &|r| scale_row(r.total_ops, 1e3));
        push("Data read (MB)", &|r| r.data_read_mb);
        push("Read ops (1000s)", &|r| scale_row(r.read_ops, 1e3));
        push("Data written (MB)", &|r| r.data_written_mb);
        push("Write ops (1000s)", &|r| scale_row(r.write_ops, 1e3));
        push("R/W op ratio", &|r| r.rw_op_ratio);
    }
    Rendered { text }
}

fn scale_row(ms: nfstrace_core::hourly::MeanStd, div: f64) -> nfstrace_core::hourly::MeanStd {
    nfstrace_core::hourly::MeanStd {
        mean: ms.mean / div,
        std: ms.std / div,
    }
}

/// Figure 1, the swapped-access fraction against the reorder window,
/// from the Wednesday 9am–12pm subset, as the paper
/// does. The subset is a zero-copy time window of the index; the sweep
/// itself is sharded across files.
pub fn fig1<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let windows: Vec<u64> = (0..=50).step_by(2).collect();
    let sweep = |idx: &V| -> Vec<(u64, f64)> {
        idx.time_window(FIG1_WINDOW_MICROS.0, FIG1_WINDOW_MICROS.1)
            .swap_sweep(&windows)
            .into_iter()
            .map(|p| (p.window_ms, 100.0 * p.swapped_fraction))
            .collect()
    };
    let c = sweep(campus);
    let e = sweep(eecs);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 1: percent of accesses swapped vs reorder window (Wed 9am-12pm)"
    );
    let _ = writeln!(
        text,
        "{:>10} {:>10} {:>10}",
        "window ms", "CAMPUS %", "EECS %"
    );
    for (i, &(w, cv)) in c.iter().enumerate() {
        let _ = writeln!(text, "{w:>10} {cv:>10.2} {:>10.2}", e[i].1);
    }
    Rendered { text }
}

/// Figure 2: cumulative % of bytes by file size, per pattern.
pub fn fig2<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let rc = campus.runs(WINDOW_CAMPUS_MS, RunOptions::default());
    let re = eecs.runs(WINDOW_EECS_MS, RunOptions::default());
    let pc = SizeProfile::from_runs(&rc);
    let pe = SizeProfile::from_runs(&re);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 2: cumulative % of bytes accessed vs file size"
    );
    for (label, p) in [("CAMPUS", &pc), ("EECS", &pe)] {
        let total = p.grand_total();
        let _ = writeln!(text, "-- {label}");
        let _ = writeln!(
            text,
            "{:>10} {:>8} {:>8} {:>8} {:>8}",
            "file size", "total%", "entire%", "seq%", "random%"
        );
        let cum_t = SizeProfile::cumulative_pct(&p.total, total);
        let cum_e = SizeProfile::cumulative_pct(&p.entire, total);
        let cum_s = SizeProfile::cumulative_pct(&p.sequential, total);
        let cum_r = SizeProfile::cumulative_pct(&p.random, total);
        for i in 0..cum_t.len() {
            if cum_t[i].1 == 0.0 && i + 1 < cum_t.len() && cum_t[i + 1].1 == 0.0 {
                continue; // skip empty leading buckets
            }
            let _ = writeln!(
                text,
                "{:>10} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                human(cum_t[i].0),
                cum_t[i].1,
                cum_e[i].1,
                cum_s[i].1,
                cum_r[i].1
            );
        }
    }
    Rendered { text }
}

fn human(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{}G", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else {
        format!("{}k", bytes >> 10)
    }
}

/// Figure 3, block lifetime CDFs, from the weekday lifetime windows (shared with
/// Table 4 through the index cache).
pub fn fig3<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let probes = nfstrace_core::lifetime::figure3_probes();
    let rc = campus.weekday_lifetime();
    let re = eecs.weekday_lifetime();
    let c = rc.cdf(&probes);
    let e = re.cdf(&probes);
    let mut text = String::new();
    let _ = writeln!(text, "Figure 3: cumulative distribution of block lifetimes");
    let _ = writeln!(text, "{:>10} {:>10} {:>10}", "lifetime", "CAMPUS", "EECS");
    for (i, &(p, cv)) in c.iter().enumerate() {
        let label = if p >= DAY {
            "1 day".to_string()
        } else if p >= HOUR {
            format!("{} hr", p / HOUR)
        } else if p >= 60_000_000 {
            format!("{} min", p / 60_000_000)
        } else {
            format!("{} sec", p / 1_000_000)
        };
        let _ = writeln!(
            text,
            "{label:>10} {:>9.1}% {:>9.1}%",
            100.0 * cv,
            100.0 * e[i].1
        );
    }
    Rendered { text }
}

/// Figure 4: hourly ops and R/W ratios across the week, one line per
/// 3 hours.
pub fn fig4<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    let sc = campus.hourly();
    let se = eecs.hourly();
    let mut text = String::new();
    let _ = writeln!(text, "Figure 4: hourly operation counts and R/W ratios");
    let _ = writeln!(
        text,
        "{:>14} {:>10} {:>10} {:>8} {:>8}",
        "hour", "CAMPUS ops", "EECS ops", "C r/w", "E r/w"
    );
    let ce: HashMap<u64, _> = se.iter().map(|(t, b)| (t, *b)).collect();
    for (t, b) in sc.iter() {
        if !(t / HOUR).is_multiple_of(3) {
            continue;
        }
        let e = ce.get(&t).copied().unwrap_or_default();
        let _ = writeln!(
            text,
            "{:>14} {:>10} {:>10} {:>8} {:>8}",
            nfstrace_core::time::format_micros(t),
            b.ops,
            e.ops,
            b.rw_ratio().map_or("-".into(), |r| format!("{r:.1}")),
            e.rw_ratio().map_or("-".into(), |r| format!("{r:.1}")),
        );
    }
    Rendered { text }
}

/// Figure 5, the sequentiality metric against run size (its run tables are cache hits after Figure 2).
pub fn fig5<V: TraceView>(campus: &V, eecs: &V) -> Rendered {
    use nfstrace_core::runs::RunKind;
    let rc = campus.runs(WINDOW_CAMPUS_MS, RunOptions::default());
    let re = eecs.runs(WINDOW_EECS_MS, RunOptions::default());
    let f = |runs: &[Run], kind: RunKind| {
        (
            metric_by_run_size(runs, kind, 10),
            metric_by_run_size(runs, kind, 1),
        )
    };
    let campus_reads = f(&rc, RunKind::Read);
    let campus_writes = f(&rc, RunKind::Write);
    let eecs_reads = f(&re, RunKind::Read);
    let eecs_writes = f(&re, RunKind::Write);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 5: mean sequentiality metric vs bytes accessed in run"
    );
    for (label, (k10, k1)) in [
        ("CAMPUS reads", &campus_reads),
        ("CAMPUS writes", &campus_writes),
        ("EECS reads", &eecs_reads),
        ("EECS writes", &eecs_writes),
    ] {
        let _ = writeln!(text, "-- {label}");
        let _ = writeln!(
            text,
            "{:>10} {:>8} {:>14} {:>18}",
            "run bytes", "runs", "jumps allowed", "jumps not allowed"
        );
        for (a, b) in k10.iter().zip(k1) {
            if a.runs == 0 {
                continue;
            }
            let _ = writeln!(
                text,
                "{:>10} {:>8} {:>14.2} {:>18.2}",
                human(a.bucket),
                a.runs,
                a.mean_metric,
                b.mean_metric
            );
        }
    }
    let _ = writeln!(text, "-- cumulative % of runs by size (CAMPUS)");
    for (b, t, r, w) in cumulative_runs_by_size(&rc) {
        let _ = writeln!(
            text,
            "{:>10} total {t:>6.1}% read {r:>6.1}% write {w:>6.1}%",
            human(b)
        );
    }
    Rendered { text }
}

/// §4.1.1: hierarchy-reconstruction coverage over time.
pub fn hierarchy_coverage<V: TraceView>(idx: &V) -> String {
    let pts = idx.hierarchy_coverage(COVERAGE_BUCKET_MICROS);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Hierarchy reconstruction coverage (30-minute buckets)"
    );
    for p in pts.iter().take(16) {
        let _ = writeln!(
            text,
            "{:>14} {:>6.1}%",
            nfstrace_core::time::format_micros(p.micros),
            100.0 * p.known_fraction
        );
    }
    text
}

/// §6.3: name-based prediction summary.
pub fn names_report<V: TraceView>(idx: &V) -> String {
    let rep = idx.names();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Name prediction: {} files created, {} created+deleted, {:.1}% of churn is locks, {} renames",
        rep.total_created,
        rep.total_created_and_deleted,
        100.0 * rep.lock_fraction_of_churn(),
        rep.renames
    );
    let _ = writeln!(
        text,
        "{:<14} {:>7} {:>9} {:>9} {:>10} {:>10}",
        "category", "files", "size-acc", "life-acc", "p50 life", "p99 life"
    );
    let mut cats: Vec<(&FileCategory, &nfstrace_core::names::CategoryStats)> =
        rep.by_category.iter().collect();
    cats.sort_by_key(|(_, s)| std::cmp::Reverse(s.files));
    for (cat, s) in cats {
        let fmt_life =
            |p: Option<u64>| p.map_or("-".to_string(), |v| format!("{:.2}s", v as f64 / 1e6));
        let _ = writeln!(
            text,
            "{:<14} {:>7} {:>8.0}% {:>8.0}% {:>10} {:>10}",
            cat.label(),
            s.files,
            100.0 * s.size_accuracy(),
            100.0 * s.lifetime_accuracy(),
            fmt_life(s.lifetime_percentile(50.0)),
            fmt_life(s.lifetime_percentile(99.0)),
        );
    }
    text
}
