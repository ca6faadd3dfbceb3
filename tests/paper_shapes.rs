//! Shape assertions: the qualitative relations each paper artifact
//! reports must hold on small regenerated traces.

use nfstrace::client::ReorderStats;
use nfstrace::core::lifetime;
use nfstrace::core::record::{FileId, Op, TraceRecord};
use nfstrace::core::reorder;
use nfstrace::core::runs::{RunKind, RunOptions};
use nfstrace::core::seqmetric::metric_by_run_size;
use nfstrace::core::summary::SummaryStats;
use nfstrace::core::time::DAY;
use nfstrace::core::{TraceIndex, TraceView};
use std::sync::OnceLock;

fn campus() -> &'static TraceIndex {
    static TRACE: OnceLock<TraceIndex> = OnceLock::new();
    TRACE.get_or_init(|| TraceIndex::new(nfstrace_bench::scenarios::campus(3, 0.25, 42)))
}

fn eecs() -> &'static TraceIndex {
    static TRACE: OnceLock<TraceIndex> = OnceLock::new();
    TRACE.get_or_init(|| TraceIndex::new(nfstrace_bench::scenarios::eecs(3, 0.25, 1789)))
}

#[test]
fn table1_shape_campus_reads_eecs_writes() {
    let sc = campus().summary();
    let se = eecs().summary();
    // CAMPUS: reading dominates; EECS: writing dominates (Table 1).
    assert!(sc.rw_bytes_ratio() > 1.5, "campus {}", sc.rw_bytes_ratio());
    assert!(se.rw_bytes_ratio() < 1.0, "eecs {}", se.rw_bytes_ratio());
    // CAMPUS: most calls are data; EECS: most are metadata.
    assert!(sc.data_fraction() > 0.5);
    assert!(se.data_fraction() < 0.5);
}

#[test]
fn table2_shape_campus_busier() {
    // The index's one-pass summary must agree with a fresh legacy pass.
    let sc = campus().summary();
    let se = eecs().summary();
    assert_eq!(sc, &SummaryStats::from_records(campus().records().iter()));
    // "CAMPUS is an order of magnitude busier than any of the other
    // systems" — per capita it far out-traffics EECS here.
    assert!(sc.bytes_read > 4 * se.bytes_read);
}

#[test]
fn table3_processing_recovers_sequentiality() {
    // One file read in 8 KiB blocks, 100 ms apart, with the reads of
    // blocks 2 and 3 swapped 1 ms apart: raw, its one run is random.
    let swapped = TraceIndex::new(
        [
            (0, 0),
            (100, 1),
            (200, 3),
            (201, 2),
            (300, 4),
            (400, 5),
            (500, 6),
        ]
        .map(|(ms, block)| {
            TraceRecord::new(ms * 1000, Op::Read, FileId(1)).with_range(block * 8192, 8192)
        })
        .to_vec(),
    );
    let random_frac = |runs: &[nfstrace::core::runs::Run]| {
        let total = runs.len().max(1) as f64;
        runs.iter()
            .filter(|r| r.pattern == nfstrace::core::runs::RunPattern::Random)
            .count() as f64
            / total
    };
    for (idx, win, strict) in [
        (campus(), 10u64, false),
        (eecs(), 5, false),
        (&swapped, 10, true),
    ] {
        let raw = random_frac(&idx.runs(0, RunOptions::raw()));
        let processed = random_frac(&idx.runs(win, RunOptions::default()));
        // The paper's point: raw analysis overstates randomness.
        let recovered = if strict {
            processed < raw
        } else {
            processed <= raw + 1e-9
        };
        assert!(
            recovered,
            "window {win}: processed {processed} vs raw {raw}"
        );
    }
}

#[test]
fn fig1_swapped_fraction_monotone_with_knee() {
    let per_file = reorder::accesses_by_file(campus().records().iter());
    let pts = reorder::swap_fraction_sweep(&per_file, &[0, 2, 5, 10, 20, 50]);
    assert_eq!(pts[0].swapped_fraction, 0.0);
    for w in pts.windows(2) {
        assert!(w[1].swapped_fraction >= w[0].swapped_fraction - 1e-12);
    }
    // The knee: most of the gain arrives by 20 ms.
    let at20 = pts[4].swapped_fraction;
    let at50 = pts[5].swapped_fraction;
    assert!(at50 - at20 < 0.05, "at20={at20} at50={at50}");
}

#[test]
fn table4_death_causes_differ_by_system() {
    let cfg = lifetime::LifetimeConfig {
        phase1_start: DAY,
        phase1_len: DAY,
        phase2_len: DAY,
    };
    let rc = campus().lifetime(cfg);
    let re = eecs().lifetime(cfg);
    // CAMPUS deaths are overwhelmingly overwrites; EECS has a large
    // delete share (Table 4).
    let c_ow = rc.deaths_overwrite as f64 / rc.deaths_total().max(1) as f64;
    let e_del = re.deaths_delete as f64 / re.deaths_total().max(1) as f64;
    assert!(c_ow > 0.8, "campus overwrite fraction {c_ow}");
    assert!(e_del > 0.2, "eecs delete fraction {e_del}");
}

#[test]
fn table4_weekday_windows_conserve_blocks() {
    // On the suite's own 8-day traces, every Phase-1-born block of the
    // five weekday windows ends as a counted death or as end surplus
    // (a discarded death is counted in the surplus).
    let (campus8, eecs8) = nfstrace_bench::scenarios::eight_day_index_pair(0.1);
    for (system, idx) in [("CAMPUS", &campus8), ("EECS", &eecs8)] {
        let r = idx.weekday_lifetime();
        assert!(r.births_total() > 0, "{system}: no births");
        assert_eq!(
            r.births_total(),
            r.deaths_total() + r.end_surplus,
            "{system}: {} deaths, {} surplus",
            r.deaths_total(),
            r.end_surplus
        );
    }
}

#[test]
fn fig3_eecs_blocks_die_much_faster() {
    let cfg = lifetime::LifetimeConfig {
        phase1_start: DAY,
        phase1_len: DAY,
        phase2_len: DAY,
    };
    let rc = campus().lifetime(cfg);
    let re = eecs().lifetime(cfg);
    // The lifetime mixes are bimodal, so compare the CDF at one second:
    // EECS has a large sub-second population (paper: ~50%), CAMPUS has
    // almost none ("few blocks live for less than a second").
    let sub_second = |rep: &lifetime::LifetimeReport| {
        rep.lifespans.iter().filter(|&&l| l < 1_000_000).count() as f64
            / rep.lifespans.len().max(1) as f64
    };
    assert!(sub_second(&re) > 0.3, "eecs sub-second {}", sub_second(&re));
    assert!(
        sub_second(&rc) < 0.15,
        "campus sub-second {}",
        sub_second(&rc)
    );
    // And CAMPUS's median block lives minutes (mail-session timescales).
    let mc = rc.median_lifespan().unwrap();
    assert!(mc > 60_000_000, "campus median {mc}");
}

#[test]
fn table5_peak_hours_cut_variance() {
    let series = campus().hourly();
    let all = series.table5(false);
    let peak = series.table5(true);
    assert!(
        peak.total_ops.std_pct() < all.total_ops.std_pct(),
        "peak {} vs all {}",
        peak.total_ops.std_pct(),
        all.total_ops.std_pct()
    );
}

#[test]
fn fig5_long_reads_more_sequential_than_writes() {
    let runs = campus().runs(10, RunOptions::default());
    let reads = metric_by_run_size(&runs, RunKind::Read, 10);
    // Long reads (1 MB+) are nearly fully sequential with jumps allowed.
    let long_reads: Vec<_> = reads
        .iter()
        .filter(|p| p.bucket >= 1 << 20 && p.runs > 0)
        .collect();
    assert!(!long_reads.is_empty());
    for p in long_reads {
        assert!(
            p.mean_metric > 0.8,
            "bucket {} metric {}",
            p.bucket,
            p.mean_metric
        );
    }
}

#[test]
fn names_predict_attributes() {
    let rep = campus().names();
    // Locks dominate churn (paper: 96% on CAMPUS).
    assert!(
        rep.lock_fraction_of_churn() > 0.5,
        "{}",
        rep.lock_fraction_of_churn()
    );
    let locks = &rep.by_category[&nfstrace::core::names::FileCategory::Lock];
    assert!(locks.size_accuracy() > 0.95);
    assert!(locks.lifetime_accuracy() > 0.95);
}

#[test]
fn hierarchy_coverage_climbs_within_minutes() {
    let pts = nfstrace::core::hierarchy::coverage_over_time(
        campus().records().iter(),
        10 * 60 * 1_000_000,
    );
    assert!(pts.len() > 3);
    let late: f64 = pts[pts.len() - 3..]
        .iter()
        .map(|p| p.known_fraction)
        .sum::<f64>()
        / 3.0;
    assert!(late > 0.5, "late coverage {late}");
}

#[test]
fn loss_message_loss_far_exceeds_packet_loss() {
    // §4.1.4, on one CAMPUS day replayed through the mirror-port model.
    let day = nfstrace_bench::scenarios::campus(1, 0.1, 42);
    let loss = nfstrace_bench::experiments::loss(&day);
    let [lossless, tcp, udp] = &loss.rows;
    assert_eq!(lossless.planned, day.len());

    // A lossless mirror delivers, and the sniffer pairs, every record.
    assert_eq!(lossless.mirror.dropped, 0);
    assert_eq!(lossless.intact, lossless.planned);
    assert_eq!(lossless.paired, lossless.planned);
    assert_eq!(lossless.sniffer.estimated_loss_rate(), 0.0);
    assert_eq!(lossless.sniffer.tcp_bytes_lost, 0);

    // Oversubscribed, one datagram per message: the sniffer pairs
    // exactly what the mirror delivered whole, and the pairs lost —
    // measured, not estimated — far exceed the packets lost.
    assert!(udp.mirror.drop_rate() > 0.05, "{}", udp.mirror.drop_rate());
    assert_eq!(udp.paired, udp.intact);
    assert!(udp.intact < udp.planned);
    assert!(
        udp.true_pair_loss() > udp.mirror.drop_rate(),
        "pair loss {} vs packet loss {}",
        udp.true_pair_loss(),
        udp.mirror.drop_rate()
    );
    assert!(udp.sniffer.estimated_loss_rate() > 0.0);

    // Over TCP a lost segment also costs pairs behind it in the stream.
    assert!(tcp.paired <= tcp.intact, "{} > {}", tcp.paired, tcp.intact);
    assert!(tcp.intact < tcp.planned);
    assert!(tcp.sniffer.orphan_replies + tcp.sniffer.lost_replies > 0);
}

#[test]
fn nfsiod_reordering_rises_with_daemons() {
    // §4.1.5: none at one nfsiod, more with each one added, ~10 % in
    // the most extreme case.
    let rows = nfstrace_bench::experiments::nfsiod().rows;
    assert_eq!(rows[0].daemons, 1);
    assert_eq!(rows[0].paced.reordered, 0);
    assert_eq!(rows[0].saturated.reordered, 0);
    for w in rows.windows(2) {
        assert!(w[1].daemons > w[0].daemons);
        let rising = |a: ReorderStats, b: ReorderStats| b.reorder_fraction() > a.reorder_fraction();
        assert!(rising(w[0].paced, w[1].paced), "{w:?}");
        assert!(rising(w[0].saturated, w[1].saturated), "{w:?}");
    }
    let most = rows.last().expect("rows");
    assert_eq!(most.daemons, 8);
    assert!(most.saturated.reorder_fraction() >= 0.10, "{most:?}");
}

#[test]
fn readahead_metric_beats_strict_under_reordering() {
    // §6.4: >5 % faster large sequential transfers at ~10 % reordering,
    // nothing lost on an in-order stream.
    let rows = nfstrace_bench::experiments::readahead().rows;
    let at = |pct: usize| {
        rows.iter()
            .find(|r| r.reordered_pct == pct)
            .unwrap_or_else(|| panic!("no {pct} % row"))
    };
    assert!(at(0).speedup().abs() <= 0.005, "{:?}", at(0));
    assert!(at(10).speedup() >= 0.05, "{:?}", at(10));
    for r in &rows {
        assert!(r.metric.total_micros <= r.strict.total_micros, "{r:?}");
    }
}
