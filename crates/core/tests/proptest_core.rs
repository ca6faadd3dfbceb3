//! Property tests on the analysis core's invariants.

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::reorder::{sort_within_window, Access};
use nfstrace_core::runs::{split_runs, RunOptions, RunPattern, BLOCK};
use nfstrace_core::seqmetric::sequentiality_metric;
use nfstrace_core::text;
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = Access> {
    (
        0u64..10_000_000,
        0u64..200,
        1u32..65536,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(micros, block, count, is_write, eof)| Access {
            micros,
            offset: block * BLOCK,
            count,
            is_write,
            eof,
            file_size: 0,
        })
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u64..1_000_000_000,
        0usize..Op::ALL.len(),
        0u64..1000,
        0u64..(1 << 30),
        0u32..65536,
        proptest::option::of("[a-zA-Z0-9._#~ %=-]{1,32}"),
        any::<bool>(),
        proptest::option::of(0u64..(1 << 31)),
    )
        .prop_map(|(micros, op_idx, fh, offset, count, name, eof, post)| {
            let mut r = TraceRecord::new(micros, Op::ALL[op_idx], FileId(fh));
            r.offset = offset;
            r.count = count;
            r.ret_count = count / 2;
            r.name = name;
            r.eof = eof;
            r.post_size = post;
            r.uid = (fh % 97) as u32;
            r.xid = fh as u32;
            r
        })
}

/// One step of a namespace-churning trace: a gap (µs) since the previous
/// record, then the record. Three directories (handles 1–3), eight files
/// (10–17) and four names, so names are re-bound, renamed over, removed
/// and RMDIR'd often, CREATEs fail (no new handle) and files are written
/// in between, some by WRITEs that move no bytes.
fn arb_namespace_step() -> impl Strategy<Value = (u64, TraceRecord)> {
    const NAMES: [&str; 4] = ["a", "inbox.lock", "inbox", "snd.1"];
    (
        0u64..30 * 60 * 1_000_000,
        0usize..10,
        1u64..4,
        0usize..NAMES.len(),
        0usize..NAMES.len(),
        1u64..4,
        10u64..18,
        any::<bool>(),
        0u64..8,
        0u32..3,
    )
        .prop_map(
            |(gap, kind, dir, name, name2, dir2, file, failed, block, blocks)| {
                let (dir, file) = (FileId(dir), FileId(file));
                let named = |op| TraceRecord::new(0, op, dir).with_name(NAMES[name]);
                let mut r = match kind {
                    0..=2 => {
                        let op = [Op::Lookup, Op::Create, Op::Mkdir][kind];
                        let mut r = named(op);
                        r.new_fh = (op != Op::Create || !failed).then_some(file);
                        r
                    }
                    3 => {
                        let mut r = named(Op::Rename);
                        r.name2 = Some(NAMES[name2].to_string());
                        r.fh2 = Some(FileId(dir2));
                        r
                    }
                    4 => named(Op::Remove),
                    5 => named(Op::Rmdir),
                    6 => TraceRecord::new(0, Op::Write, file)
                        .with_range(block * BLOCK, blocks * BLOCK as u32),
                    7 => {
                        let mut r = TraceRecord::new(0, Op::Setattr, file);
                        r.truncate_to = Some(block * BLOCK);
                        r
                    }
                    8 => TraceRecord::new(0, Op::Read, file).with_range(0, blocks * BLOCK as u32),
                    _ => TraceRecord::new(0, Op::Getattr, if failed { dir } else { file }),
                };
                r.ret_count = r.count;
                (gap, r)
            },
        )
}

/// A namespace-churning trace of up to 200 steps, stamped in time order:
/// about two days on average, so lifetime windows (which end within two
/// days of the start) see renames over written files before, inside and
/// after their phases.
fn arb_namespace_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(arb_namespace_step(), 0..200).prop_map(|steps| {
        let mut micros = 0;
        steps
            .into_iter()
            .map(|(gap, mut r)| {
                micros += gap;
                r.micros = micros;
                r
            })
            .collect()
    })
}

fn arb_lifetime_config() -> impl Strategy<Value = nfstrace_core::lifetime::LifetimeConfig> {
    const HOUR: u64 = 3_600_000_000;
    (0u64..24 * HOUR, 1u64..12 * HOUR, 1u64..12 * HOUR).prop_map(
        |(phase1_start, phase1_len, phase2_len)| nfstrace_core::lifetime::LifetimeConfig {
            phase1_start,
            phase1_len,
            phase2_len,
        },
    )
}

proptest! {
    /// A fused replay learns the namespace once for all its analyzers:
    /// name prediction, coverage and two lifetime windows computed in one
    /// pass equal each analysis run alone, on traces that churn names
    /// inside and outside the lifetime phases.
    #[test]
    fn fused_replay_equals_each_analysis_alone(
        records in arb_namespace_trace(),
        bucket in 1u64..2 * 3_600_000_000,
        c1 in arb_lifetime_config(),
        c2 in arb_lifetime_config(),
    ) {
        use nfstrace_core::hierarchy::coverage_over_time;
        use nfstrace_core::index::{ReplayRequest, TraceIndex, TraceView};
        use nfstrace_core::lifetime;
        use nfstrace_core::names::NamePredictionReport;

        let idx = TraceIndex::new(records.clone());
        idx.prepare(&[
            ReplayRequest::Names,
            ReplayRequest::Coverage(bucket),
            ReplayRequest::Lifetime(c1),
            ReplayRequest::Lifetime(c2),
        ]);
        prop_assert_eq!(
            idx.names().as_ref(),
            &NamePredictionReport::from_records(records.iter())
        );
        prop_assert_eq!(
            idx.hierarchy_coverage(bucket).as_ref(),
            &coverage_over_time(records.iter(), bucket)
        );
        prop_assert_eq!(idx.lifetime(c1).as_ref(), &lifetime::analyze(records.iter(), c1));
        prop_assert_eq!(idx.lifetime(c2).as_ref(), &lifetime::analyze(records.iter(), c2));
        prop_assert_eq!(idx.decode_passes(), 1);
    }

    /// Blocks are conserved in every lifetime window: each countable
    /// birth ends as a counted death or as end surplus (a discarded
    /// death is counted in `end_surplus`), on the same traces.
    #[test]
    fn lifetime_windows_conserve_blocks(
        records in arb_namespace_trace(),
        c1 in arb_lifetime_config(),
        c2 in arb_lifetime_config(),
    ) {
        use nfstrace_core::index::{ReplayRequest, TraceIndex, TraceView};

        let idx = TraceIndex::new(records);
        idx.prepare(&[ReplayRequest::Lifetime(c1), ReplayRequest::Lifetime(c2)]);
        for c in [c1, c2] {
            let report = idx.lifetime(c);
            prop_assert_eq!(
                report.births_total(),
                report.deaths_total() + report.end_surplus,
                "{:?}",
                c
            );
        }
    }

    /// The reorder sort never loses or duplicates accesses.
    #[test]
    fn reorder_sort_is_a_permutation(
        mut accesses in proptest::collection::vec(arb_access(), 0..200),
        window_ms in 0u64..50,
    ) {
        accesses.sort_by_key(|a| a.micros);
        let mut sorted = accesses.clone();
        sort_within_window(&mut sorted, window_ms * 1000);
        // Same multiset of (offset, count) pairs.
        let key = |a: &Access| (a.offset, a.count, a.is_write);
        let mut a: Vec<_> = accesses.iter().map(key).collect();
        let mut b: Vec<_> = sorted.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Runs partition the access list: every access lands in exactly one
    /// run, in order.
    #[test]
    fn runs_partition_accesses(
        mut accesses in proptest::collection::vec(arb_access(), 0..200),
        small_jumps in any::<bool>(),
    ) {
        accesses.sort_by_key(|a| a.micros);
        let opts = if small_jumps { RunOptions::default() } else { RunOptions::raw() };
        let runs = split_runs(FileId(1), &accesses, opts);
        let total: usize = runs.iter().map(|r| r.accesses).sum();
        prop_assert_eq!(total, accesses.len());
        // Byte totals are conserved.
        let run_bytes: u64 = runs.iter().map(|r| r.bytes).sum();
        let access_bytes: u64 = accesses.iter().map(|a| u64::from(a.count)).sum();
        prop_assert_eq!(run_bytes, access_bytes);
        let rejoined: Vec<Access> = runs.iter().flat_map(|r| r.items.clone()).collect();
        prop_assert_eq!(rejoined, accesses);
    }

    /// A strictly consecutive synthetic run is never classified random,
    /// and its sequentiality metric is 1.
    #[test]
    fn consecutive_runs_are_sequential(
        start_block in 0u64..100,
        len in 1usize..50,
    ) {
        let accesses: Vec<Access> = (0..len)
            .map(|i| Access {
                micros: i as u64 * 1000,
                offset: (start_block + i as u64) * BLOCK,
                count: BLOCK as u32,
                is_write: false,
                eof: false,
                file_size: 0,
            })
            .collect();
        let runs = split_runs(FileId(1), &accesses, RunOptions::raw());
        prop_assert_eq!(runs.len(), 1);
        prop_assert_ne!(runs[0].pattern, RunPattern::Random);
        prop_assert_eq!(sequentiality_metric(&runs[0].items, 1), 1.0);
    }

    /// The sequentiality metric is always within [0, 1] and k=10 never
    /// scores below k=1.
    #[test]
    fn metric_bounds_and_monotonicity(
        accesses in proptest::collection::vec(arb_access(), 1..100),
    ) {
        let strict = sequentiality_metric(&accesses, 1);
        let loose = sequentiality_metric(&accesses, 10);
        prop_assert!((0.0..=1.0).contains(&strict));
        prop_assert!((0.0..=1.0).contains(&loose));
        prop_assert!(loose >= strict - 1e-12, "loose {loose} < strict {strict}");
    }

    /// The one-pass index is indistinguishable from the legacy
    /// slice-based pipeline: identical summaries, per-file access
    /// streams, and run tables for any record stream and window.
    #[test]
    fn index_matches_legacy_slice_path(
        mut records in proptest::collection::vec(arb_record(), 0..200),
        window_ms in 0u64..20,
        small_jumps in any::<bool>(),
    ) {
        use nfstrace_core::index::{TraceIndex, TraceView};
        use nfstrace_core::reorder::accesses_by_file;
        use nfstrace_core::runs::runs_for_trace;
        use nfstrace_core::summary::SummaryStats;

        records.sort_by_key(|r| r.micros);
        let idx = TraceIndex::new(records.clone());
        prop_assert_eq!(idx.summary(), &SummaryStats::from_records(records.iter()));

        let mut per_file = accesses_by_file(records.iter());
        for (_, list) in &mut per_file {
            let list: &mut Vec<_> = std::sync::Arc::make_mut(list);
            sort_within_window(list, window_ms * 1000);
        }
        prop_assert_eq!(idx.accesses(window_ms).as_ref(), &per_file);

        let opts = if small_jumps { RunOptions::default() } else { RunOptions::raw() };
        let legacy = runs_for_trace(&per_file, opts);
        prop_assert_eq!(idx.runs(window_ms, opts).as_ref(), &legacy);
        // And the cache never sorted more than this one window.
        prop_assert!(idx.sort_passes() <= 1);
    }

    /// Every record the generator can produce survives the text format.
    #[test]
    fn text_format_roundtrip(record in arb_record()) {
        let line = text::format_record(&record);
        let parsed = text::parse_record(&line, 1).unwrap();
        prop_assert_eq!(parsed, record);
    }

    /// The text parser never panics on arbitrary input.
    #[test]
    fn text_parser_never_panics(line in "\\PC{0,200}") {
        let _ = text::parse_record(&line, 1);
    }
}
