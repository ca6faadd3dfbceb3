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

proptest! {
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
        for list in per_file.values_mut() {
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
