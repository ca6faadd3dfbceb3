//! The benchmark harness: regenerates every table and figure of the
//! FAST 2003 paper from simulated CAMPUS and EECS workloads.
//!
//! `repro` is the one entry point: it prints the full suite, or with
//! `--only <artifact>` a single table or figure ([`suite::ARTIFACTS`]),
//! over whichever of the pipeline's four paths `--via` picks — in
//! memory, out of core, through the live ingest daemon, or through the
//! socket loop. What each path is lives in
//! [`scenarios`]; the binary is argument parsing plus one call.
//! `repro --only loss|nfsiod|readahead` prints one of the paper's three
//! side experiments ([`experiments`]), which are not views of the traces
//! and stay out of the suite text. Scale is controlled by the
//! `NFSTRACE_SCALE` environment variable (default 1.0): user counts and
//! thus run time grow linearly with it. Absolute numbers scale with the
//! simulated population; the *shapes* — who wins, by what factor, where
//! the knees fall — are what reproduce the paper.
//!
//! Every artifact is generic over [`nfstrace_core::index::TraceView`],
//! built once per trace, so the suite buckets and sorts each trace
//! exactly once per reorder window; `NFSTRACE_THREADS` shards trace
//! generation, chunk indexing, and the Figure 1 sweep across worker
//! threads without changing any output bit. `repro --via store` runs
//! the identical suite out-of-core through the `nfstrace_store` chunked
//! trace store — byte-identical stdout, record memory bounded by chunk
//! size.

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod experiments;
pub mod scenarios;
pub mod suite;
pub mod tables;

/// Reads the scale factor from `NFSTRACE_SCALE` (default 1.0, clamped
/// to a sane range).
pub fn scale() -> f64 {
    std::env::var("NFSTRACE_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 50.0)
}

/// Formats a row of right-aligned cells under a fixed width.
pub fn row(cells: &[String], width: usize) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>width$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_defaults_to_one() {
        // The env var is unset in the test environment.
        if std::env::var("NFSTRACE_SCALE").is_err() {
            assert_eq!(super::scale(), 1.0);
        }
    }

    #[test]
    fn row_aligns() {
        let r = super::row(&["a".into(), "bb".into()], 4);
        assert_eq!(r, "   a   bb");
    }
}
