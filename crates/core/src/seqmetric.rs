//! The sequentiality metric (§6.4, Figure 5).
//!
//! Entire/sequential/random is too coarse: most "random" runs in the
//! traces are really long sequential sub-runs separated by short seeks.
//! Following Keith Smith's layout score, the paper defines a run's
//! *sequentiality metric* as the fraction of its blocks accessed
//! sequentially, where a block counts as sequential if it is
//! *k-consecutive* — within `k` blocks of its predecessor. The paper uses
//! k=10 ("small jumps allowed") and contrasts k=1 ("small jumps not
//! allowed"); logical jumps under 10 blocks rarely cost a disk seek.

use crate::reorder::Access;
use crate::runs::{block_of, end_block, Run, RunKind};

/// Computes the sequentiality metric of a run's accesses.
///
/// Each access covers one or more 8 KB blocks. Blocks after the first
/// within an access are consecutive by construction; the first block of
/// each access is sequential iff it lies within `k` blocks of the end of
/// the previous access. The run's first block counts as sequential (a
/// one-block run is perfectly sequential).
///
/// `k = 1` means strictly consecutive; larger `k` forgives short seeks.
///
/// # Examples
///
/// ```
/// use nfstrace_core::reorder::Access;
/// use nfstrace_core::seqmetric::sequentiality_metric;
///
/// let seq = |off| Access {
///     micros: 0, offset: off, count: 8192,
///     is_write: false, eof: false, file_size: 0,
/// };
/// let run = [seq(0), seq(8192), seq(16384)];
/// assert_eq!(sequentiality_metric(&run, 1), 1.0);
/// ```
pub fn sequentiality_metric(items: &[Access], k: u64) -> f64 {
    let mut total_blocks = 0u64;
    let mut seq_blocks = 0u64;
    let mut prev_end: Option<u64> = None;
    for a in items {
        let start = block_of(a.offset);
        let end = end_block(a.offset, a.count).max(start + 1);
        let blocks = end - start;
        total_blocks += blocks;
        // Blocks within the access beyond the first are consecutive.
        seq_blocks += blocks - 1;
        match prev_end {
            None => seq_blocks += 1, // run's first block anchors the score
            Some(pe) => {
                if start.abs_diff(pe) < k.max(1) {
                    seq_blocks += 1;
                }
            }
        }
        prev_end = Some(end);
    }
    if total_blocks == 0 {
        0.0
    } else {
        seq_blocks as f64 / total_blocks as f64
    }
}

/// The Figure 5 x-axis buckets: bytes accessed in the run, from 16 KB to
/// 64 MB in factor-of-4 steps.
pub const RUN_SIZE_BUCKETS: [u64; 7] = [
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
    16 * 1024 * 1024,
    64 * 1024 * 1024,
];

/// One Figure 5 series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPoint {
    /// Bucket upper bound (bytes accessed in run).
    pub bucket: u64,
    /// Mean sequentiality metric of runs in this bucket.
    pub mean_metric: f64,
    /// Number of runs in the bucket.
    pub runs: usize,
}

/// Average sequentiality metric per run-size bucket, for one direction.
///
/// `kind` selects read or write runs (the paper plots them separately);
/// read-write runs are excluded as in Figure 5.
pub fn metric_by_run_size(runs: &[Run], kind: RunKind, k: u64) -> Vec<MetricPoint> {
    let mut sums = vec![0.0f64; RUN_SIZE_BUCKETS.len()];
    let mut counts = vec![0usize; RUN_SIZE_BUCKETS.len()];
    for r in runs {
        if r.kind != kind {
            continue;
        }
        let idx = RUN_SIZE_BUCKETS
            .iter()
            .position(|&b| r.bytes <= b)
            .unwrap_or(RUN_SIZE_BUCKETS.len() - 1);
        sums[idx] += sequentiality_metric(&r.items, k);
        counts[idx] += 1;
    }
    RUN_SIZE_BUCKETS
        .iter()
        .enumerate()
        .map(|(i, &bucket)| MetricPoint {
            bucket,
            mean_metric: if counts[i] == 0 {
                0.0
            } else {
                sums[i] / counts[i] as f64
            },
            runs: counts[i],
        })
        .collect()
}

/// Cumulative percentage of runs at or below each size bucket (the lower
/// panels of Figure 5). Returns `(bucket, total_pct, read_pct, write_pct)`
/// rows where the percentages are of all runs.
pub fn cumulative_runs_by_size(runs: &[Run]) -> Vec<(u64, f64, f64, f64)> {
    let total = runs.len() as f64;
    let mut out = Vec::with_capacity(RUN_SIZE_BUCKETS.len());
    let mut cum_all = 0usize;
    let mut cum_read = 0usize;
    let mut cum_write = 0usize;
    for (i, &bucket) in RUN_SIZE_BUCKETS.iter().enumerate() {
        let lower = if i == 0 { 0 } else { RUN_SIZE_BUCKETS[i - 1] };
        for r in runs {
            let in_bucket = ((i == 0 || r.bytes > lower) && r.bytes <= bucket)
                || (i == RUN_SIZE_BUCKETS.len() - 1 && r.bytes > bucket);
            if in_bucket {
                cum_all += 1;
                match r.kind {
                    RunKind::Read => cum_read += 1,
                    RunKind::Write => cum_write += 1,
                    RunKind::ReadWrite => {}
                }
            }
        }
        let pct = |n: usize| {
            if total == 0.0 {
                0.0
            } else {
                100.0 * n as f64 / total
            }
        };
        out.push((bucket, pct(cum_all), pct(cum_read), pct(cum_write)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileId;
    use crate::runs::{split_runs, RunOptions, BLOCK};

    fn acc(offset: u64, count: u32, is_write: bool) -> Access {
        Access {
            micros: 0,
            offset,
            count,
            is_write,
            eof: false,
            file_size: 0,
        }
    }

    #[test]
    fn fully_sequential_run_scores_one() {
        let run: Vec<Access> = (0..8)
            .map(|i| acc(i * BLOCK, BLOCK as u32, false))
            .collect();
        assert_eq!(sequentiality_metric(&run, 1), 1.0);
        assert_eq!(sequentiality_metric(&run, 10), 1.0);
    }

    #[test]
    fn alternating_far_seeks_score_low() {
        // Blocks 0, 100, 1, 101, 2, 102 ... every access seeks far.
        let mut run = Vec::new();
        for i in 0..10u64 {
            let b = if i % 2 == 0 { i / 2 } else { 100 + i / 2 };
            run.push(acc(b * BLOCK, BLOCK as u32, false));
        }
        let m = sequentiality_metric(&run, 1);
        assert!(m <= 0.2, "m = {m}");
    }

    #[test]
    fn small_jumps_rescued_by_k() {
        // Seeks of 3 blocks between accesses: random at k=1, sequential
        // at k=10.
        let run: Vec<Access> = (0..10)
            .map(|i| acc(i * 4 * BLOCK, BLOCK as u32, false))
            .collect();
        let strict = sequentiality_metric(&run, 1);
        let loose = sequentiality_metric(&run, 10);
        assert!(strict < 0.2, "strict = {strict}");
        assert_eq!(loose, 1.0);
    }

    #[test]
    fn multiblock_accesses_mostly_sequential() {
        // Two 64 KB accesses separated by a huge seek: 16 blocks total,
        // only the second access's first block is non-sequential.
        let run = vec![acc(0, 65536, false), acc(1 << 30, 65536, false)];
        let m = sequentiality_metric(&run, 10);
        assert!((m - 15.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_scores_zero() {
        assert_eq!(sequentiality_metric(&[], 10), 0.0);
    }

    #[test]
    fn metric_by_size_buckets() {
        let mut runs = Vec::new();
        // A 16 KB sequential read run (bucket 0) and a 128 KB seeky write
        // run (the 256 KB bucket).
        let seq: Vec<Access> = (0..2)
            .map(|i| acc(i * BLOCK, BLOCK as u32, false))
            .collect();
        runs.extend(split_runs(FileId(1), &seq, RunOptions::default()));
        let seeky: Vec<Access> = (0..16)
            .map(|i| acc(i * 100 * BLOCK, BLOCK as u32, true))
            .collect();
        runs.extend(split_runs(FileId(2), &seeky, RunOptions::default()));

        let reads = metric_by_run_size(&runs, RunKind::Read, 10);
        assert_eq!(reads[0].runs, 1);
        assert_eq!(reads[0].mean_metric, 1.0);
        let writes = metric_by_run_size(&runs, RunKind::Write, 10);
        let w_bucket = writes.iter().find(|p| p.runs > 0).unwrap();
        assert_eq!(w_bucket.bucket, 256 * 1024);
        assert!(w_bucket.mean_metric < 0.2);
    }

    #[test]
    fn cumulative_reaches_100() {
        let seq: Vec<Access> = (0..4)
            .map(|i| acc(i * BLOCK, BLOCK as u32, false))
            .collect();
        let runs = split_runs(FileId(1), &seq, RunOptions::default());
        let cum = cumulative_runs_by_size(&runs);
        assert!((cum.last().unwrap().1 - 100.0).abs() < 1e-9);
    }
}
