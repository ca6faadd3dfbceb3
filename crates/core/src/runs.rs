//! Run detection and the entire/sequential/random taxonomy (§4.2,
//! Table 3, Figure 2).
//!
//! NFS has no open/close, so the paper defines a *run* as a maximal
//! series of accesses to one file split on two conditions: the previous
//! access touched end-of-file, or the previous access is stale (older
//! than 30 seconds). Runs are then categorized:
//!
//! - **sequential**: every access starts where the previous one ended,
//!   with offsets and counts rounded up to 8 KB blocks; in *processed*
//!   mode jumps of fewer than 10 blocks are forgiven;
//! - **entire**: sequential and covering the file from offset 0 to EOF;
//! - **random**: everything else;
//!
//! and by direction: read, write, or read-write.

use crate::record::FileId;
use crate::reorder::Access;

/// The paper's block size for rounding: 8 KB.
pub const BLOCK: u64 = 8192;

/// The staleness bound that splits runs: 30 seconds.
pub const RUN_SPLIT_MICROS: u64 = 30 * 1_000_000;

/// Small-jump tolerance in blocks for the processed taxonomy: "we
/// consider any jump of fewer than 10 blocks sequential".
pub const SMALL_JUMP_BLOCKS: u64 = 10;

/// Run direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// Only reads.
    Read,
    /// Only writes.
    Write,
    /// Both.
    ReadWrite,
}

/// Run access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunPattern {
    /// Sequential and spanning the whole file.
    Entire,
    /// In-order but not spanning the whole file.
    Sequential,
    /// Out-of-order.
    Random,
}

/// A detected run with its classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The file.
    pub file: FileId,
    /// Read/write/read-write.
    pub kind: RunKind,
    /// Entire/sequential/random.
    pub pattern: RunPattern,
    /// Number of accesses.
    pub accesses: usize,
    /// Total bytes accessed.
    pub bytes: u64,
    /// Largest file size observed during the run.
    pub file_size: u64,
    /// Time of the first access.
    pub start_micros: u64,
    /// Time of the last access.
    pub end_micros: u64,
    /// The accesses themselves (kept for the sequentiality metric).
    pub items: Vec<Access>,
}

/// Options controlling run splitting and categorization.
///
/// `Eq`/`Hash` so run tables can be cached keyed by their options (see
/// [`crate::index::TraceIndex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Split when the previous access is older than this.
    pub split_micros: u64,
    /// Forgive seeks shorter than this many blocks (0 = raw taxonomy).
    pub small_jump_blocks: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        // The paper's processed configuration.
        Self {
            split_micros: RUN_SPLIT_MICROS,
            small_jump_blocks: SMALL_JUMP_BLOCKS,
        }
    }
}

impl RunOptions {
    /// The raw configuration: no jump forgiveness.
    pub fn raw() -> Self {
        Self {
            small_jump_blocks: 0,
            ..Self::default()
        }
    }
}

/// Rounds an offset down to its block index.
pub fn block_of(offset: u64) -> u64 {
    offset / BLOCK
}

/// Rounds a byte range up to its end block (exclusive).
pub fn end_block(offset: u64, count: u32) -> u64 {
    (offset + u64::from(count)).div_ceil(BLOCK)
}

/// Splits one file's (reorder-sorted) accesses into runs (§4.2 rules).
pub fn split_runs(file: FileId, accesses: &[Access], opts: RunOptions) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut current: Vec<Access> = Vec::new();
    for &a in accesses {
        if let Some(last) = current.last() {
            let last_hit_eof = access_hits_eof(last);
            let stale = a.micros.saturating_sub(last.micros) > opts.split_micros;
            if last_hit_eof || stale {
                runs.push(finish_run(file, std::mem::take(&mut current), opts));
            }
        }
        current.push(a);
    }
    if !current.is_empty() {
        runs.push(finish_run(file, current, opts));
    }
    runs
}

/// Whether an access reached the file's end (triggers a run split).
fn access_hits_eof(a: &Access) -> bool {
    a.eof || (a.file_size > 0 && a.offset + u64::from(a.count) >= a.file_size)
}

fn finish_run(file: FileId, items: Vec<Access>, opts: RunOptions) -> Run {
    let kind = run_kind(&items);
    let pattern = categorize(&items, opts);
    let bytes: u64 = items.iter().map(|a| u64::from(a.count)).sum();
    let file_size = items.iter().map(|a| a.file_size).max().unwrap_or(0);
    let start_micros = items.first().map(|a| a.micros).unwrap_or(0);
    let end_micros = items.last().map(|a| a.micros).unwrap_or(0);
    Run {
        file,
        kind,
        pattern,
        accesses: items.len(),
        bytes,
        file_size,
        start_micros,
        end_micros,
        items,
    }
}

fn run_kind(items: &[Access]) -> RunKind {
    let writes = items.iter().filter(|a| a.is_write).count();
    if writes == 0 {
        RunKind::Read
    } else if writes == items.len() {
        RunKind::Write
    } else {
        RunKind::ReadWrite
    }
}

/// Categorizes a run. Singleton runs are entire if they cover the whole
/// file, else sequential (per the Table 3 caption).
fn categorize(items: &[Access], opts: RunOptions) -> RunPattern {
    let covers_whole_file = run_covers_file(items);
    if items.len() == 1 {
        return if covers_whole_file {
            RunPattern::Entire
        } else {
            RunPattern::Sequential
        };
    }
    let mut sequential = true;
    let mut prev_end = end_block(items[0].offset, items[0].count);
    for a in &items[1..] {
        let start = block_of(a.offset);
        // Exactly consecutive after block rounding, or within the
        // small-jump tolerance (forward or backward).
        let jump = start.abs_diff(prev_end);
        if start != prev_end && jump >= opts.small_jump_blocks {
            sequential = false;
            break;
        }
        prev_end = end_block(a.offset, a.count);
    }
    if !sequential {
        RunPattern::Random
    } else if covers_whole_file && items[0].offset == 0 {
        RunPattern::Entire
    } else {
        RunPattern::Sequential
    }
}

/// Whether a run's accesses span offset 0 through end-of-file.
fn run_covers_file(items: &[Access]) -> bool {
    let starts_at_zero = items.iter().map(|a| a.offset).min() == Some(0);
    let hits_eof = items.iter().any(access_hits_eof);
    starts_at_zero && hits_eof
}

/// Splits and categorizes runs for every file in a trace: files in the
/// map's order (first access), each file's runs in time order.
pub fn runs_for_trace(per_file: &crate::index::AccessMap, opts: RunOptions) -> Vec<Run> {
    let mut out = Vec::new();
    for (f, list) in per_file {
        out.extend(split_runs(*f, list, opts));
    }
    out
}

/// The Table 3 percentages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PatternTable {
    /// Percent of runs that are read runs.
    pub reads_pct: f64,
    /// Within read runs: percent entire / sequential / random.
    pub read_entire_pct: f64,
    /// See `read_entire_pct`.
    pub read_sequential_pct: f64,
    /// See `read_entire_pct`.
    pub read_random_pct: f64,
    /// Percent of runs that are write runs.
    pub writes_pct: f64,
    /// Within write runs.
    pub write_entire_pct: f64,
    /// Within write runs.
    pub write_sequential_pct: f64,
    /// Within write runs.
    pub write_random_pct: f64,
    /// Percent of runs that are read-write runs.
    pub rw_pct: f64,
    /// Within read-write runs.
    pub rw_entire_pct: f64,
    /// Within read-write runs.
    pub rw_sequential_pct: f64,
    /// Within read-write runs.
    pub rw_random_pct: f64,
}

impl PatternTable {
    /// Builds the table from categorized runs.
    pub fn from_runs(runs: &[Run]) -> Self {
        let total = runs.len() as f64;
        if total == 0.0 {
            return Self::default();
        }
        let pct = |n: usize, d: usize| {
            if d == 0 {
                0.0
            } else {
                100.0 * n as f64 / d as f64
            }
        };
        let count = |k: RunKind, p: Option<RunPattern>| {
            runs.iter()
                .filter(|r| r.kind == k && p.is_none_or(|p| r.pattern == p))
                .count()
        };
        let (r, w, rw) = (
            count(RunKind::Read, None),
            count(RunKind::Write, None),
            count(RunKind::ReadWrite, None),
        );
        PatternTable {
            reads_pct: pct(r, runs.len()),
            read_entire_pct: pct(count(RunKind::Read, Some(RunPattern::Entire)), r),
            read_sequential_pct: pct(count(RunKind::Read, Some(RunPattern::Sequential)), r),
            read_random_pct: pct(count(RunKind::Read, Some(RunPattern::Random)), r),
            writes_pct: pct(w, runs.len()),
            write_entire_pct: pct(count(RunKind::Write, Some(RunPattern::Entire)), w),
            write_sequential_pct: pct(count(RunKind::Write, Some(RunPattern::Sequential)), w),
            write_random_pct: pct(count(RunKind::Write, Some(RunPattern::Random)), w),
            rw_pct: pct(rw, runs.len()),
            rw_entire_pct: pct(count(RunKind::ReadWrite, Some(RunPattern::Entire)), rw),
            rw_sequential_pct: pct(count(RunKind::ReadWrite, Some(RunPattern::Sequential)), rw),
            rw_random_pct: pct(count(RunKind::ReadWrite, Some(RunPattern::Random)), rw),
        }
    }
}

/// Figure 2: bytes accessed, bucketed by file size, per pattern.
///
/// Buckets are powers of two of file size; each run's bytes land in the
/// bucket of the file's size at access time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SizeProfile {
    /// (file-size bucket upper bound, bytes) per pattern, ascending.
    pub total: Vec<(u64, u64)>,
    /// Entire-run bytes per bucket.
    pub entire: Vec<(u64, u64)>,
    /// Sequential-run bytes per bucket.
    pub sequential: Vec<(u64, u64)>,
    /// Random-run bytes per bucket.
    pub random: Vec<(u64, u64)>,
}

impl SizeProfile {
    /// Builds the profile from runs using power-of-two buckets from 1 KB
    /// to 1 GB.
    pub fn from_runs(runs: &[Run]) -> Self {
        let buckets: Vec<u64> = (10..=30).map(|p| 1u64 << p).collect();
        let mut total = vec![0u64; buckets.len()];
        let mut entire = vec![0u64; buckets.len()];
        let mut sequential = vec![0u64; buckets.len()];
        let mut random = vec![0u64; buckets.len()];
        for r in runs {
            let size = r.file_size.max(r.bytes).max(1);
            let idx = buckets
                .iter()
                .position(|&b| size <= b)
                .unwrap_or(buckets.len() - 1);
            total[idx] += r.bytes;
            match r.pattern {
                RunPattern::Entire => entire[idx] += r.bytes,
                RunPattern::Sequential => sequential[idx] += r.bytes,
                RunPattern::Random => random[idx] += r.bytes,
            }
        }
        let zip = |v: Vec<u64>| buckets.iter().copied().zip(v).collect::<Vec<_>>();
        SizeProfile {
            total: zip(total),
            entire: zip(entire),
            sequential: zip(sequential),
            random: zip(random),
        }
    }

    /// Cumulative percent-of-total-bytes curve for one series.
    pub fn cumulative_pct(series: &[(u64, u64)], grand_total: u64) -> Vec<(u64, f64)> {
        let mut acc = 0u64;
        series
            .iter()
            .map(|&(b, v)| {
                acc += v;
                let pct = if grand_total == 0 {
                    0.0
                } else {
                    100.0 * acc as f64 / grand_total as f64
                };
                (b, pct)
            })
            .collect()
    }

    /// Total bytes across all buckets.
    pub fn grand_total(&self) -> u64 {
        self.total.iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(micros: u64, offset: u64, count: u32) -> Access {
        Access {
            micros,
            offset,
            count,
            is_write: false,
            eof: false,
            file_size: 10 * BLOCK,
        }
    }

    fn waccess(micros: u64, offset: u64, count: u32) -> Access {
        Access {
            is_write: true,
            ..acc(micros, offset, count)
        }
    }

    #[test]
    fn sequential_run_detected() {
        let items: Vec<Access> = (0..5)
            .map(|i| acc(i * 1000, i * BLOCK, BLOCK as u32))
            .collect();
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].pattern, RunPattern::Sequential);
        assert_eq!(runs[0].kind, RunKind::Read);
        assert_eq!(runs[0].bytes, 5 * BLOCK);
    }

    #[test]
    fn entire_run_detected() {
        let mut items: Vec<Access> = (0..10)
            .map(|i| acc(i * 1000, i * BLOCK, BLOCK as u32))
            .collect();
        items[9].eof = true;
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].pattern, RunPattern::Entire);
    }

    #[test]
    fn random_run_detected_raw() {
        let items = vec![
            acc(0, 0, BLOCK as u32),
            acc(1000, 5 * BLOCK, BLOCK as u32),
            acc(2000, 2 * BLOCK, BLOCK as u32),
        ];
        let runs = split_runs(FileId(1), &items, RunOptions::raw());
        assert_eq!(runs[0].pattern, RunPattern::Random);
    }

    #[test]
    fn small_jump_forgiven_in_processed_mode() {
        // Jump of 4 blocks: random in raw mode, sequential in processed.
        let items = vec![acc(0, 0, BLOCK as u32), acc(1000, 5 * BLOCK, BLOCK as u32)];
        let raw = split_runs(FileId(1), &items, RunOptions::raw());
        assert_eq!(raw[0].pattern, RunPattern::Random);
        let proc = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(proc[0].pattern, RunPattern::Sequential);
    }

    #[test]
    fn large_jump_random_even_processed() {
        let items = vec![acc(0, 0, BLOCK as u32), acc(1000, 50 * BLOCK, BLOCK as u32)];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs[0].pattern, RunPattern::Random);
    }

    #[test]
    fn eof_splits_runs() {
        let mut first = acc(0, 9 * BLOCK, BLOCK as u32);
        first.eof = true;
        let items = vec![first, acc(1000, 0, BLOCK as u32)];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn staleness_splits_runs() {
        let items = vec![
            acc(0, 0, BLOCK as u32),
            acc(31_000_000, BLOCK, BLOCK as u32),
        ];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs.len(), 2);
        // Within the bound: one run.
        let items = vec![
            acc(0, 0, BLOCK as u32),
            acc(29_000_000, BLOCK, BLOCK as u32),
        ];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn singleton_entire_vs_sequential() {
        // Covers the whole 1-block file: entire.
        let mut a = acc(0, 0, BLOCK as u32);
        a.file_size = BLOCK;
        let runs = split_runs(FileId(1), &[a], RunOptions::default());
        assert_eq!(runs[0].pattern, RunPattern::Entire);
        // Middle of a big file: sequential.
        let b = acc(0, 4 * BLOCK, BLOCK as u32);
        let runs = split_runs(FileId(1), &[b], RunOptions::default());
        assert_eq!(runs[0].pattern, RunPattern::Sequential);
    }

    #[test]
    fn kinds_classified() {
        let items = vec![acc(0, 0, 1), waccess(1, BLOCK, 1)];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs[0].kind, RunKind::ReadWrite);
        let items = vec![waccess(0, 0, 1), waccess(1, BLOCK, 1)];
        let runs = split_runs(FileId(1), &items, RunOptions::default());
        assert_eq!(runs[0].kind, RunKind::Write);
    }

    #[test]
    fn unaligned_counts_rounded_to_blocks() {
        // 0k(8k), 8k(7k), 16k(8k): the 1k hole is absorbed by rounding
        // (the paper's example).
        let items = vec![
            acc(0, 0, 8192),
            acc(1000, 8192, 7168),
            acc(2000, 16384, 8192),
        ];
        let runs = split_runs(FileId(1), &items, RunOptions::raw());
        assert_eq!(runs[0].pattern, RunPattern::Sequential);
    }

    #[test]
    fn pattern_table_percentages_sum() {
        let mut runs = Vec::new();
        for i in 0..10u64 {
            let items: Vec<Access> = (0..3)
                .map(|j| acc(i * 100 + j, j * BLOCK, BLOCK as u32))
                .collect();
            runs.extend(split_runs(FileId(i), &items, RunOptions::default()));
        }
        let t = PatternTable::from_runs(&runs);
        assert!((t.reads_pct + t.writes_pct + t.rw_pct - 100.0).abs() < 1e-9);
        assert!(
            (t.read_entire_pct + t.read_sequential_pct + t.read_random_pct - 100.0).abs() < 1e-9
        );
    }

    #[test]
    fn size_profile_buckets_by_file_size() {
        let mut a = acc(0, 0, BLOCK as u32);
        a.file_size = 2 * 1024 * 1024; // 2 MB file
        let runs = split_runs(FileId(1), &[a], RunOptions::default());
        let prof = SizeProfile::from_runs(&runs);
        let total_bytes = prof.grand_total();
        assert_eq!(total_bytes, BLOCK);
        // The bytes must land in the 2 MB bucket.
        let bucket = prof
            .total
            .iter()
            .find(|&&(b, v)| v > 0 && b >= 2 * 1024 * 1024)
            .unwrap();
        assert_eq!(bucket.0, 2 * 1024 * 1024);
        let cum = SizeProfile::cumulative_pct(&prof.total, total_bytes);
        assert!((cum.last().unwrap().1 - 100.0).abs() < 1e-9);
    }
}
