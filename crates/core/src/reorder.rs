//! The reorder window (§4.2, Figure 1).
//!
//! NFS calls reach the server in a different order than the application
//! issued them because client-side `nfsiod` processes race each other
//! (§4.1.5). Naively treating the arrival order as the access pattern
//! makes workloads look far more random than they are. The paper's fix:
//! "we partially sort requests in ascending order within a small temporal
//! window" — look ahead a few milliseconds and swap nearby requests that
//! are out of offset order.
//!
//! The window must be as small as possible: "with an infinite sorting
//! window, any workload that visits every block of a file in any order
//! will appear sequential." Figure 1 plots the fraction of accesses
//! swapped against the window size; the knee picks the window (5 ms for
//! EECS, 10 ms for CAMPUS).

use crate::index::{AccessList, AccessMap};
use crate::record::TraceRecord;
use std::sync::Arc;

/// One data access (READ or WRITE) to a file, the unit of run analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Capture time, microseconds.
    pub micros: u64,
    /// Byte offset.
    pub offset: u64,
    /// Bytes transferred.
    pub count: u32,
    /// Whether this is a write.
    pub is_write: bool,
    /// Whether the reply reported end-of-file (reads only).
    pub eof: bool,
    /// File size after the access, from reply attributes (0 if unknown).
    pub file_size: u64,
}

impl Access {
    /// Extracts an access from a READ/WRITE record; `None` otherwise.
    pub fn from_record(r: &TraceRecord) -> Option<Self> {
        if !(r.op.is_read() || r.op.is_write()) {
            return None;
        }
        Some(Access {
            micros: r.micros,
            offset: r.offset,
            count: r.ret_count.max(r.count),
            is_write: r.op.is_write(),
            eof: r.eof,
            file_size: r.post_size.unwrap_or(0),
        })
    }
}

/// Groups a record stream's data accesses by file, preserving order.
pub fn accesses_by_file<'a, I>(records: I) -> AccessMap
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut map = AccessMap::new();
    for r in records {
        if let Some(a) = Access::from_record(r) {
            Arc::make_mut(map.entry(r.fh).or_default()).push(a);
        }
    }
    map
}

/// Partially sorts one file's accesses in ascending offset order within a
/// temporal window of `window_micros`, in place. Returns the number of
/// accesses that moved.
///
/// For each position, the algorithm looks ahead at accesses arriving
/// within the window and swaps the smallest-offset one into place if the
/// current access is out of order — the paper's described behaviour. A
/// zero window leaves the list untouched.
pub fn sort_within_window(accesses: &mut [Access], window_micros: u64) -> u64 {
    if window_micros == 0 || accesses.len() < 2 {
        return 0;
    }
    let mut swapped = vec![false; accesses.len()];
    for i in 0..accesses.len() - 1 {
        let horizon = accesses[i].micros.saturating_add(window_micros);
        let mut best = i;
        let mut j = i + 1;
        while j < accesses.len() && accesses[j].micros <= horizon {
            if accesses[j].offset < accesses[best].offset {
                best = j;
            }
            j += 1;
        }
        if best != i {
            accesses.swap(i, best);
            swapped[i] = true;
            swapped[best] = true;
        }
    }
    swapped.iter().filter(|&&s| s).count() as u64
}

/// A point on the Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapPoint {
    /// Window size in milliseconds.
    pub window_ms: u64,
    /// Fraction of accesses that were swapped (0..=1).
    pub swapped_fraction: f64,
}

/// Measures the swapped-access fraction across a sweep of window sizes
/// (Figure 1). Each window size re-sorts pristine copies of the per-file
/// access lists.
///
/// The (file × window) grid is embarrassingly parallel; files are
/// sharded across [`crate::parallel::threads`] workers and the per-shard
/// swap counts summed, so the result is identical for any worker count.
pub fn swap_fraction_sweep(per_file: &AccessMap, windows_ms: &[u64]) -> Vec<SwapPoint> {
    swap_fraction_sweep_with_threads(per_file, windows_ms, crate::parallel::threads())
}

/// [`swap_fraction_sweep`] with an explicit worker count (for the
/// determinism tests).
fn swap_fraction_sweep_with_threads(
    per_file: &AccessMap,
    windows_ms: &[u64],
    threads: usize,
) -> Vec<SwapPoint> {
    let lists: Vec<&AccessList> = per_file.values().collect();
    let total: u64 = lists.iter().map(|v| v.len() as u64).sum();
    // The scratch holds the longest list from the start: which lists a
    // run gets, and in which order, follows the map's per-process hash
    // seed, so growing to fit would allocate differently run to run.
    let longest = lists.iter().map(|v| v.len()).max().unwrap_or(0);
    let run_len = crate::parallel::run_len(lists.len(), threads);
    // Each run returns one swap count per window over its files.
    let partials = crate::parallel::fork_join(lists.chunks(run_len), |run| {
        let mut counts = vec![0u64; windows_ms.len()];
        let mut scratch: Vec<Access> = Vec::with_capacity(longest);
        for list in run {
            for (wi, &w) in windows_ms.iter().enumerate() {
                if w == 0 {
                    continue; // a zero window swaps nothing
                }
                scratch.clear();
                scratch.extend_from_slice(list);
                counts[wi] += sort_within_window(&mut scratch, w * 1000);
            }
        }
        counts
    });
    windows_ms
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let swapped: u64 = partials.iter().map(|p| p[wi]).sum();
            SwapPoint {
                window_ms: w,
                swapped_fraction: if total == 0 {
                    0.0
                } else {
                    swapped as f64 / total as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(micros: u64, offset: u64) -> Access {
        Access {
            micros,
            offset,
            count: 8192,
            is_write: false,
            eof: false,
            file_size: 0,
        }
    }

    #[test]
    fn already_sorted_swaps_nothing() {
        let mut v = vec![acc(0, 0), acc(100, 8192), acc(200, 16384)];
        assert_eq!(sort_within_window(&mut v, 5_000), 0);
        assert_eq!(v[0].offset, 0);
    }

    #[test]
    fn adjacent_inversion_fixed() {
        let mut v = vec![acc(0, 8192), acc(100, 0), acc(200, 16384)];
        let swapped = sort_within_window(&mut v, 5_000);
        assert_eq!(swapped, 2);
        let offsets: Vec<u64> = v.iter().map(|a| a.offset).collect();
        assert_eq!(offsets, vec![0, 8192, 16384]);
    }

    #[test]
    fn inversion_outside_window_untouched() {
        // The out-of-order access arrives 50 ms later: beyond a 5 ms
        // window, so it must NOT be pulled forward (that would mask true
        // randomness).
        let mut v = vec![acc(0, 8192), acc(50_000, 0)];
        assert_eq!(sort_within_window(&mut v, 5_000), 0);
        assert_eq!(v[0].offset, 8192);
    }

    #[test]
    fn zero_window_is_identity() {
        let mut v = vec![acc(0, 99), acc(1, 0)];
        assert_eq!(sort_within_window(&mut v, 0), 0);
        assert_eq!(v[0].offset, 99);
    }

    #[test]
    fn scrambled_burst_fully_sorted() {
        // Five accesses within 1 ms, in scrambled order.
        let mut v = vec![
            acc(0, 16384),
            acc(200, 0),
            acc(400, 32768),
            acc(600, 8192),
            acc(800, 24576),
        ];
        sort_within_window(&mut v, 5_000);
        let offsets: Vec<u64> = v.iter().map(|a| a.offset).collect();
        assert_eq!(offsets, vec![0, 8192, 16384, 24576, 32768]);
    }

    use crate::record::FileId;

    #[test]
    fn sweep_is_monotonic_and_knees() {
        let mut per_file = AccessMap::new();
        // Sequential run with nearby swaps at 2 ms scale.
        let mut list = Vec::new();
        for i in 0..100u64 {
            let off = if i % 10 == 3 {
                (i + 1) * 8192
            } else if i % 10 == 4 {
                (i - 1) * 8192
            } else {
                i * 8192
            };
            list.push(acc(i * 2_000, off));
        }
        per_file.insert(FileId(1), Arc::new(list));
        let pts = swap_fraction_sweep(&per_file, &[0, 1, 2, 5, 10, 20, 50]);
        assert_eq!(pts[0].swapped_fraction, 0.0);
        for w in pts.windows(2) {
            assert!(w[1].swapped_fraction >= w[0].swapped_fraction - 1e-12);
        }
    }

    #[test]
    fn sweep_parallel_matches_serial() {
        let mut per_file = AccessMap::new();
        for f in 0..17u64 {
            let list: Vec<Access> = (0..60u64)
                .map(|i| acc(i * 1500, ((i * 7 + f) % 60) * 8192))
                .collect();
            per_file.insert(FileId(f), Arc::new(list));
        }
        let windows = [0u64, 1, 2, 5, 10, 20];
        let serial = swap_fraction_sweep_with_threads(&per_file, &windows, 1);
        for t in [2, 3, 8] {
            assert_eq!(
                swap_fraction_sweep_with_threads(&per_file, &windows, t),
                serial,
                "threads={t}"
            );
        }
    }

    #[test]
    fn access_extraction_ignores_metadata() {
        use crate::record::{FileId, Op, TraceRecord};
        let r = TraceRecord::new(0, Op::Getattr, FileId(1));
        assert!(Access::from_record(&r).is_none());
        let r = TraceRecord::new(0, Op::Read, FileId(1)).with_range(4096, 4096);
        let a = Access::from_record(&r).unwrap();
        assert_eq!(a.offset, 4096);
        assert!(!a.is_write);
    }
}
