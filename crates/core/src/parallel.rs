//! The one fork/join shared by the analysis, store and workload layers.
//!
//! Everything here is plain `std::thread` — the workspace builds
//! offline, so no rayon. Every chunk-parallel pass splits its `n` items
//! one way, into contiguous runs of [`run_len`] items ([`runs`]), and
//! runs the runs one way, with [`fork_join`]: one job a run, results
//! back in run order. A job's buffers are plain locals that drop when
//! the job ends, and because results come back in order, the output of
//! a pass is byte-identical no matter how many workers ran it
//! (including one). The worker count comes from the `NFSTRACE_THREADS`
//! environment variable and defaults to the machine's available
//! parallelism.

use std::ops::Range;

/// Upper bound on the worker count; beyond this the per-thread shards of
/// any realistic trace are too small to matter.
pub const MAX_THREADS: usize = 64;

/// The worker count: `NFSTRACE_THREADS` if set and parseable, otherwise
/// the machine's available parallelism, clamped to `1..=`[`MAX_THREADS`].
pub fn threads() -> usize {
    std::env::var("NFSTRACE_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

/// The split rule: how many of `n` items one of `threads` workers
/// takes, ⌈n / threads⌉ (which is ⌈n / min(threads, n)⌉) with
/// `threads` clamped to `1..=`[`MAX_THREADS`] — never 0, so
/// `slice.chunks(run_len(..))` holds for an empty slice too.
pub fn run_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.clamp(1, MAX_THREADS)).max(1)
}

/// `0..n` split by [`run_len`] into at most `threads` contiguous runs,
/// in order; no run for `n == 0`.
///
/// # Examples
///
/// ```
/// use nfstrace_core::parallel::runs;
///
/// assert_eq!(runs(5, 2).collect::<Vec<_>>(), vec![0..3, 3..5]);
/// assert_eq!(runs(5, 1).collect::<Vec<_>>(), vec![0..5]);
/// assert_eq!(runs(0, 4).count(), 0);
/// ```
pub fn runs(n: usize, threads: usize) -> impl Iterator<Item = Range<usize>> {
    let len = run_len(n, threads);
    (0..n)
        .step_by(len)
        .map(move |start| start..n.min(start + len))
}

/// Runs `f` on every job and returns the results **in job order**.
///
/// The first job runs on the caller's thread and each other on a scoped
/// thread of its own, so one job spawns nothing. A panicking job panics
/// the caller with its own payload (the first job's, else the first
/// spawned one's in job order) once every job has ended.
///
/// # Examples
///
/// ```
/// use nfstrace_core::parallel::{fork_join, runs};
///
/// // One job a run: each sums its contiguous run of items.
/// let sums = fork_join(runs(5, 2), |run| run.sum::<usize>());
/// assert_eq!(sums, vec![3, 7]);
/// let mut counters = vec![0u64; 5];
/// fork_join(counters.chunks_mut(2), |run| run.iter_mut().for_each(|c| *c += 1));
/// assert_eq!(counters, vec![1; 5]);
/// ```
pub fn fork_join<J, T, F>(jobs: impl IntoIterator<Item = J>, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    let Some(second) = jobs.next() else {
        return vec![f(first)];
    };
    std::thread::scope(|scope| {
        let f = &f;
        let others: Vec<_> = std::iter::once(second)
            .chain(jobs)
            .map(|job| scope.spawn(move || f(job)))
            .collect();
        let mut out = Vec::with_capacity(others.len() + 1);
        out.push(f(first));
        out.extend(others.into_iter().map(|other| {
            other
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        out
    })
}

/// Computes `f(0), f(1), .., f(n-1)` with [`fork_join`], one job a run
/// of [`runs`]`(n, threads)`, and returns the results in item order.
///
/// # Examples
///
/// ```
/// use nfstrace_core::parallel::run_sharded;
///
/// let squares = run_sharded(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// // Any worker count yields the same output.
/// assert_eq!(squares, run_sharded(5, 1, |i| i * i));
/// ```
pub fn run_sharded<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let per_run = fork_join(runs(n, threads), |run| run.map(&f).collect::<Vec<_>>());
    per_run.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * 3 + 1).collect();
        for t in [1, 2, 3, 8, 64] {
            assert_eq!(run_sharded(37, t, |i| i * 3 + 1), expect, "threads={t}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(run_sharded(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_sharded(1, 8, |i| i + 9), vec![9]);
    }

    #[test]
    fn threads_is_clamped() {
        let t = threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn runs_cover_the_items_contiguously_for_any_thread_count() {
        for n in [0, 1, 5, 37, 64, 65] {
            for t in [1, 2, 3, 8, 64] {
                let split: Vec<Range<usize>> = runs(n, t).collect();
                assert!(split.len() <= t, "n={n} threads={t}");
                assert!(split.iter().all(|r| !r.is_empty()), "n={n} threads={t}");
                let items: Vec<usize> = split.into_iter().flatten().collect();
                assert_eq!(items, (0..n).collect::<Vec<_>>(), "n={n} threads={t}");
            }
        }
    }

    #[test]
    fn fork_join_keeps_job_order_and_returns_nothing_for_no_jobs() {
        let out = fork_join((0..9).map(|i| i * 7), |j| j + 1);
        assert_eq!(out, (0..9).map(|i| i * 7 + 1).collect::<Vec<_>>());
        assert_eq!(fork_join(Vec::<u8>::new(), |j| j), Vec::<u8>::new());
    }

    #[test]
    fn the_first_job_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let one = fork_join([()], |()| std::thread::current().id());
        assert_eq!(one, vec![caller]);
        let three = fork_join([(); 3], |()| std::thread::current().id());
        assert_eq!(three[0], caller);
        assert!(three[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn a_panicking_job_panics_the_caller_with_its_own_message() {
        for failing in 0..3 {
            let payload = std::panic::catch_unwind(|| {
                fork_join(0..3, |j| {
                    if j == failing {
                        panic!("job {j} failed");
                    }
                    j
                })
            })
            .expect_err("a job panicked");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(*message, format!("job {failing} failed"));
        }
    }
}
