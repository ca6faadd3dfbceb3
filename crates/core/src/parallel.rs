//! Deterministic fork/join helpers shared by the analysis and workload
//! layers.
//!
//! Everything here is plain `std::thread` — the workspace builds
//! offline, so no rayon. The contract every caller relies on is
//! *determinism*: results are returned in item order, so the output of a
//! sharded computation is byte-identical no matter how many worker
//! threads ran it (including one). The worker count comes from the
//! `NFSTRACE_THREADS` environment variable and defaults to the machine's
//! available parallelism.

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

/// Computes `f(0), f(1), .., f(n-1)` across at most `threads` scoped
/// worker threads and returns the results **in item order**.
///
/// Items are split into contiguous chunks, one per worker, so item `i`
/// always lands in the same shard for a given `(n, threads)` — but the
/// output is independent of even that, because each result is written to
/// its own slot. The stateless call of [`run_sharded_with`].
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
    run_sharded_with(n, threads, |_| (), |(), i| f(i)).1
}

/// [`run_sharded`] with state carried through each worker's run: every
/// worker makes one `S` with `init` from its contiguous run of items and
/// hands it to `f` for each item of the run, in item order. Returns
/// every worker's final state in run order, then the results in item
/// order.
///
/// For work that needs a buffer per item but not a fresh one: each
/// worker refills its own, so a pass allocates per worker, not per item.
/// One worker (`threads` ≤ 1, or `n` ≤ 1) runs on the caller's thread
/// and returns one state; `n == 0` returns none.
///
/// # Examples
///
/// ```
/// use nfstrace_core::parallel::run_sharded_with;
///
/// // Each worker gathers its run of items into one vector of its own.
/// let (runs, lens) = run_sharded_with(5, 2, |run| Vec::with_capacity(run.len()), |v, i| {
///     v.push(i);
///     v.len()
/// });
/// assert_eq!(runs, vec![vec![0, 1, 2], vec![3, 4]]);
/// assert_eq!(lens, vec![1, 2, 3, 1, 2]);
/// let (one, _) = run_sharded_with(5, 1, |_| Vec::new(), |v, i| v.push(i));
/// assert_eq!(one, vec![vec![0, 1, 2, 3, 4]]);
/// ```
pub fn run_sharded_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> (Vec<S>, Vec<T>)
where
    S: Send,
    T: Send,
    I: Fn(std::ops::Range<usize>) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut state = init(0..n);
        let out = (0..n).map(|i| f(&mut state, i)).collect();
        return (vec![state], out);
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    let mut states: Vec<Option<S>> = (0..n.div_ceil(chunk)).map(|_| None).collect();
    std::thread::scope(|scope| {
        for ((ci, shard), state) in slots.chunks_mut(chunk).enumerate().zip(&mut states) {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut s = init(ci * chunk..ci * chunk + shard.len());
                for (j, slot) in shard.iter_mut().enumerate() {
                    *slot = Some(f(&mut s, ci * chunk + j));
                }
                *state = Some(s);
            });
        }
    });
    (
        states.into_iter().map(filled).collect(),
        slots.into_iter().map(filled).collect(),
    )
}

/// A shard's slot once its worker has run.
fn filled<X>(slot: Option<X>) -> X {
    slot.expect("every shard slot is filled")
}

/// Applies `f` to every item of `items` — with mutable access — across
/// at most `threads` scoped worker threads, returning the results **in
/// item order**.
///
/// The mutable sibling of [`run_sharded`], for computations that
/// *advance* per-item state instead of producing it from scratch (the
/// time-sliced workload generator steps every user's resident
/// simulation forward one slice at a time). Items split into contiguous
/// chunks exactly like [`run_sharded`], and the output is independent
/// of the worker count.
///
/// # Examples
///
/// ```
/// use nfstrace_core::parallel::run_sharded_mut;
///
/// let mut counters = vec![0u64; 5];
/// let doubled = run_sharded_mut(&mut counters, 3, |i, c| {
///     *c += i as u64;
///     *c * 2
/// });
/// assert_eq!(counters, vec![0, 1, 2, 3, 4]);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
pub fn run_sharded_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for ((ci, shard), out) in items
            .chunks_mut(chunk)
            .enumerate()
            .zip(slots.chunks_mut(chunk))
        {
            let f = &f;
            scope.spawn(move || {
                for (j, (item, slot)) in shard.iter_mut().zip(out.iter_mut()).enumerate() {
                    *slot = Some(f(ci * chunk + j, item));
                }
            });
        }
    });
    slots.into_iter().map(filled).collect()
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
    fn state_runs_are_contiguous_for_any_thread_count() {
        for t in [1, 2, 3, 8, 64] {
            let (runs, out) = run_sharded_with(
                37,
                t,
                |run| (run, Vec::new()),
                |(_, v), i| {
                    v.push(i);
                    i * 3 + 1
                },
            );
            assert_eq!(
                out,
                (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                "threads={t}"
            );
            assert!(!runs.is_empty() && runs.len() <= t, "threads={t}");
            for (run, items) in &runs {
                assert_eq!(run.clone().collect::<Vec<_>>(), *items, "threads={t}");
            }
            let items: Vec<usize> = runs.into_iter().flat_map(|(_, v)| v).collect();
            assert_eq!(items, (0..37).collect::<Vec<_>>(), "threads={t}");
        }
        let (none, out) = run_sharded_with(0, 4, |_| 1, |_, i| i);
        assert!(none.is_empty() && out.is_empty());
    }

    #[test]
    fn threads_is_clamped() {
        let t = threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn mut_variant_mutates_and_orders_for_any_thread_count() {
        let expect_items: Vec<u64> = (0..23).map(|i| i * 7).collect();
        let expect_results: Vec<u64> = (0..23).map(|i| i * 7 + 1).collect();
        for t in [1, 2, 5, 64] {
            let mut items = vec![0u64; 23];
            let results = run_sharded_mut(&mut items, t, |i, v| {
                *v = i as u64 * 7;
                *v + 1
            });
            assert_eq!(items, expect_items, "threads={t}");
            assert_eq!(results, expect_results, "threads={t}");
        }
        let mut empty: Vec<u64> = Vec::new();
        assert_eq!(run_sharded_mut(&mut empty, 4, |_, _| 0), Vec::<u64>::new());
    }
}
