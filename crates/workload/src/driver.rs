//! Discrete-event scaffolding and random samplers shared by the two
//! workload generators.

use nfstrace_core::record::TraceRecord;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue over an arbitrary event payload.
///
/// Ties break on insertion order, keeping runs deterministic.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, EventSlot<E>)>>,
    seq: u64,
}

/// Wrapper giving every payload a total order without requiring `Ord`.
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `micros`.
    pub fn push(&mut self, micros: u64, event: E) {
        self.heap
            .push(Reverse((micros, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, EventSlot(e)))| (t, e))
    }

    /// The earliest pending event's time, without popping it.
    ///
    /// Time-sliced simulation stops a slice *before* popping the first
    /// out-of-slice event: popping and re-pushing would assign the
    /// event a fresh insertion sequence number and so could reorder it
    /// against same-time events, breaking bit-identity with an unsliced
    /// run.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives a per-user RNG seed from the configuration seed.
///
/// Sharded generation simulates every user independently; each user's
/// stream must be (a) deterministic given `(base, user)` and (b)
/// decorrelated from its neighbours'. SplitMix64's finalizer gives both
/// without any external dependency.
pub(crate) fn user_seed(base: u64, user: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((user as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-user starting RPC transaction id, scattered over the 32-bit xid
/// space by the same SplitMix64 mix as [`user_seed`].
///
/// User shards can share client IPs (CAMPUS's three infrastructure
/// hosts serve every user), so their xid sequences should not collide.
/// A 32-bit space cannot give truly disjoint per-user ranges at every
/// population size; like real NFS clients, xids may recur over a long
/// trace. What xid matching actually needs is that two *concurrently
/// in-flight* calls from one client almost never share an xid, and
/// uniform scatter of the starting points preserves that at any scale.
pub(crate) fn user_first_xid(base: u64, user: usize) -> u32 {
    // Odd, so sequences from users with colliding starts interleave
    // rather than shadow each other exactly.
    (user_seed(base ^ 0x1d, user) as u32) | 1
}

/// Merges per-user record streams into one time-sorted trace.
///
/// Streams are concatenated in user order and then stable-sorted by
/// timestamp, so ties break on user index and then on emission order.
/// This is the definition of the generated trace's order; the tests
/// hold [`merge_user_records_into`] and the sliced driver to it.
#[cfg(test)]
pub(crate) fn merge_user_records(per_user: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut out: Vec<TraceRecord> = per_user.into_iter().flatten().collect();
    out.sort_by_key(|r| r.micros);
    out
}

/// K-way merges per-user record streams, each already stable-sorted by
/// timestamp, **into a sink**, ties broken by user index.
///
/// That is the order `merge_user_records`'s concatenate-and-stable-sort
/// gives the same streams, without materializing the merged trace.
///
/// # Errors
///
/// Propagates the sink's error (infallible for `Vec<TraceRecord>`).
pub(crate) fn merge_user_records_into<S: nfstrace_core::sink::RecordSink>(
    per_user: Vec<Vec<TraceRecord>>,
    sink: &mut S,
) -> Result<(), S::Err> {
    debug_assert!(
        per_user
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].micros <= w[1].micros)),
        "per-user streams must arrive time-sorted"
    );
    let mut cursors: Vec<std::iter::Peekable<std::vec::IntoIter<TraceRecord>>> = per_user
        .into_iter()
        .map(|stream| stream.into_iter().peekable())
        .collect();
    // Min-heap over (timestamp, user index); each pop emits the next
    // record of one user's stream. Equal timestamps drain lower user
    // indices first — and a user's own equal-timestamp records drain in
    // stream order, because its re-pushed entry keeps winning the tie.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (u, c) in cursors.iter_mut().enumerate() {
        if let Some(r) = c.peek() {
            heap.push(Reverse((r.micros, u)));
        }
    }
    while let Some(Reverse((_, u))) = heap.pop() {
        let r = cursors[u].next().expect("heap entry implies a record");
        sink.push_record(r)?;
        if let Some(next) = cursors[u].peek() {
            heap.push(Reverse((next.micros, u)));
        }
    }
    Ok(())
}

/// Samples an exponential interarrival gap with the given mean (µs).
pub fn exp_gap(rng: &mut StdRng, mean_micros: f64) -> u64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    (-mean_micros * u.ln()).max(1.0) as u64
}

/// Samples a lognormal value given the median and a shape factor
/// (sigma of the underlying normal).
pub fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    // Box-Muller.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Samples true with probability `p`.
pub fn flip(rng: &mut StdRng, p: f64) -> bool {
    rng.gen::<f64>() < p
}

/// Picks a uniform integer in `[lo, hi)`.
pub fn pick(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(10, "a2");
        q.push(20, "b");
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, "a1"), (10, "a2"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn queue_len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(1, 0);
        assert_eq!(q.next_time(), Some(1));
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn next_time_peeks_without_disturbing_tie_order() {
        let mut q = EventQueue::new();
        q.push(10, "a1");
        q.push(10, "a2");
        assert_eq!(q.next_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a1")));
        assert_eq!(q.next_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a2")));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn kway_merge_equals_concat_and_stable_sort() {
        use nfstrace_core::record::{FileId, Op};
        // Adversarial streams: internal disorder (sorted below, as the
        // sliced driver sorts each user's slice), cross-stream ties.
        let mk = |seed: u64| -> Vec<TraceRecord> {
            (0..50u64)
                .map(|i| {
                    let t = (i * 7 + seed * 3) % 40; // collisions galore
                    TraceRecord::new(t, Op::Read, FileId(seed * 1000 + i))
                })
                .collect()
        };
        let mut streams: Vec<Vec<TraceRecord>> = (0..4).map(mk).collect();
        for s in &mut streams {
            s.sort_by_key(|r| r.micros);
        }
        let reference = merge_user_records(streams.clone());
        let mut merged: Vec<TraceRecord> = Vec::new();
        nfstrace_core::sink::into_ok(merge_user_records_into(streams, &mut merged));
        assert_eq!(merged, reference);
    }

    #[test]
    fn exp_gap_mean_roughly_right() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| exp_gap(&mut rng, 1000.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((800.0..1200.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<f64> = (0..10_001)
            .map(|_| lognormal(&mut rng, 100.0, 1.0))
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((80.0..125.0).contains(&median), "median = {median}");
    }

    #[test]
    fn flip_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| flip(&mut rng, 0.25)).count();
        assert!((2200..2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn pick_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = pick(&mut rng, 5, 10);
            assert!((5..10).contains(&v));
        }
        assert_eq!(pick(&mut rng, 7, 7), 7);
    }
}
