//! The nfsiod pool: where call reordering comes from.
//!
//! "This reordering is largely an artifact of the conventional NFS
//! architecture, in which separate processes, called nfsiods, issue the
//! actual network calls. Although a client's calls are dispatched to the
//! nfsiods in order, the process scheduler determines the order in which
//! the nfsiods run. ... When the client ran only one nfsiod, no call
//! reorderings occurred, but as additional nfsiods were added, call
//! reordering became more frequent. In the most extreme case as many as
//! 10% of the packets were reordered, and some calls were delayed by as
//! much as 1 second" (§4.1.5).
//!
//! The model: each async call is handed to the next free nfsiod; the
//! daemon sleeps a scheduler-jitter delay drawn from a heavy-tailed
//! distribution before the call reaches the wire. A single daemon
//! serializes (no reordering); several race.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The jitter distribution: a daemon's wake-up delay is uniform
// scheduler noise, plus — rarely — a long preemption when the scheduler
// runs something else entirely.

/// Upper bound of the uniform scheduling noise, microseconds.
const BASE_SPREAD_MICROS: f64 = 60.0;
/// Probability of a long preemption.
const LONG_DELAY_PROB: f64 = 0.005;
/// Mean of the (exponential) long-preemption delay, microseconds.
const LONG_DELAY_MEAN_MICROS: f64 = 2_000.0;

/// A pool of nfsiod daemons adding scheduling jitter to async calls.
#[derive(Debug)]
pub struct NfsiodPool {
    /// Wall-clock time each daemon becomes free.
    free_at: Vec<u64>,
    rng: StdRng,
    last_wire_micros: u64,
    issued: u64,
    reordered: u64,
    max_delay: u64,
}

impl NfsiodPool {
    /// Creates a pool of `n` daemons (at least 1) with deterministic
    /// randomness from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        NfsiodPool {
            free_at: vec![0; n.max(1)],
            rng: StdRng::seed_from_u64(seed),
            last_wire_micros: 0,
            issued: 0,
            reordered: 0,
            max_delay: 0,
        }
    }

    /// Number of daemons.
    pub fn daemons(&self) -> usize {
        self.free_at.len()
    }

    /// When the next daemon becomes free — the earliest useful dispatch
    /// time for a closed-loop caller that blocks while all nfsiods are
    /// busy (as real applications do once the async queue fills).
    pub fn earliest_free(&self) -> u64 {
        self.free_at.iter().copied().min().unwrap_or(0)
    }

    /// Dispatches a call issued at `issue_micros`; returns the time it
    /// reaches the wire. The daemon is busy only until the call hits the
    /// wire.
    ///
    /// The call goes to the earliest-free daemon, which wakes after a
    /// scheduler jitter, so a small pool under load serializes
    /// (suppressing reordering) while a large pool races freely.
    pub fn dispatch(&mut self, issue_micros: u64) -> u64 {
        self.dispatch_held(issue_micros, 0)
    }

    /// Like [`NfsiodPool::dispatch`], but the daemon stays busy for
    /// `hold_micros` after the call reaches the wire — modeling a real
    /// nfsiod, which blocks on the RPC until the reply returns.
    pub fn dispatch_held(&mut self, issue_micros: u64, hold_micros: u64) -> u64 {
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("pool non-empty");
        let start = issue_micros.max(free);
        let jitter = self.sample_jitter();
        let wire = start + jitter;
        self.free_at[idx] = wire + hold_micros;
        self.issued += 1;
        // A call is reordered when it hits the wire before the
        // previously dispatched call (adjacent inversion, the same pair
        // swap the reorder-window analysis undoes).
        if wire < self.last_wire_micros {
            self.reordered += 1;
        }
        self.last_wire_micros = wire;
        self.max_delay = self.max_delay.max(wire - issue_micros);
        wire
    }

    fn sample_jitter(&mut self) -> u64 {
        // With one daemon the pipeline is serial: dispatch order is wire
        // order regardless of delay, matching the paper's observation.
        let mut total: f64 = self.rng.gen::<f64>() * BASE_SPREAD_MICROS;
        if self.rng.gen::<f64>() < LONG_DELAY_PROB {
            total += -LONG_DELAY_MEAN_MICROS * (1.0 - self.rng.gen::<f64>()).ln();
        }
        total as u64
    }

    /// Reordering statistics so far.
    pub fn stats(&self) -> ReorderStats {
        ReorderStats {
            issued: self.issued,
            reordered: self.reordered,
            max_delay_micros: self.max_delay,
        }
    }
}

/// Counters describing observed reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderStats {
    /// Calls dispatched.
    pub issued: u64,
    /// Calls that hit the wire before an earlier-dispatched call.
    pub reordered: u64,
    /// Largest dispatch-to-wire delay seen, microseconds.
    pub max_delay_micros: u64,
}

impl ReorderStats {
    /// Fraction of calls reordered.
    pub fn reorder_fraction(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.reordered as f64 / self.issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a closed-loop stream paced by the pool itself: the next
    /// call is issued as soon as a daemon can take it (gap-throttled),
    /// each call holding its daemon for `hold` microseconds.
    fn run_paced(daemons: usize, calls: u64, gap: u64, hold: u64, seed: u64) -> ReorderStats {
        let mut pool = NfsiodPool::new(daemons, seed);
        let mut now = 0u64;
        for _ in 0..calls {
            now = (now + gap).max(pool.earliest_free());
            pool.dispatch_held(now, hold);
        }
        pool.stats()
    }

    /// A saturated burst: every call enqueued at once.
    fn run_burst(daemons: usize, calls: u64, seed: u64) -> ReorderStats {
        let mut pool = NfsiodPool::new(daemons, seed);
        for _ in 0..calls {
            pool.dispatch_held(0, 400);
        }
        pool.stats()
    }

    #[test]
    fn single_nfsiod_never_reorders() {
        // The paper's control: one nfsiod, zero reorderings, regardless
        // of load.
        for seed in 0..5 {
            assert_eq!(
                run_paced(1, 10_000, 40, 400, seed).reordered,
                0,
                "seed {seed}"
            );
            assert_eq!(run_burst(1, 10_000, seed).reordered, 0, "seed {seed}");
        }
    }

    #[test]
    fn more_nfsiods_reorder_more() {
        let two = run_paced(2, 50_000, 40, 400, 42).reorder_fraction();
        let four = run_paced(4, 50_000, 40, 400, 42).reorder_fraction();
        let eight = run_paced(8, 50_000, 40, 400, 42).reorder_fraction();
        assert!(two > 0.0);
        assert!(four > two, "four={four} two={two}");
        assert!(eight > four, "eight={eight} four={four}");
        assert!(eight < 0.2, "eight={eight}");
    }

    #[test]
    fn reordering_reaches_paper_magnitude() {
        // The paper's extreme case: "as many as 10% of the packets were
        // reordered" — a saturated client with a full complement of
        // nfsiods.
        let f = run_burst(8, 50_000, 7).reorder_fraction();
        assert!(f > 0.05, "fraction = {f}");
        assert!(f < 0.35, "fraction = {f}");
    }

    #[test]
    fn long_preemptions_cause_large_delays() {
        let stats = run_paced(4, 100_000, 40, 400, 11);
        // The preemption tail produces delays orders of magnitude above
        // the base jitter (the paper's loaded extreme reached a second).
        assert!(
            stats.max_delay_micros > 8_000,
            "max delay = {}",
            stats.max_delay_micros
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = run_paced(4, 1000, 40, 400, 3);
        let b = run_paced(4, 1000, 40, 400, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_daemon_request_clamped_to_one() {
        let mut pool = NfsiodPool::new(0, 1);
        assert_eq!(pool.daemons(), 1);
        pool.dispatch(0);
        assert_eq!(pool.stats().issued, 1);
    }
}
