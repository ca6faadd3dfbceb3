//! Read-ahead policies and the §6.4 experiment harness.
//!
//! The paper modified the FreeBSD 4.4 NFS server "to employ a simplified
//! version of the sequentiality metric ... in its read-ahead heuristic"
//! and, on a loaded system where ~10% of requests arrived reordered,
//! measured >5% faster large sequential transfers. Two policies:
//!
//! - [`StrictSequential`]: the classic heuristic. A run of exactly
//!   sequential requests earns prefetch depth; *any* out-of-order request
//!   resets it ("a single out-of-order access should not relegate it to
//!   the random dustbin" — but under this policy it does).
//! - [`MetricReadAhead`]: keeps a streaming sequentiality score with a
//!   small jump tolerance; prefetch stays enabled while the score is
//!   high, so isolated reordered requests do not kill read-ahead.
//!
//! `ReadServer` replays a request stream against a [`DiskModel`] with
//! a prefetch cache and totals service time.

use crate::disk::DiskModel;
use std::collections::HashSet;

/// Blocks a policy asks the server to prefetch beyond the request.
pub(crate) const MAX_READAHEAD_BLOCKS: u64 = 8;

/// A prefetch decision: how many blocks to read ahead after the request.
pub trait ReadAheadPolicy {
    /// Observes a request for `nblocks` at `block`; returns the number of
    /// extra blocks to prefetch after it.
    fn on_read(&mut self, block: u64, nblocks: u64) -> u64;

    /// The policy's display name.
    fn name(&self) -> &'static str;
}

/// The fragile strictly-sequential detector (FreeBSD-style `seqcount`).
#[derive(Debug, Default)]
pub struct StrictSequential {
    next_expected: Option<u64>,
    seqcount: u32,
}

impl StrictSequential {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReadAheadPolicy for StrictSequential {
    fn on_read(&mut self, block: u64, nblocks: u64) -> u64 {
        let sequential = self.next_expected == Some(block);
        if sequential {
            self.seqcount = (self.seqcount + 1).min(16);
        } else if self.next_expected.is_some() {
            // One reordered request: back to zero.
            self.seqcount = 0;
        }
        self.next_expected = Some(block + nblocks);
        if self.seqcount >= 2 {
            MAX_READAHEAD_BLOCKS.min(u64::from(self.seqcount))
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "strict-sequential"
    }
}

/// The sequentiality-metric policy of §6.4.
#[derive(Debug)]
pub struct MetricReadAhead {
    score: f64,
    alpha: f64,
    threshold: f64,
    k: u64,
    last_end: Option<u64>,
}

impl MetricReadAhead {
    /// Creates the policy with the paper-inspired defaults: tolerance of
    /// 10 blocks, smoothed score, prefetch while the score is ≥ 0.6.
    pub fn new() -> Self {
        Self {
            score: 1.0,
            alpha: 0.2,
            threshold: 0.6,
            k: 10,
            last_end: None,
        }
    }
}

impl Default for MetricReadAhead {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadAheadPolicy for MetricReadAhead {
    fn on_read(&mut self, block: u64, nblocks: u64) -> u64 {
        if let Some(last) = self.last_end {
            let hit = block.abs_diff(last) < self.k;
            let obs = if hit { 1.0 } else { 0.0 };
            self.score = self.alpha * obs + (1.0 - self.alpha) * self.score;
        }
        self.last_end = Some(block + nblocks);
        if self.score >= self.threshold {
            MAX_READAHEAD_BLOCKS
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "sequentiality-metric"
    }
}

/// Replays read requests against a disk with a prefetch cache.
#[derive(Debug)]
pub(crate) struct ReadServer {
    disk: DiskModel,
    cache: HashSet<u64>,
    /// Cache hits served without disk access.
    pub cache_hits: u64,
    /// Requests that went to the disk.
    pub disk_reads: u64,
}

impl ReadServer {
    /// Creates a server over `disk`.
    pub fn new(disk: DiskModel) -> Self {
        Self {
            disk,
            cache: HashSet::new(),
            cache_hits: 0,
            disk_reads: 0,
        }
    }

    /// Services one request of `nblocks` at `block` using `policy`;
    /// returns the service time in microseconds.
    pub fn serve<P: ReadAheadPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        block: u64,
        nblocks: u64,
    ) -> u64 {
        let readahead = policy.on_read(block, nblocks);
        let mut cost = 0u64;
        // Which requested blocks are missing from the cache?
        let missing: Vec<u64> = (block..block + nblocks)
            .filter(|b| !self.cache.contains(b))
            .collect();
        if missing.is_empty() {
            self.cache_hits += 1;
            // Memory-speed service.
            cost += 50;
        } else {
            self.disk_reads += 1;
            let first = *missing.first().expect("non-empty");
            let span = missing.last().expect("non-empty") - first + 1;
            // Fetch the missing span plus the prefetch in one disk pass,
            // trimming readahead blocks that are already cached.
            let mut end = first + span + readahead;
            while end > first + span && self.cache.contains(&(end - 1)) {
                end -= 1;
            }
            cost += self.disk.access(first, end - first);
            for b in first..end {
                self.cache.insert(b);
            }
        }
        cost
    }
}

/// Outcome of replaying one stream under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Sum of per-request service times, microseconds.
    pub total_micros: u64,
    /// Requests served from cache.
    pub cache_hits: u64,
    /// Requests that touched the disk.
    pub disk_reads: u64,
}

/// Replays `requests` (block, nblocks) under `policy` on a fresh disk.
pub fn replay<P: ReadAheadPolicy>(
    requests: &[(u64, u64)],
    mut policy: P,
    disk: DiskModel,
) -> ReplayOutcome {
    let mut server = ReadServer::new(disk);
    let mut total = 0u64;
    for &(block, nblocks) in requests {
        total += server.serve(&mut policy, block, nblocks);
    }
    ReplayOutcome {
        total_micros: total,
        cache_hits: server.cache_hits,
        disk_reads: server.disk_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;

    fn sequential_stream(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 4, 4)).collect()
    }

    /// Swap every `stride`-th adjacent pair, mimicking nfsiod reordering.
    fn reorder(stream: &[(u64, u64)], stride: usize) -> Vec<(u64, u64)> {
        let mut v = stream.to_vec();
        let mut i = 1;
        while i + 1 < v.len() {
            if i % stride == 0 {
                v.swap(i, i + 1);
            }
            i += 1;
        }
        v
    }

    #[test]
    fn strict_policy_prefetches_on_clean_stream() {
        let mut p = StrictSequential::new();
        p.on_read(0, 4);
        p.on_read(4, 4);
        assert!(p.on_read(8, 4) > 0);
    }

    #[test]
    fn strict_policy_resets_on_reorder() {
        let mut p = StrictSequential::new();
        p.on_read(0, 4);
        p.on_read(4, 4);
        p.on_read(8, 4);
        assert_eq!(p.on_read(16, 4), 0); // skipped ahead: reset
        assert_eq!(p.on_read(12, 4), 0); // the late one
    }

    #[test]
    fn metric_policy_survives_isolated_reorder() {
        let mut p = MetricReadAhead::new();
        for i in 0..10u64 {
            p.on_read(i * 4, 4);
        }
        // Swapped pair: both still within the 10-block tolerance window?
        // The skip-ahead is 4 blocks (one request), well inside k=10.
        assert!(p.on_read(48, 4) > 0);
        assert!(p.on_read(44, 4) > 0);
    }

    #[test]
    fn clean_stream_policies_equivalent() {
        let stream = sequential_stream(500);
        let strict = replay(
            &stream,
            StrictSequential::new(),
            DiskModel::new(DiskParams::default()),
        );
        let metric = replay(
            &stream,
            MetricReadAhead::new(),
            DiskModel::new(DiskParams::default()),
        );
        // Within a few percent of each other on a pristine stream.
        let ratio = strict.total_micros as f64 / metric.total_micros as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn metric_beats_strict_under_reordering() {
        // ~10% of requests reordered, as in the paper's loaded server.
        let stream = reorder(&sequential_stream(2000), 10);
        let strict = replay(
            &stream,
            StrictSequential::new(),
            DiskModel::new(DiskParams::default()),
        );
        let metric = replay(
            &stream,
            MetricReadAhead::new(),
            DiskModel::new(DiskParams::default()),
        );
        let speedup =
            (strict.total_micros as f64 - metric.total_micros as f64) / strict.total_micros as f64;
        assert!(
            speedup > 0.05,
            "expected >5% improvement, got {:.1}% (strict {} vs metric {})",
            speedup * 100.0,
            strict.total_micros,
            metric.total_micros
        );
        assert!(metric.cache_hits > strict.cache_hits);
    }

    #[test]
    fn random_stream_disables_both() {
        // A genuinely random stream: neither policy should prefetch much
        // (prefetched blocks would be wasted disk work).
        let stream: Vec<(u64, u64)> = (0..500u64).map(|i| ((i * 7919) % 1_000_000, 1)).collect();
        let metric = replay(
            &stream,
            MetricReadAhead::new(),
            DiskModel::new(DiskParams::default()),
        );
        // Virtually every request misses.
        assert!(metric.cache_hits < 25);
    }
}
