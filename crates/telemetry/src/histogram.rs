//! Mergeable log-scale histograms with fixed power-of-two bucket
//! edges.
//!
//! Bucket edges are *fixed* (not adaptive): bucket `0` holds the
//! value `0`, and bucket `i` (for `i >= 1`) holds values in
//! `[2^(i-1), 2^i)`, with the top bucket (`63`) unbounded. Fixed
//! edges are what make histograms **mergeable**: a snapshot is just
//! per-bucket counts plus `count` and `sum`, so merging thread-local
//! or shard-local histograms is element-wise addition — associative,
//! commutative, and bit-for-bit equal to what a single recorder would
//! have produced. The proptest suite pins exactly that property.
//!
//! Recording is lock-free and allocation-free: a record is three
//! relaxed `fetch_add`s on one cache-line-aligned set of buckets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in: `0` for `0`, else
/// `min(63, 64 - leading_zeros(v))`, i.e. bucket `i` covers
/// `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the unbounded
/// top bucket (rendered as `+Inf` in Prometheus exposition).
#[inline]
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        _ if i < BUCKETS - 1 => Some((1u64 << i) - 1),
        _ => None,
    }
}

#[repr(align(64))]
#[derive(Debug)]
struct Buckets {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-scale histogram. Cloning shares the buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<Buckets>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(Buckets {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A standalone histogram not attached to any registry.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        let h = &self.inner;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A plain-data snapshot of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.inner;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram state: per-bucket counts plus total count and
/// sum. [`merge`](HistogramSnapshot::merge) is element-wise addition,
/// so any grouping or ordering of partial snapshots merges to the
/// same result (the single-recorder oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per bucket; see [`bucket_index`] for the edges.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping is the caller's concern; the
    /// pipeline records microsecond durations and byte counts, far
    /// from overflow).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold `other` into `self` (element-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated from the bucket
    /// counts, or 0 when empty.
    ///
    /// Returns the inclusive upper bound of the bucket containing the
    /// `ceil(q * count)`-th smallest observation — an upper estimate
    /// no more than 2x the true value, which is the usual contract of
    /// a log-scale histogram (the top bucket, unbounded, reports
    /// `u64::MAX`). `percentile(0.5)` is the median, `percentile(0.99)`
    /// the p99.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for k in 1..63 {
            // 2^k is the first value of bucket k+1; 2^k - 1 the last
            // of bucket k.
            assert_eq!(bucket_index(1u64 << k), k + 1, "first of bucket {}", k + 1);
            assert_eq!(bucket_index((1u64 << k) - 1), k, "last of bucket {k}");
        }
        assert_eq!(bucket_index(1u64 << 63), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_match_index() {
        for i in 0..BUCKETS {
            if let Some(hi) = bucket_upper_bound(i) {
                assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
                assert_eq!(
                    bucket_index(hi.wrapping_add(1)),
                    if hi == 0 { 1 } else { i + 1 },
                    "just past bucket {i}"
                );
            } else {
                assert_eq!(i, BUCKETS - 1);
            }
        }
    }

    #[test]
    fn record_accumulates_count_sum_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1007);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[bucket_index(5)], 1);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn percentile_reads_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(0.5), 0, "empty histogram");
        // 100 observations: 90 fast (land in [64,128)), 10 slow
        // (land in [1024,2048)).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(2000);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 127, "median bucket upper bound");
        assert_eq!(s.percentile(0.90), 127, "p90 still in the fast bucket");
        assert_eq!(s.percentile(0.99), 2047, "p99 lands in the slow bucket");
        assert_eq!(s.percentile(1.0), 2047);
        assert_eq!(s.percentile(0.0), 127, "q=0 clamps to the first value");

        let top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().percentile(0.5), u64::MAX, "unbounded top");
    }

    #[test]
    fn merge_matches_single_recorder() {
        let a = Histogram::new();
        let b = Histogram::new();
        let oracle = Histogram::new();
        for (i, v) in [3u64, 0, 9, 1 << 40, 17, 17].iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.record(*v);
            oracle.record(*v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, oracle.snapshot());
    }
}
