//! The metric registry and its scalar instruments.
//!
//! A [`Registry`] is a cheaply cloneable handle (an `Arc`) to a named
//! set of metrics. Handle resolution ([`Registry::counter`] /
//! [`Registry::gauge`] / [`Registry::histogram`]) takes a mutex and
//! allocates; it happens once, at component construction. The
//! returned [`Counter`] / [`Gauge`] / [`Histogram`] handles are then
//! pure relaxed-atomic instruments: lock-free and allocation-free.
//!
//! They are still not meant to be touched per record. The pipeline's
//! layers keep their own plain tallies and publish them at boundaries
//! (a drain, a batch, a chunk, a call), so no hot path has two threads
//! bumping one counter per record, and no instrument is striped per
//! thread: a [`Counter`] is one atomic on its own cache line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::export::Snapshot;
use crate::histogram::Histogram;

/// One `u64` on its own cache line, so two instruments written from
/// different threads never share one.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A monotonic counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<PaddedU64>,
}

impl Counter {
    /// A standalone counter not attached to any registry.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one. Lock-free, allocation-free.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Lock-free, allocation-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in one
/// atomic, so `set`/`value` are single relaxed operations).
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// A standalone gauge not attached to any registry.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value. Lock-free, allocation-free.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named set of metrics shared across pipeline components.
///
/// Cloning is cheap and shares the set. Components default to a
/// private registry (`Registry::new()` in their plain constructors)
/// so per-instance counter semantics — which the unit tests assert
/// exactly — are preserved; a daemon passes one registry to every
/// `with_registry` constructor and exports the union.
///
/// Metric names are dotted lowercase paths (`"sniffer.frames"`,
/// `"live.batch_micros"`). The exporter renders them verbatim in
/// JSON-lines and sanitized (`nfstrace_` prefix, dots to underscores)
/// in Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.lock().expect("telemetry registry lock");
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        let metrics = self.inner.lock().expect("telemetry registry lock");
        metrics.keys().cloned().collect()
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. Counters and histograms read concurrently with writers
    /// see a monotonic prefix; the snapshot itself is plain data.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.inner.lock().expect("telemetry registry lock");
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.value())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.value())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_its_adds() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").value(), 3);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = Registry::new();
        let g = reg.gauge("load");
        g.set(0.25);
        g.set(0.5);
        assert_eq!(reg.gauge("load").value(), 0.5);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn counters_shared_across_clones_and_threads() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("hits").value(), 4000);
    }
}
