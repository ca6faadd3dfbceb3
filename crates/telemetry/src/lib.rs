//! Unified pipeline telemetry: a metrics registry, stage spans, and a
//! periodic exporter.
//!
//! The paper's collector ran unattended against a production mirror
//! port for months; its loss counters were the published evidence that
//! the traces could be trusted. This crate is that layer for our
//! pipeline: every stage (capture → ingest → store → query) records
//! into one [`Registry`], and a long-running process can export a
//! consistent snapshot periodically without perturbing the hot path.
//!
//! # Design constraints
//!
//! - **Publish at boundaries.** A layer counts in its own plain tally
//!   and copies the tally's growth into the registry at a boundary it
//!   already has — the sniffer per drain, the live ingest per batch,
//!   a store writer per chunk — so exported values trail the tally by
//!   at most one batch and equal it when the layer finishes. Nothing
//!   on the capture, ingest or store-write path touches the registry
//!   per record.
//! - **Plain atomics.** [`Counter::inc`], [`Gauge::set`], and
//!   [`Histogram::record`] are a handful of relaxed atomic operations
//!   on one cache-line-aligned instrument — not striped per thread,
//!   because publishing at boundaries leaves no instrument that two
//!   threads bump per record. No locks and **no heap allocation**; the
//!   only lock is a registration-time mutex in [`Registry`].
//! - **Deterministic, mergeable histograms.** [`Histogram`] uses
//!   fixed power-of-two bucket edges, so snapshots from any number of
//!   threads or shards merge associatively and commutatively into the
//!   same result as a single recorder would have produced
//!   ([`HistogramSnapshot::merge`]).
//! - **Never stdout.** The [`export::Exporter`] writes JSON-lines and
//!   Prometheus text exposition to files or stderr only; the suite's
//!   byte-identity contracts (`repro` vs `--store` vs `live` stdout
//!   `cmp`) hold with telemetry enabled.
//! - **Instance-based, not global.** Components own a private
//!   [`Registry`] by default and grow `with_registry` constructors to
//!   share one; per-instance tests keep exact counter semantics while
//!   a daemon aggregates everything into a single export.
//!
//! Every exported metric name is documented in the repository
//! README's "Observability" section; a CI lint fails the build if a
//! name is registered in code but missing from the docs.

#![warn(clippy::redundant_clone)]

pub mod export;
pub mod histogram;
pub mod registry;
pub mod span;

pub use export::{Exporter, ExporterConfig, Snapshot};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, Registry};
pub use span::SpanTimer;

/// Start an RAII stage span recording elapsed microseconds into a
/// histogram when dropped.
///
/// Two forms:
/// - `span!(hist)` — time into an already-resolved [`Histogram`]
///   handle (hot paths resolve handles once at construction).
/// - `span!(registry, "decode_chunk")` — resolve
///   `"decode_chunk_micros"`-style names ad hoc; fine off the hot
///   path.
///
/// ```
/// use nfstrace_telemetry::{span, Registry};
/// let reg = Registry::new();
/// {
///     let _span = span!(reg, "decode_chunk_micros");
///     // ... stage work ...
/// }
/// assert_eq!(reg.histogram("decode_chunk_micros").snapshot().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        $crate::SpanTimer::start(($hist).clone())
    };
    ($registry:expr, $name:expr) => {
        $crate::SpanTimer::start(($registry).histogram($name))
    };
}
