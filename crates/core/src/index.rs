//! The one-pass analysis index and its mergeable building blocks.
//!
//! Every table and figure in the paper is a view over the same
//! underlying structures: per-file, reorder-corrected access streams,
//! aggregate counters, hourly buckets, and block lifetime events.
//! Recomputing those from the raw record stream for each artifact makes
//! a full reproduction pass re-bucket and re-sort a week-long trace a
//! dozen times. [`TraceIndex`] is built **once** per trace — a single
//! pass over the records populates the summary counters, the hourly
//! buckets, and the per-file access lists — and every derived product
//! (reorder-window-sorted access maps, run tables keyed by
//! [`RunOptions`], replay products keyed by [`ReplayRequest`]) is
//! computed on first request and cached behind the shared reference.
//!
//! Time-windowed views ([`TraceView::time_window`]) share the backing
//! record storage via [`Arc`], so analyzing "the week" and "Wednesday
//! morning" of one trace never copies a record.
//!
//! # One analysis surface
//!
//! What a view *is* — construction products ([`IndexBase`]) +
//! derived-product caches ([`ProductCaches`]) + a replayable record
//! stream ([`RecordStream`]) — is decided in this module and nowhere
//! else. [`TraceView`] asks an implementor for those three things and a
//! way to narrow itself to a time window; every analysis (`summary`,
//! `runs`, `lifetime`, `prepare`, …) is a provided method written once
//! here, so `TraceIndex`, the store-backed index and the live snapshot
//! view cannot drift apart. Import the trait to call them.
//!
//! # Partial indices and out-of-core analysis
//!
//! The construction pass decomposes: [`PartialIndex`] accumulates one
//! *chunk* of a trace, and partials [`PartialIndex::absorb`]ed in chunk
//! order rebuild exactly what one pass over the concatenated records
//! builds — bit-identical summary, hourly series, and per-file access
//! lists. [`TraceIndex::new`] uses this to parallelize the in-memory
//! construction pass, and the `nfstrace_store` crate uses it to index
//! on-disk chunked traces that never fit in memory at once. The
//! derived-product caching lives in [`ProductCaches`], shared by every
//! view type.
//!
//! # Fused replay
//!
//! The record-replaying analyses (block lifetimes, name prediction,
//! hierarchy coverage) each traverse the full record stream. Run
//! naively, the reproduction suite replays a trace seven times — five
//! weekday lifetime windows, names, coverage — which for the on-disk
//! store means seven full chunk-decode passes. A [`ReplayRequest`]
//! names each such product, and [`TraceView::prepare`] feeds the
//! analyzers behind any batch of them from **one** replay, caching each
//! product under its request: callers that know their full analysis
//! set up front (the `repro` suite) pay one decode pass total, asserted
//! via [`TraceView::decode_passes`].
//!
//! The pass also learns the trace's namespace once: one file table per
//! pass (`core::hierarchy`'s crate-private `Hierarchy`) maps
//! (directory, name) to file by the §4.1.1 rules, and every analyzer
//! gets each record with what it did to that namespace, so none keeps
//! a name map of its own. The table numbers each handle the pass sees
//! once, with a dense ordinal in first-seen order, and the analyzers
//! keep their per-file state in vectors indexed by it. The construction
//! pass numbers files the same way, so an [`AccessMap`] is in
//! first-access order: what either pass allocates, and the order it
//! visits files in, follow from the trace alone.
//!
//! # Examples
//!
//! ```
//! use nfstrace_core::index::{TraceIndex, TraceView};
//! use nfstrace_core::record::{FileId, Op, TraceRecord};
//! use nfstrace_core::runs::RunOptions;
//!
//! let records = vec![
//!     TraceRecord::new(0, Op::Read, FileId(1)).with_range(0, 8192),
//!     TraceRecord::new(500, Op::Read, FileId(1)).with_range(8192, 8192),
//! ];
//! let idx = TraceIndex::new(records);
//! assert_eq!(idx.summary().read_ops, 2);
//! let runs = idx.runs(10, RunOptions::default());
//! assert_eq!(runs.len(), 1);
//! // Asking again hits the cache: still exactly one sort pass.
//! let _ = idx.runs(10, RunOptions::raw());
//! assert_eq!(idx.sort_passes(), 1);
//! ```

use crate::hierarchy::{CoverageBuilder, CoveragePoint, FileOrds, Hierarchy, NameChange};
use crate::hourly::{HourlyBuilder, HourlySeries};
use crate::lifetime::{BlockLifetimeAnalyzer, LifetimeConfig, LifetimeReport};
use crate::names::{NamePredictionBuilder, NamePredictionReport};
use crate::record::{FileId, TraceRecord};
use crate::reorder::{self, Access, SwapPoint};
use crate::runs::{runs_for_trace, Run, RunOptions};
use crate::summary::SummaryStats;
use crate::time::{DAY, HOUR};
use nfstrace_telemetry::{span, Counter, Histogram, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One file's access list, shared copy-on-write between snapshots: a
/// [`PartialIndex`] snapshot and the running partial share every list
/// until the ingest touches that file again ([`Arc::make_mut`]), so
/// snapshotting never copies accesses.
pub type AccessList = Arc<Vec<Access>>;

/// Per-file access lists, the unit the reorder and run analyses consume:
/// one entry per file with a data access, in the order of each file's
/// first access.
pub type AccessMap = Vec<(FileId, AccessList)>;

/// Cached run tables keyed by (reorder window ms, run options).
type RunCache = HashMap<(u64, RunOptions), Arc<Vec<Run>>>;

/// A source that can replay its records — in time order — any number of
/// times. In-memory indices iterate a slice; the on-disk store decodes
/// chunk by chunk, so a replay never holds more than one chunk of
/// records.
pub trait RecordStream {
    /// Calls `f` once per record, in time order.
    fn for_each_record(&self, f: &mut dyn FnMut(&TraceRecord));
}

/// A replay-derived product that [`TraceView::prepare`] can compute
/// in its next fused pass.
///
/// Callers that know the full set of record-replaying analyses they are
/// about to run (the `repro` suite does) register them all up front, so
/// the view replays — for the on-disk store, *decodes* — its records
/// exactly once instead of once per analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplayRequest {
    /// The §6.3 name-prediction report ([`TraceView::names`]).
    Names,
    /// §4.1.1 hierarchy coverage with this bucket width in microseconds
    /// ([`TraceView::hierarchy_coverage`]).
    Coverage(u64),
    /// One block-lifetime window ([`TraceView::lifetime`]).
    Lifetime(LifetimeConfig),
    /// The five merged weekday windows
    /// ([`TraceView::weekday_lifetime`]).
    WeekdayLifetime,
}

/// The analysis surface every paper artifact consumes.
///
/// A view *is* three things: the construction-pass products
/// ([`IndexBase`]), the derived-product caches ([`ProductCaches`]) and
/// a replayable record stream ([`RecordStream`]). An implementor
/// supplies exactly those — [`TraceView::base`], [`TraceView::caches`],
/// the `RecordStream` supertrait — plus how to narrow itself to a time
/// window; every analysis below is a provided method over them, written
/// once, so the whole table/figure layer runs unchanged over records in
/// memory ([`TraceIndex`]), on disk (`nfstrace_store::StoreIndex`) or
/// mid-ingest (a live ingest's view is a `StoreIndex` too).
///
/// The contract is **bit-identity**: `base()` must hold what
/// [`TraceIndex::new`] over the same records builds, and
/// `for_each_record` must replay those records in the same order — then
/// every provided method returns exactly what the in-memory index
/// returns. Provided methods must not be overridden: an override is a
/// second implementation of an analysis, and the suite's byte-identity
/// checks across view types are only meaningful while there is one.
pub trait TraceView: RecordStream + Sized {
    /// The construction-pass products over this view's records.
    fn base(&self) -> &IndexBase;

    /// This view's own derived-product caches (a time window must not
    /// share its parent's: their per-file streams differ).
    fn caches(&self) -> &ProductCaches;

    /// A view over the records in `[start_micros, end_micros)` that are
    /// also in this view. An inverted or out-of-range window is empty,
    /// never a panic.
    fn time_window(&self, start_micros: u64, end_micros: u64) -> Self;

    /// Number of records in this view.
    fn len(&self) -> usize {
        self.base().len
    }

    /// Whether the view is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters (Tables 1 and 2).
    fn summary(&self) -> &SummaryStats {
        &self.base().summary
    }

    /// Hourly buckets (Figure 4, Table 5).
    fn hourly(&self) -> &HourlySeries {
        &self.base().hourly
    }

    /// The §6.3 name-prediction report, computed on first use; repeat
    /// calls share the [`Arc`].
    fn names(&self) -> Arc<NamePredictionReport> {
        let Replayed::Names(report) = self.caches().replayed(self, ReplayRequest::Names) else {
            unreachable!("a names request caches a name-prediction report")
        };
        report
    }

    /// Per-file accesses corrected with a `window_ms` reorder window
    /// (§4.2), files in the order of their first access. Window 0
    /// returns the arrival-order lists. Each window is sorted exactly
    /// once per view; repeat calls are cache hits.
    fn accesses(&self, window_ms: u64) -> Arc<AccessMap> {
        self.caches().accesses(&self.base().raw, window_ms)
    }

    /// The run table for a reorder window and split/categorization
    /// options (Table 3, Figures 2 and 5), computed once per key.
    fn runs(&self, window_ms: u64, opts: RunOptions) -> Arc<Vec<Run>> {
        self.caches().runs(&self.base().raw, window_ms, opts)
    }

    /// The block lifetime report for one phase configuration (§5.2),
    /// computed once per configuration.
    fn lifetime(&self, cfg: LifetimeConfig) -> Arc<LifetimeReport> {
        let request = ReplayRequest::Lifetime(cfg);
        let Replayed::Lifetime(report) = self.caches().replayed(self, request) else {
            unreachable!("a lifetime request caches a lifetime report")
        };
        report
    }

    /// The paper's Table 4 / Figure 3 methodology: five weekday 24-hour
    /// windows starting 9am, each with a 24-hour end margin, merged —
    /// all five accumulated in one fused replay.
    fn weekday_lifetime(&self) -> Arc<LifetimeReport> {
        let request = ReplayRequest::WeekdayLifetime;
        let Replayed::Lifetime(report) = self.caches().replayed(self, request) else {
            unreachable!("the weekday request caches a lifetime report")
        };
        report
    }

    /// The Figure 1 sweep over this view's arrival-order accesses,
    /// parallelized across files (see [`reorder::swap_fraction_sweep`]).
    fn swap_sweep(&self, windows_ms: &[u64]) -> Vec<SwapPoint> {
        reorder::swap_fraction_sweep(&self.base().raw, windows_ms)
    }

    /// How many reorder bucket+sort passes this view has performed —
    /// one per distinct nonzero window ever requested. The reproduction
    /// suite asserts this stays at one per (trace, window).
    fn sort_passes(&self) -> u64 {
        self.caches().sort_passes()
    }

    /// §4.1.1 hierarchy-reconstruction coverage, computed once per
    /// bucket width and cached (like every other replay product) —
    /// repeat calls share the [`Arc`].
    ///
    /// # Panics
    ///
    /// If `bucket_micros` is 0: a zero-width interval never ends.
    fn hierarchy_coverage(&self, bucket_micros: u64) -> Arc<Vec<CoveragePoint>> {
        let request = ReplayRequest::Coverage(bucket_micros);
        let Replayed::Coverage(series) = self.caches().replayed(self, request) else {
            unreachable!("a coverage request caches a coverage series")
        };
        series
    }

    /// Computes every not-yet-cached product in `requests` in **one**
    /// fused replay pass. Requests already cached (or duplicated within
    /// `requests`) cost nothing, and calling the individual accessors
    /// afterwards is pure cache hits.
    fn prepare(&self, requests: &[ReplayRequest]) {
        self.caches().prepare(self, requests);
    }

    /// How many full record-replay passes this view has performed for
    /// its replay-derived products (names, coverage, lifetimes). For
    /// the on-disk store every such pass decodes the view's chunks, so
    /// the reproduction suite asserts this stays at one — the fused
    /// pass — per view, the same way it bounds [`TraceView::sort_passes`].
    fn decode_passes(&self) -> u64 {
        self.caches().decode_passes()
    }
}

/// A mergeable shard of the [`TraceIndex`] construction pass.
///
/// One `PartialIndex` accumulates one contiguous, time-ordered chunk of
/// a trace. Partials absorbed **in chunk order** (chunk ordinal, which
/// for a time-sorted trace also means timestamp order) produce the same
/// summary, hourly buckets, and per-file access lists as a single pass
/// over the concatenated records — the per-file lists concatenate in
/// record order, files stay in first-access order, and every counter
/// is a sum.
///
/// # Examples
///
/// ```
/// use nfstrace_core::index::PartialIndex;
/// use nfstrace_core::record::{FileId, Op, TraceRecord};
///
/// let recs: Vec<_> = (0..10u64)
///     .map(|i| TraceRecord::new(i, Op::Read, FileId(1)).with_range(i * 8192, 8192))
///     .collect();
/// let mut whole = PartialIndex::from_records(&recs);
/// let mut merged = PartialIndex::from_records(&recs[..4]);
/// merged.absorb(PartialIndex::from_records(&recs[4..]));
/// assert_eq!(whole.finish().summary, merged.finish().summary);
/// ```
#[derive(Debug)]
pub struct PartialIndex {
    summary: SummaryStats,
    hourly: HourlyBuilder,
    raw: Arc<AccessMap>,
    /// Each file's position in `raw`.
    files: FileOrds,
    len: usize,
}

impl Default for PartialIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// The finished products of a (possibly merged) construction pass:
/// everything [`TraceIndex`] derives its cached analyses from.
/// `Clone` is cheap (the access lists are behind [`Arc`]s) so a live
/// ingest can cache the finished base per generation.
#[derive(Debug, Clone)]
pub struct IndexBase {
    /// Aggregate counters.
    pub summary: SummaryStats,
    /// Hourly buckets.
    pub hourly: HourlySeries,
    /// Arrival-order per-file accesses, files in first-access order.
    pub raw: Arc<AccessMap>,
    /// Number of records folded in.
    pub len: usize,
}

impl PartialIndex {
    /// An empty partial ready for [`PartialIndex::observe`] calls.
    pub fn new() -> Self {
        PartialIndex {
            summary: SummaryStats::accumulator(),
            hourly: HourlyBuilder::default(),
            raw: Arc::new(AccessMap::new()),
            files: FileOrds::default(),
            len: 0,
        }
    }

    /// Builds a partial over one chunk of records in a single pass.
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut p = PartialIndex::new();
        for r in records {
            p.observe(r);
        }
        p
    }

    /// Folds one record into the summary counters, the hourly buckets,
    /// and the per-file access lists simultaneously.
    pub fn observe(&mut self, r: &TraceRecord) {
        self.summary.add(r);
        self.hourly.observe(r);
        if let Some(a) = Access::from_record(r) {
            Arc::make_mut(self.files.entry(Arc::make_mut(&mut self.raw), r.fh)).push(a);
        }
        self.len += 1;
    }

    /// Number of records folded in so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no record has been folded in.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Merges the **next** chunk's partial into this one.
    ///
    /// The caller must absorb partials in chunk order: every record in
    /// `later` is taken to follow every record already folded into
    /// `self`, so the per-file access lists concatenate in trace order,
    /// and `later`'s new files follow `self`'s, in their own
    /// first-access order. A list both hold grows to exactly its merged
    /// length, so the merge leaves no slack — and is meant for a few
    /// large partials (one per worker), not many small ones.
    pub fn absorb(&mut self, later: PartialIndex) {
        self.summary.absorb(&later.summary);
        self.hourly.absorb(later.hourly);
        // Lists only `later` holds move in wholesale (the `Arc` is
        // shared, not copied).
        let later_raw = Arc::try_unwrap(later.raw).unwrap_or_else(|a| a.as_ref().clone());
        let raw = Arc::make_mut(&mut self.raw);
        for (fh, list) in later_raw {
            let i = self.files.ord(fh) as usize;
            if i == raw.len() {
                raw.push((fh, list));
            } else {
                let merged = Arc::make_mut(&mut raw[i].1);
                merged.reserve_exact(list.len());
                merged.extend(list.iter().copied());
            }
        }
        self.len += later.len;
    }

    /// The finished products *as of now*, without ending accumulation:
    /// how a live view materializes "everything ingested so far" while
    /// the ingest keeps folding records in. It shares the copy-on-write
    /// access lists ([`AccessList`]) and copies no numbering, so it
    /// costs O(counters + hourly buckets), not O(files + accesses).
    pub fn snapshot_base(&self) -> IndexBase {
        let mut summary = self.summary.clone();
        summary.finish();
        IndexBase {
            summary,
            hourly: self.hourly.clone().finish(),
            raw: Arc::clone(&self.raw),
            len: self.len,
        }
    }

    /// Ends accumulation and returns the finished products.
    pub fn finish(mut self) -> IndexBase {
        self.summary.finish();
        IndexBase {
            summary: self.summary,
            hourly: self.hourly.finish(),
            raw: self.raw,
            len: self.len,
        }
    }
}

/// The derived-product caches shared by every index flavor.
///
/// Holds what is computed *from* the construction products on first
/// request: reorder-sorted access maps per window, run tables per
/// (window, options), and every replay product (name prediction,
/// coverage, lifetime windows, the merged weekday lifetime report)
/// keyed by the [`ReplayRequest`] that computed it. Record
/// access goes through [`RecordStream`], so the same code serves the
/// in-memory index (slice iteration) and the on-disk store index
/// (chunk-at-a-time decode). Outside this module the type is opaque
/// apart from its constructors: a view owns one and hands it to
/// [`TraceView::caches`], whose provided methods are the only readers.
///
/// Pass accounting is two-tier: the `query.*` telemetry instruments
/// aggregate across every view sharing a [`Registry`] (the pipeline
/// health export), while the plain per-view counters behind
/// [`TraceView::sort_passes`] / [`TraceView::decode_passes`]
/// keep the exact per-view semantics the suite's single-pass assertions
/// check — a time window and its parent must not pool those.
#[derive(Debug)]
pub struct ProductCaches {
    /// Reorder-corrected access maps, one per requested window (ms).
    sorted: Mutex<HashMap<u64, Arc<AccessMap>>>,
    /// Run tables keyed by (reorder window ms, run options).
    runs: Mutex<RunCache>,
    /// Every replay product, keyed by the request that computed it.
    replayed: Mutex<HashMap<ReplayRequest, Replayed>>,
    /// How many reorder bucket+sort passes *this view* has performed.
    sort_passes: AtomicU64,
    /// How many full record-replay passes *this view* has performed.
    decode_passes: AtomicU64,
    /// Registry-backed `query.*` instruments, shared across views.
    metrics: QueryMetrics,
}

impl Default for ProductCaches {
    fn default() -> Self {
        ProductCaches::with_registry(&Registry::new())
    }
}

/// The `query.*` slice of the pipeline-health export: fused-replay and
/// reorder-sort pass counts plus their wall-clock histograms.
#[derive(Debug)]
struct QueryMetrics {
    /// `query.requests` — [`ReplayRequest`]s handed to `prepare`
    /// (cache hits included).
    requests: Counter,
    /// `query.replay_passes` — fused replay passes that touched records.
    replay_passes: Counter,
    /// `query.sort_passes` — reorder bucket+sort passes.
    sort_passes: Counter,
    /// `query.replay_micros` — wall time of each fused replay pass.
    replay_micros: Histogram,
    /// `query.sort_micros` — wall time of each reorder sort pass.
    sort_micros: Histogram,
}

impl QueryMetrics {
    fn register(registry: &Registry) -> Self {
        QueryMetrics {
            requests: registry.counter("query.requests"),
            replay_passes: registry.counter("query.replay_passes"),
            sort_passes: registry.counter("query.sort_passes"),
            replay_micros: registry.histogram("query.replay_micros"),
            sort_micros: registry.histogram("query.sort_micros"),
        }
    }
}

/// One finished replay product, cached under its [`ReplayRequest`].
#[derive(Debug, Clone)]
enum Replayed {
    Names(Arc<NamePredictionReport>),
    Coverage(Arc<Vec<CoveragePoint>>),
    Lifetime(Arc<LifetimeReport>),
}

/// One analyzer riding a fused replay pass.
enum ReplayJob {
    Names(NamePredictionBuilder),
    Coverage(CoverageBuilder),
    Lifetime(BlockLifetimeAnalyzer),
}

impl ReplayJob {
    /// The analyzer behind `request`. [`ReplayRequest::WeekdayLifetime`]
    /// has none of its own: `prepare` runs its five windows and merges.
    fn new(request: ReplayRequest) -> Self {
        match request {
            ReplayRequest::Names => ReplayJob::Names(NamePredictionBuilder::default()),
            ReplayRequest::Coverage(bucket) => ReplayJob::Coverage(CoverageBuilder::new(bucket)),
            ReplayRequest::Lifetime(cfg) => ReplayJob::Lifetime(BlockLifetimeAnalyzer::new(cfg)),
            ReplayRequest::WeekdayLifetime => unreachable!("prepare expands the weekday windows"),
        }
    }

    fn observe(&mut self, r: &TraceRecord, change: NameChange) {
        match self {
            ReplayJob::Names(b) => b.observe(r, change),
            ReplayJob::Coverage(b) => b.observe(r, change),
            ReplayJob::Lifetime(a) => a.observe(r, change),
        }
    }

    fn finish(self) -> Replayed {
        match self {
            ReplayJob::Names(b) => Replayed::Names(Arc::new(b.finish())),
            ReplayJob::Coverage(b) => Replayed::Coverage(Arc::new(b.finish())),
            ReplayJob::Lifetime(a) => Replayed::Lifetime(Arc::new(a.finish())),
        }
    }
}

/// The five weekday Phase-1 windows behind
/// [`TraceView::weekday_lifetime`] (24 h starting 9am, days 1–5, each
/// with a 24 h end margin).
fn weekday_configs() -> [LifetimeConfig; 5] {
    std::array::from_fn(|i| LifetimeConfig {
        phase1_start: (i as u64 + 1) * DAY + 9 * HOUR,
        phase1_len: DAY,
        phase2_len: DAY,
    })
}

impl ProductCaches {
    /// Fresh, empty caches reporting into a private registry.
    pub fn new() -> Self {
        ProductCaches::default()
    }

    /// Fresh, empty caches whose `query.*` instruments live in
    /// `registry`, so every view sharing it contributes to one export.
    pub fn with_registry(registry: &Registry) -> Self {
        ProductCaches {
            sorted: Mutex::default(),
            runs: Mutex::default(),
            replayed: Mutex::default(),
            sort_passes: AtomicU64::new(0),
            decode_passes: AtomicU64::new(0),
            metrics: QueryMetrics::register(registry),
        }
    }

    /// See [`TraceView::accesses`]. Each window is sorted exactly once;
    /// repeat calls are cache hits.
    fn accesses(&self, raw: &Arc<AccessMap>, window_ms: u64) -> Arc<AccessMap> {
        if window_ms == 0 {
            return Arc::clone(raw);
        }
        let mut cache = self.sorted.lock().expect("index lock");
        if let Some(m) = cache.get(&window_ms) {
            return Arc::clone(m);
        }
        let _span = span!(self.metrics.sort_micros);
        let mut sorted: AccessMap = raw.as_ref().clone();
        for (_, list) in &mut sorted {
            // make_mut copies the shared arrival-order list once; the
            // sort then runs on the private copy.
            let list: &mut Vec<Access> = Arc::make_mut(list);
            reorder::sort_within_window(list, window_ms * 1000);
        }
        self.sort_passes.fetch_add(1, Ordering::Relaxed);
        self.metrics.sort_passes.inc();
        let arc = Arc::new(sorted);
        cache.insert(window_ms, Arc::clone(&arc));
        arc
    }

    /// See [`TraceView::runs`].
    fn runs(&self, raw: &Arc<AccessMap>, window_ms: u64, opts: RunOptions) -> Arc<Vec<Run>> {
        let key = (window_ms, opts);
        if let Some(r) = self.runs.lock().expect("index lock").get(&key) {
            return Arc::clone(r);
        }
        // Compute outside the lock: `accesses` takes its own lock.
        let computed = Arc::new(runs_for_trace(&self.accesses(raw, window_ms), opts));
        let mut cache = self.runs.lock().expect("index lock");
        Arc::clone(cache.entry(key).or_insert(computed))
    }

    /// See [`TraceView::prepare`]: computes every not-yet-cached product
    /// in `requests` with **one** fused replay over `source`.
    ///
    /// Requests already cached (or duplicated within `requests`) cost
    /// nothing; if everything is cached the replay is skipped entirely,
    /// so [`ProductCaches::decode_passes`] counts exactly the passes
    /// that touched the records.
    fn prepare(&self, source: &dyn RecordStream, requests: &[ReplayRequest]) {
        self.metrics.requests.add(requests.len() as u64);
        let weekday = weekday_configs().map(ReplayRequest::Lifetime);
        let mut jobs: Vec<(ReplayRequest, ReplayJob)> = Vec::new();
        {
            let cache = self.replayed.lock().expect("index lock");
            for request in requests {
                let replays = match request {
                    ReplayRequest::WeekdayLifetime => &weekday[..],
                    one => std::slice::from_ref(one),
                };
                for &r in replays {
                    if !cache.contains_key(&r) && !jobs.iter().any(|(queued, _)| *queued == r) {
                        jobs.push((r, ReplayJob::new(r)));
                    }
                }
            }
        }
        if !jobs.is_empty() {
            self.decode_passes.fetch_add(1, Ordering::Relaxed);
            self.metrics.replay_passes.inc();
            let _span = span!(self.metrics.replay_micros);
            // The fused pass: no locks held, one traversal, one
            // namespace, every analyzer observes every record with what
            // it did to that namespace.
            let mut names = Hierarchy::default();
            source.for_each_record(&mut |r| {
                let change = names.observe(r);
                for (_, job) in &mut jobs {
                    job.observe(r, change);
                }
            });
        }
        let mut cache = self.replayed.lock().expect("index lock");
        for (request, job) in jobs {
            cache.entry(request).or_insert_with(|| job.finish());
        }
        if requests.contains(&ReplayRequest::WeekdayLifetime)
            && !cache.contains_key(&ReplayRequest::WeekdayLifetime)
        {
            // All five window reports are cached by now.
            let mut merged = LifetimeReport::default();
            for window in &weekday {
                let Some(Replayed::Lifetime(report)) = cache.get(window) else {
                    unreachable!("the fused pass cached every weekday window")
                };
                merged.merge(report);
            }
            cache.insert(
                ReplayRequest::WeekdayLifetime,
                Replayed::Lifetime(Arc::new(merged)),
            );
        }
    }

    /// The product `request` names: cached, or computed by a one-request
    /// [`ProductCaches::prepare`] over `source` first.
    fn replayed(&self, source: &dyn RecordStream, request: ReplayRequest) -> Replayed {
        if let Some(product) = self.replayed.lock().expect("index lock").get(&request) {
            return product.clone();
        }
        self.prepare(source, &[request]);
        self.replayed.lock().expect("index lock")[&request].clone()
    }

    /// How many reorder bucket+sort passes these caches have performed —
    /// one per distinct nonzero window ever requested.
    fn sort_passes(&self) -> u64 {
        self.sort_passes.load(Ordering::Relaxed)
    }

    /// How many full record-replay passes these caches have performed —
    /// at most one per [`ProductCaches::prepare`] batch that contained
    /// anything uncached.
    fn decode_passes(&self) -> u64 {
        self.decode_passes.load(Ordering::Relaxed)
    }
}

/// A build-once, query-many index over one trace (or one time window of
/// one trace), records resident in memory.
#[derive(Debug)]
pub struct TraceIndex {
    /// The full backing trace, time-sorted, shared across windows.
    records: Arc<Vec<TraceRecord>>,
    /// This view's half-open record range within `records`.
    lo: usize,
    hi: usize,
    /// The construction-pass products.
    base: IndexBase,
    /// The derived-product caches.
    caches: ProductCaches,
}

impl TraceIndex {
    /// Builds an index over a whole trace, sharding the construction
    /// pass across [`crate::parallel::threads`] workers (the result is
    /// bit-identical for any worker count). Records are time-sorted
    /// first if they are not already (generated and on-disk traces
    /// are).
    pub fn new(records: Vec<TraceRecord>) -> Self {
        Self::new_sharded(records, crate::parallel::threads())
    }

    /// [`TraceIndex::new`] with the construction pass sharded across up
    /// to `threads` worker threads: the record range splits into
    /// contiguous chunks, one [`PartialIndex`] per chunk built in
    /// parallel, merged in chunk order. Bit-identical to `new` for any
    /// thread count.
    fn new_sharded(mut records: Vec<TraceRecord>, threads: usize) -> Self {
        if !records.windows(2).all(|w| w[0].micros <= w[1].micros) {
            records.sort_by_key(|r| r.micros);
        }
        let n = records.len();
        Self::build(Arc::new(records), 0, n, threads)
    }

    /// The construction pass over one record range: one loop (per
    /// run of [`crate::parallel::run_len`] records) feeds the summary
    /// counters, the hourly buckets, and the per-file access lists
    /// simultaneously; the runs' partials are absorbed in run order.
    fn build(records: Arc<Vec<TraceRecord>>, lo: usize, hi: usize, threads: usize) -> Self {
        let view = &records[lo..hi];
        let run_len = crate::parallel::run_len(view.len(), threads);
        let base = crate::parallel::fork_join(view.chunks(run_len), PartialIndex::from_records)
            .into_iter()
            .reduce(|mut acc, later| {
                acc.absorb(later);
                acc
            })
            .unwrap_or_default()
            .finish();
        TraceIndex {
            records,
            lo,
            hi,
            base,
            caches: ProductCaches::new(),
        }
    }

    /// The records in this view, time-sorted.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records[self.lo..self.hi]
    }
}

impl RecordStream for TraceIndex {
    fn for_each_record(&self, f: &mut dyn FnMut(&TraceRecord)) {
        for r in self.records() {
            f(r);
        }
    }
}

impl TraceView for TraceIndex {
    fn base(&self) -> &IndexBase {
        &self.base
    }

    fn caches(&self) -> &ProductCaches {
        &self.caches
    }

    /// Shares the backing storage with `self`; the window gets its own
    /// caches.
    fn time_window(&self, start_micros: u64, end_micros: u64) -> TraceIndex {
        let view = self.records();
        let a = view.partition_point(|r| r.micros < start_micros);
        let b = view.partition_point(|r| r.micros < end_micros).max(a);
        Self::build(Arc::clone(&self.records), self.lo + a, self.lo + b, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Op;

    fn rec(micros: u64, op: Op, fh: u64, offset: u64, count: u32) -> TraceRecord {
        TraceRecord::new(micros, op, FileId(fh)).with_range(offset, count)
    }

    fn sample() -> Vec<TraceRecord> {
        let mut v = Vec::new();
        for i in 0..40u64 {
            v.push(rec(i * 1_000, Op::Read, i % 3, (i / 3) * 8192, 8192));
            if i % 4 == 0 {
                v.push(rec(i * 1_000 + 300, Op::Write, 7, i * 8192, 4096));
            }
            if i % 5 == 0 {
                v.push(TraceRecord::new(i * 1_000 + 500, Op::Getattr, FileId(9)));
            }
        }
        v
    }

    #[test]
    fn matches_legacy_single_shot_paths() {
        let records = sample();
        let idx = TraceIndex::new(records.clone());
        assert_eq!(idx.summary(), &SummaryStats::from_records(records.iter()));
        assert_eq!(idx.hourly(), &HourlySeries::from_records(records.iter()));
        let legacy = reorder::accesses_by_file(records.iter());
        assert_eq!(idx.accesses(0).as_ref(), &legacy);
        let mut sorted = legacy;
        for (_, l) in &mut sorted {
            let l: &mut Vec<Access> = Arc::make_mut(l);
            reorder::sort_within_window(l, 10_000);
        }
        assert_eq!(idx.accesses(10).as_ref(), &sorted);
        assert_eq!(
            idx.runs(10, RunOptions::default()).as_ref(),
            &runs_for_trace(&sorted, RunOptions::default())
        );
    }

    #[test]
    fn caches_are_hit_not_rebuilt() {
        let idx = TraceIndex::new(sample());
        let a = idx.runs(10, RunOptions::default());
        let b = idx.runs(10, RunOptions::default());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(idx.sort_passes(), 1);
        let _ = idx.runs(10, RunOptions::raw());
        assert_eq!(idx.sort_passes(), 1, "raw opts reuse the sorted map");
        let _ = idx.runs(5, RunOptions::default());
        assert_eq!(idx.sort_passes(), 2, "a second window is a new pass");
    }

    #[test]
    fn window_zero_is_arrival_order_and_free() {
        let idx = TraceIndex::new(sample());
        let _ = idx.accesses(0);
        let _ = idx.runs(0, RunOptions::raw());
        assert_eq!(idx.sort_passes(), 0);
    }

    #[test]
    fn time_window_shares_storage_and_matches_slice() {
        let records = sample();
        let idx = TraceIndex::new(records.clone());
        let sub = idx.time_window(10_000, 20_000);
        let expect: Vec<&TraceRecord> = records
            .iter()
            .filter(|r| (10_000..20_000).contains(&r.micros))
            .collect();
        assert_eq!(sub.len(), expect.len());
        let legacy = SummaryStats::from_records(expect);
        assert_eq!(sub.summary(), &legacy);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let mut records = sample();
        records.reverse();
        let idx = TraceIndex::new(records);
        let r = idx.records();
        assert!(r.windows(2).all(|w| w[0].micros <= w[1].micros));
    }

    #[test]
    fn empty_trace() {
        let idx = TraceIndex::new(Vec::new());
        assert!(idx.is_empty());
        assert_eq!(idx.summary().total_ops, 0);
        assert!(idx.runs(10, RunOptions::default()).is_empty());
    }

    #[test]
    fn lifetime_cached_per_config_and_weekday_merges() {
        let idx = TraceIndex::new(sample());
        let cfg = LifetimeConfig {
            phase1_start: 0,
            phase1_len: 20_000,
            phase2_len: 20_000,
        };
        let a = idx.lifetime(cfg);
        let b = idx.lifetime(cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let w1 = idx.weekday_lifetime();
        let w2 = idx.weekday_lifetime();
        assert!(Arc::ptr_eq(&w1, &w2));
    }

    #[test]
    fn partials_merge_to_whole_pass() {
        let records = sample();
        let whole = PartialIndex::from_records(&records).finish();
        for split in [0, 1, 7, records.len() / 2, records.len()] {
            let mut acc = PartialIndex::from_records(&records[..split]);
            acc.absorb(PartialIndex::from_records(&records[split..]));
            let merged = acc.finish();
            assert_eq!(merged.summary, whole.summary, "split={split}");
            assert_eq!(merged.hourly, whole.hourly, "split={split}");
            assert_eq!(merged.raw, whole.raw, "split={split}");
            assert_eq!(merged.len, whole.len, "split={split}");
        }
    }

    #[test]
    fn sharded_build_matches_serial() {
        let records = sample();
        let serial = TraceIndex::new(records.clone());
        // Files with a data access, in the order of their first one,
        // which is not `FileId` order.
        let mut first_accessed = Vec::new();
        for r in records.iter().filter(|r| Access::from_record(r).is_some()) {
            if !first_accessed.contains(&r.fh) {
                first_accessed.push(r.fh);
            }
        }
        assert_eq!(first_accessed, [0, 7, 1, 2].map(FileId));
        for threads in [1, 2, 3, 4, 8, 64] {
            let sharded = TraceIndex::new_sharded(records.clone(), threads);
            assert_eq!(sharded.summary(), serial.summary(), "threads={threads}");
            assert_eq!(sharded.hourly(), serial.hourly(), "threads={threads}");
            assert_eq!(
                sharded.accesses(0).as_ref(),
                serial.accesses(0).as_ref(),
                "threads={threads}"
            );
            let order: Vec<FileId> = sharded.accesses(0).iter().map(|&(f, _)| f).collect();
            assert_eq!(order, first_accessed, "threads={threads}");
        }
    }

    #[test]
    fn files_are_listed_in_first_access_order() {
        let idx = TraceIndex::new(vec![
            rec(0, Op::Read, 9, 0, 8192),
            TraceRecord::new(5, Op::Getattr, FileId(4)),
            rec(10, Op::Read, 1, 0, 8192),
            rec(20, Op::Write, 9, 8192, 8192),
            rec(30, Op::Read, 1, 8192, 8192),
        ]);
        for window in [0, 10] {
            let files: Vec<FileId> = idx.accesses(window).iter().map(|&(f, _)| f).collect();
            assert_eq!(files, [FileId(9), FileId(1)], "window={window}");
        }
        let runs = idx.runs(10, RunOptions::default());
        let files: Vec<FileId> = runs.iter().map(|r| r.file).collect();
        assert_eq!(files, [FileId(9), FileId(1)]);
    }

    #[test]
    fn snapshot_base_matches_finish_and_keeps_accumulating() {
        let records = sample();
        let mut p = PartialIndex::new();
        for r in &records[..20] {
            p.observe(r);
        }
        let snap = p.snapshot_base();
        let head = PartialIndex::from_records(&records[..20]).finish();
        assert_eq!(snap.summary, head.summary);
        assert_eq!(snap.hourly, head.hourly);
        assert_eq!(snap.raw, head.raw);
        // The snapshot did not end accumulation.
        for r in &records[20..] {
            p.observe(r);
        }
        let whole = PartialIndex::from_records(&records).finish();
        let done = p.finish();
        assert_eq!(done.summary, whole.summary);
        assert_eq!(done.raw, whole.raw);
    }

    #[test]
    fn empty_partial_merges_cleanly() {
        let records = sample();
        let mut acc = PartialIndex::new();
        acc.absorb(PartialIndex::from_records(&records));
        acc.absorb(PartialIndex::new());
        let merged = acc.finish();
        let whole = PartialIndex::from_records(&records).finish();
        assert_eq!(merged.summary, whole.summary);
        assert_eq!(merged.hourly, whole.hourly);
    }

    #[test]
    fn hierarchy_coverage_streams_like_slice() {
        let records = sample();
        let idx = TraceIndex::new(records.clone());
        let streamed = TraceView::hierarchy_coverage(&idx, 10_000);
        let legacy = crate::hierarchy::coverage_over_time(records.iter(), 10_000);
        assert_eq!(streamed.as_ref(), &legacy);
    }

    /// Writes that churn blocks so the lifetime analyzers have work.
    fn churn_sample() -> Vec<TraceRecord> {
        let mut v = sample();
        for i in 0..30u64 {
            v.push(rec(i * DAY / 8, Op::Write, i % 4, (i % 2) * 8192, 8192));
        }
        v.sort_by_key(|r| r.micros);
        v
    }

    #[test]
    fn prepare_fuses_everything_into_one_pass() {
        let records = churn_sample();
        let idx = TraceIndex::new(records.clone());
        let cfg = LifetimeConfig {
            phase1_start: 0,
            phase1_len: 20_000,
            phase2_len: 20_000,
        };
        idx.prepare(&[
            ReplayRequest::Names,
            ReplayRequest::Coverage(10_000),
            ReplayRequest::Lifetime(cfg),
            ReplayRequest::WeekdayLifetime,
        ]);
        assert_eq!(idx.decode_passes(), 1, "one fused pass computed all");

        // Each product now equals its per-analysis (legacy) computation.
        assert_eq!(
            idx.names().as_ref(),
            &NamePredictionReport::from_records(records.iter())
        );
        assert_eq!(
            idx.hierarchy_coverage(10_000).as_ref(),
            &crate::hierarchy::coverage_over_time(records.iter(), 10_000)
        );
        assert_eq!(
            idx.lifetime(cfg).as_ref(),
            &crate::lifetime::analyze(records.iter(), cfg)
        );
        let mut merged = LifetimeReport::default();
        for c in weekday_configs() {
            merged.merge(&crate::lifetime::analyze(records.iter(), c));
        }
        assert_eq!(idx.weekday_lifetime().as_ref(), &merged);
        // ... and serving them was pure cache hits.
        assert_eq!(idx.decode_passes(), 1);
    }

    #[test]
    fn weekday_lifetime_is_one_fused_pass() {
        let idx = TraceIndex::new(churn_sample());
        let _ = idx.weekday_lifetime();
        assert_eq!(idx.decode_passes(), 1, "five windows, one replay");
        // The per-window reports were cached by the fused pass too.
        for c in weekday_configs() {
            let _ = idx.lifetime(c);
        }
        assert_eq!(idx.decode_passes(), 1);
    }

    #[test]
    fn weekday_lifetime_replays_only_its_uncached_windows() {
        let records = churn_sample();
        let idx = TraceIndex::new(records.clone());
        let windows = weekday_configs();
        let _ = idx.lifetime(windows[2]);
        assert_eq!(idx.decode_passes(), 1);
        let weekday = idx.weekday_lifetime();
        assert_eq!(idx.decode_passes(), 2, "four windows left, one pass");
        let mut merged = LifetimeReport::default();
        for c in windows {
            merged.merge(&crate::lifetime::analyze(records.iter(), c));
        }
        assert_eq!(weekday.as_ref(), &merged);
    }

    #[test]
    fn a_window_owns_its_replay_products() {
        let records = churn_sample();
        let idx = TraceIndex::new(records.clone());
        let cfg = LifetimeConfig::daily(0);
        let requests = [
            ReplayRequest::Names,
            ReplayRequest::Coverage(10_000),
            ReplayRequest::Lifetime(cfg),
            ReplayRequest::WeekdayLifetime,
        ];
        idx.prepare(&requests);
        let (start, end) = (DAY / 4, 3 * DAY);
        let window = idx.time_window(start, end);
        window.prepare(&requests);
        assert_eq!(window.decode_passes(), 1, "none of the parent's products");
        let rebuilt = TraceIndex::new(
            records
                .into_iter()
                .filter(|r| (start..end).contains(&r.micros))
                .collect(),
        );
        assert_eq!(window.names(), rebuilt.names());
        assert_eq!(
            window.hierarchy_coverage(10_000),
            rebuilt.hierarchy_coverage(10_000)
        );
        assert_eq!(window.lifetime(cfg), rebuilt.lifetime(cfg));
        assert_eq!(window.weekday_lifetime(), rebuilt.weekday_lifetime());
        assert_ne!(
            window.hierarchy_coverage(10_000),
            idx.hierarchy_coverage(10_000),
            "the window sees fewer records"
        );
        assert_ne!(window.lifetime(cfg), idx.lifetime(cfg));
        assert_ne!(window.weekday_lifetime(), idx.weekday_lifetime());
        assert_eq!(window.decode_passes(), 1);
    }

    #[test]
    fn unfused_calls_cost_a_pass_each() {
        let idx = TraceIndex::new(churn_sample());
        let _ = idx.names();
        let _ = idx.hierarchy_coverage(10_000);
        let cfg = LifetimeConfig {
            phase1_start: 0,
            phase1_len: 20_000,
            phase2_len: 20_000,
        };
        let _ = idx.lifetime(cfg);
        assert_eq!(idx.decode_passes(), 3, "the old shape: one pass each");
        // Repeats stay cached.
        let _ = idx.names();
        let _ = idx.hierarchy_coverage(10_000);
        let _ = idx.lifetime(cfg);
        assert_eq!(idx.decode_passes(), 3);
    }

    #[test]
    fn prepare_skips_cached_and_duplicate_requests() {
        let idx = TraceIndex::new(churn_sample());
        idx.prepare(&[ReplayRequest::Names, ReplayRequest::Names]);
        assert_eq!(idx.decode_passes(), 1);
        idx.prepare(&[ReplayRequest::Names]);
        assert_eq!(idx.decode_passes(), 1, "fully cached batch replays nothing");
        idx.prepare(&[]);
        assert_eq!(idx.decode_passes(), 1);
    }

    #[test]
    fn cow_snapshot_shares_unchanged_lists_and_copies_touched_ones() {
        let mut p = PartialIndex::new();
        p.observe(&rec(0, Op::Read, 1, 0, 8192));
        p.observe(&rec(10, Op::Read, 2, 0, 8192));
        let snap1 = p.snapshot_base();
        // Touch only file 1 (position 0); file 2's list (position 1)
        // must stay shared.
        p.observe(&rec(20, Op::Write, 1, 8192, 4096));
        let snap2 = p.snapshot_base();
        for snap in [&snap1, &snap2] {
            let files: Vec<FileId> = snap.raw.iter().map(|&(f, _)| f).collect();
            assert_eq!(files, [FileId(1), FileId(2)]);
        }
        assert!(Arc::ptr_eq(
            &snap1.raw[1].1,
            &snap2.raw[1].1,
            // ^ untouched list shared between snapshots
        ));
        assert!(!Arc::ptr_eq(&snap1.raw[0].1, &snap2.raw[0].1));
        assert_eq!(snap1.raw[0].1.len(), 1);
        assert_eq!(snap2.raw[0].1.len(), 2);
    }
}
