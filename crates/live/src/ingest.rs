//! The bounded-memory ingest loop: one segment chain, one running
//! index.

use crate::chain::SegmentChain;
use crate::source::RecordSource;
use nfstrace_core::index::{IndexBase, PartialIndex};
use nfstrace_core::parallel;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::RecordSink;
use nfstrace_store::{
    build_partial_index, CompactionPolicy, Result, StoreConfig, StoreError, StoreIndex,
};
use nfstrace_telemetry::{span, Counter, Gauge, Histogram, Registry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Ingest knobs: where segments land and when the hot segment seals.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The segment directory (created if needed).
    pub dir: PathBuf,
    /// Store layout for each sealed segment: its chunk size, the one
    /// thing the store format leaves to the writer.
    pub store: StoreConfig,
    /// Seal the hot segment once it holds this many records.
    pub rotate_records: u64,
    /// … or once it spans this much trace time, in microseconds.
    pub rotate_micros: u64,
    /// Run LSM-style background compaction behind the ingest: after
    /// each seal, contiguous runs of `fan_in` same-generation segments
    /// merge into one generation-bumped segment
    /// ([`nfstrace_store::compact`]), keeping an archive-scale catalog
    /// from growing into thousands of tiny files. The hot segment, the
    /// running products, and every byte a view or the suite produces
    /// are untouched — compaction only re-houses sealed chunks: each
    /// is checksum-verified and moved as it is, keeping its boundaries
    /// and file filter, so the cost at rotation is bytes copied, not
    /// records re-encoded.
    /// `None` (the default) never compacts.
    pub compaction: Option<CompactionPolicy>,
    /// Where the ingest's `live.*` / `store.*` / `query.*` telemetry
    /// lands. Defaults to a private registry (no shared export); hand
    /// in one shared [`Registry`] to get a single pipeline-health
    /// export across the daemon, its segment writers/readers, and
    /// every view it snapshots.
    ///
    /// Nothing is published per record. The ingest publishes its
    /// `live.*` tally at the end of each [`LiveIngest::run`] batch, at
    /// every rotation, and at every view and finish;
    /// its segment writers add a chunk's records to
    /// `store.records_written` when the chunk reaches the file.
    /// Exported values therefore trail the tally
    /// ([`LiveIngest::total_records`], [`LiveIngest::hot_len`]) by at
    /// most one batch and equal it at [`LiveIngest::finish`]. A
    /// segment's last chunk and `live.segments_sealed` land on the
    /// sealing thread, so those two may also trail by the seal in
    /// flight until the next settle (see [`LiveIngest`]);
    /// `live.seal_wait_micros` is what the settles waited for it.
    pub registry: Registry,
}

impl LiveConfig {
    /// Sensible defaults for `dir`: 250k-record / one-simulated-day
    /// rotation with the default store layout.
    pub fn new<P: AsRef<Path>>(dir: P) -> Self {
        LiveConfig {
            dir: dir.as_ref().to_path_buf(),
            store: StoreConfig::default(),
            rotate_records: 250_000,
            rotate_micros: nfstrace_core::time::DAY,
            compaction: None,
            registry: Registry::new(),
        }
    }

    /// Points this configuration's telemetry at `registry`.
    #[must_use]
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.registry = registry.clone();
        self
    }
}

/// The `live.*` slice of the pipeline-health export, written by
/// [`RunningIndex::publish`] at batch boundaries (see
/// [`LiveConfig::registry`]).
#[derive(Debug)]
struct LiveMetrics {
    /// `live.records_emitted` — records accepted into the hot segment.
    records_emitted: Counter,
    /// `live.hot_records` — records in the hot segment (held encoded by
    /// its writer).
    hot_records: Gauge,
    /// `live.batch_micros` — wall time of each [`LiveIngest::run`]
    /// batch ingested.
    batch_micros: Histogram,
    /// `live.snapshot_micros` — wall time of each view snapshot.
    snapshot_micros: Histogram,
    /// `live.source_wait_micros` / `live.sink_wait_micros` — what each
    /// stage of [`pump`] waited for the other.
    waits: PumpWaits,
    /// The part of `total_records` `records_emitted` has received.
    /// Atomic only because a view publishes through `&self`.
    published: AtomicU64,
}

/// What the ingest keeps beside its segment chain: the order check,
/// the running [`PartialIndex`] fed every record in arrival order, its
/// snapshot cache, and the `live.*` tally.
#[derive(Debug)]
struct RunningIndex {
    index: PartialIndex,
    last_micros: u64,
    /// The last finished [`IndexBase`] and the record count (the
    /// ingest's *generation*) it was built at — repeated views between
    /// records reuse it.
    base_cache: Mutex<Option<(usize, IndexBase)>>,
    registry: Registry,
    metrics: LiveMetrics,
}

impl RunningIndex {
    fn new(registry: &Registry) -> Self {
        RunningIndex {
            index: PartialIndex::new(),
            last_micros: 0,
            base_cache: Mutex::new(None),
            registry: registry.clone(),
            metrics: LiveMetrics {
                records_emitted: registry.counter("live.records_emitted"),
                hot_records: registry.gauge("live.hot_records"),
                batch_micros: registry.histogram("live.batch_micros"),
                snapshot_micros: registry.histogram("live.snapshot_micros"),
                waits: PumpWaits {
                    source: registry.counter("live.source_wait_micros"),
                    sink: registry.counter("live.sink_wait_micros"),
                },
                published: AtomicU64::new(0),
            },
        }
    }

    /// The running state over records an earlier run emitted: `index`
    /// over all of them, the last captured at `last_micros`.
    fn resumed(registry: &Registry, index: PartialIndex, last_micros: u64) -> Self {
        let mut running = RunningIndex::new(registry);
        *running.metrics.published.get_mut() = index.len() as u64;
        running.index = index;
        running.last_micros = last_micros;
        running
    }

    /// Checks that `r` continues the stream in time order, against
    /// everything ingested so far — the contract spans batches and
    /// segments.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record.
    fn check_order(&self, r: &TraceRecord) -> Result<()> {
        if !self.index.is_empty() && r.micros < self.last_micros {
            return Err(StoreError::OutOfOrder {
                prev: self.last_micros,
                next: r.micros,
            });
        }
        Ok(())
    }

    /// Folds the stream's next record in.
    fn observe(&mut self, r: &TraceRecord) {
        self.index.observe(r);
        self.last_micros = r.micros;
    }

    /// The counters [`pump`] charges its stages' waits to.
    fn waits(&self) -> PumpWaits {
        self.metrics.waits.clone()
    }

    /// One `live.batch_micros` sample, ending when dropped.
    fn batch_span(&self) -> nfstrace_telemetry::SpanTimer {
        span!(self.metrics.batch_micros)
    }

    /// Publishes the tally, `hot_len` records hot, and returns the
    /// finished products over everything observed so far for a view —
    /// a copy-on-write snapshot of the running index, cached per
    /// generation: O(counters + hourly buckets) the first time after a
    /// record, a pure clone after that.
    fn view(&self, hot_len: usize) -> IndexBase {
        let _span = span!(self.metrics.snapshot_micros);
        self.publish(hot_len);
        let mut cache = self.base_cache.lock().expect("snapshot cache poisoned");
        if let Some((generation, base)) = cache.as_ref() {
            if *generation == self.index.len() {
                return base.clone();
            }
        }
        let base = self.index.snapshot_base();
        *cache = Some((self.index.len(), base.clone()));
        base
    }

    /// Copies the tally's growth since the last call into the `live.*`
    /// instruments: the records ingested into `live.records_emitted`,
    /// `hot_len` into `live.hot_records`.
    fn publish(&self, hot_len: usize) {
        let total = self.total_records();
        let was = self.metrics.published.swap(total, Ordering::Relaxed);
        self.metrics.records_emitted.add(total - was);
        self.metrics.hot_records.set(hot_len as f64);
    }

    /// Where the ingest's telemetry, and its views', lands.
    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn total_records(&self) -> u64 {
        self.index.len() as u64
    }
}

/// Where [`pump`] charges the time one stage waits for the other.
#[derive(Debug, Clone)]
struct PumpWaits {
    /// `live.source_wait_micros`: the source had filled a batch and
    /// waited for a free buffer — the capture is sink-bound.
    source: Counter,
    /// `live.sink_wait_micros`: the sink had sunk its batch and waited
    /// for the next — the capture is source-bound.
    sink: Counter,
}

/// A stage's wait clock: each timed wait accrues, and whole
/// microseconds go to the counter as soon as they add up.
struct Waited<'a> {
    counter: &'a Counter,
    carry: Duration,
}

impl<'a> Waited<'a> {
    fn new(counter: &'a Counter) -> Self {
        Waited {
            counter,
            carry: Duration::ZERO,
        }
    }

    fn time<T>(&mut self, wait: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = wait();
        self.carry += start.elapsed();
        let micros = self.carry.as_micros();
        if micros > 0 {
            self.counter.add(micros as u64);
            self.carry -= Duration::from_micros(micros as u64);
        }
        out
    }
}

/// Pumps `source` to exhaustion, handing each batch to `ingest` — the
/// source loop behind [`LiveIngest::run`].
///
/// The loop is a two-stage pipeline: `source` fills the next batch on
/// the caller's thread while `ingest` sinks the one before on a scoped
/// worker. Two batch buffers go back and forth through bounded
/// channels, so at most two batches are resident, and once both have
/// grown no batch allocates. `ingest` sees the batches in source order,
/// so what it does — every rotation, every segment byte — is what an
/// alternating loop would do. The stages' waits on each other go to
/// `waits`.
///
/// # Errors
///
/// The first error `ingest` returns. The source fills ahead, so by then
/// it may have been asked for the batch after the failing one, never
/// for a second.
///
/// # Panics
///
/// A panic in either stage reaches the caller, after the other stage
/// has stopped.
fn pump<S: RecordSource + ?Sized>(
    source: &mut S,
    waits: &PumpWaits,
    mut ingest: impl FnMut(&mut Vec<TraceRecord>) -> Result<()> + Send,
) -> Result<()> {
    std::thread::scope(|scope| {
        // Created inside the scope, so that a panicking source drops its
        // ends on the way out and the sink, seeing them gone, stops
        // before the scope waits for it.
        let (full_tx, full_rx) = mpsc::sync_channel::<Vec<TraceRecord>>(1);
        let (free_tx, free_rx) = mpsc::sync_channel::<Vec<TraceRecord>>(2);
        for _ in 0..2 {
            free_tx.send(Vec::new()).expect("room for both buffers");
        }
        let sink = scope.spawn(move || -> Result<()> {
            let mut waited = Waited::new(&waits.sink);
            // Ends when the source hangs up: exhausted, or stopped
            // because this stage did.
            while let Ok(mut batch) = waited.time(|| full_rx.recv()) {
                ingest(&mut batch)?;
                if free_tx.send(batch).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let mut waited = Waited::new(&waits.source);
        // No buffer comes back once the sink has stopped, on an error or
        // a panic: the source stops with it.
        while let Ok(mut batch) = waited.time(|| free_rx.recv()) {
            batch.clear();
            let more = source.next_batch(&mut batch);
            // The call that ends the stream may still hand over its
            // last records.
            if (more || !batch.is_empty()) && full_tx.send(batch).is_err() {
                break;
            }
            if !more {
                break;
            }
        }
        drop(full_tx);
        sink.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// What [`LiveIngest::finish`] reports.
#[derive(Debug, Clone)]
pub struct LiveSummary {
    /// Sealed segments on disk.
    pub segments: usize,
    /// Records ingested over the daemon's whole life (including any
    /// sealed segments found at reopen).
    pub total_records: u64,
    /// Largest hot segment ever written, in records — bounded by the
    /// rotation thresholds. Its writer holds it encoded, once: the
    /// flushed chunks on disk, the pending one in memory.
    pub peak_hot_records: usize,
}

/// The live ingest daemon: consumes time-ordered records incrementally
/// from any [`RecordSource`], accumulates them in an in-memory **hot
/// segment** (a pending [`nfstrace_store::StoreWriter`] chunk stream)
/// while folding each into a running [`PartialIndex`], and **seals**
/// the hot segment to an on-disk store segment whenever it crosses the
/// configured record-count or time-span threshold. At any instant,
/// [`LiveIngest::view`] snapshots a [`StoreIndex`] over *sealed + hot*
/// answering the full analysis suite — queries run mid-ingest, against
/// exactly the records ingested so far.
///
/// # The bounded-memory contract
///
/// Nothing here ever holds the whole trace:
///
/// - the **hot segment** (records pushed since the last seal) is
///   bounded by [`LiveConfig::rotate_records`] /
///   [`LiveConfig::rotate_micros`], and held once, encoded, by its
///   writer: a record is encoded and dropped as it arrives, so what
///   stays resident is the pending chunk, bounded by the store's chunk
///   size (a few dozen bytes a record), never decoded records;
/// - [`LiveIngest::run`] holds at most two source batches: the one
///   being sunk and the one the source fills meanwhile;
/// - at most one segment is being sealed, and what its sealing thread
///   holds is the writer's buffers;
/// - a view holds its hot segment encoded, as it holds sealed ones, and
///   decodes either chunk-at-a-time when a replay or window reads them.
///
/// What a view or index holds open grows with the catalog instead: one
/// file handle per segment it reads, which pins a segment that
/// compaction has since deleted until the view is dropped.
///
/// The running [`PartialIndex`] keeps aggregate products (counters,
/// hourly buckets, per-file access lists) — the same state any index
/// over the same records holds — but never raw records. Peak observed
/// numbers are reported via [`LiveIngest::peak_hot_records`] and
/// [`LiveSummary`]; the benchmark tracks them as
/// `live.peak_hot_records` (`nfsbench/README.md`).
///
/// # Snapshot cost
///
/// A view is [`StoreIndex::with_base`] over the segment readers and the
/// running index's products, which sit behind copy-on-write
/// [`std::sync::Arc`]s: a handle clone plus a summary/hourly copy —
/// O(counters + hourly buckets), **not** O(distinct files) or
/// O(accesses) — and the finished [`IndexBase`] is cached per ingest
/// *generation*: repeated views between mutations are pure clones.
/// Ingest pays for the sharing lazily, copying only the per-file lists
/// it touches after a snapshot. The hot segment adds a reader over what
/// its writer holds: a handle onto the segment file, the flushed
/// chunks' footer entries, and a copy of the pending chunk's encoded
/// bytes; no record is decoded and none is copied on the next push.
/// `with_base` checks the segment order and the record count against
/// the footers, O(chunks).
///
/// # Sealing, and where errors surface
///
/// A rotation hands the hot segment to a sealing thread — the writer's
/// last chunk, footer and `sync_all`, the rename to its sealed name,
/// the reopen for reading, and the [`LiveConfig::compaction`] passes
/// it made ripe all run there — and the ingest starts the next hot
/// segment at once. At most one seal is in flight. These calls
/// **settle** first, joining the seal in flight, so each sees the
/// chain exactly as an inline seal would have left it: the next
/// rotation (an [`LiveIngest::ingest`] that crosses a threshold, or
/// [`LiveIngest::rotate`]), [`LiveIngest::view`] /
/// [`LiveIngest::try_view`], [`LiveIngest::sealed_segments`],
/// [`LiveIngest::finish`], and dropping the ingest, which joins the
/// seal so no thread outlives it.
///
/// A seal's I/O error is returned by the settle that joins it (a panic
/// on the sealing thread resumes there). It poisons the ingest: the
/// records of that segment are not in the durable trace, so every
/// later `ingest`, `rotate`, `try_view` and `finish` returns
/// [`StoreError::Poisoned`] (and `view` panics with it) instead of
/// building on a trace with a hole. A failed write to the hot segment
/// poisons it the same way.
///
/// # Restartability
///
/// Segments are named by ordinal ([`nfstrace_store::SegmentCatalog`]);
/// a stopped ingest reopened with [`LiveIngest::open`] scans the
/// directory, rebuilds its running index from the sealed segments (the
/// store's construction pass: one decode per chunk, chunk-parallel),
/// and appends from the next ordinal — the durable trace
/// is the segment directory itself. The hot segment grows under a
/// `.tmp` name and is renamed only after its footer lands, so a crash
/// mid-segment never leaves an unreadable `seg-*.nfseg`: reopening
/// sweeps the stale temp and resumes from the last seal (records past
/// it were never durable and are the rollback unit).
///
/// # Determinism
///
/// Rotation decisions are made per record, so the segment files (and
/// every byte in them) are a pure function of the record stream and
/// the configuration — independent of source batch sizes, slice
/// lengths, or worker counts. The live-vs-batch property tests pin
/// exactly that.
#[derive(Debug)]
pub struct LiveIngest {
    chain: SegmentChain,
    running: RunningIndex,
}

impl LiveIngest {
    /// Starts a fresh ingest in `config.dir`.
    ///
    /// # Errors
    ///
    /// If the directory already holds sealed segments (reopen those
    /// with [`LiveIngest::open`]) or cannot be created.
    pub fn create(config: LiveConfig) -> Result<Self> {
        let running = RunningIndex::new(&config.registry);
        Ok(LiveIngest {
            chain: SegmentChain::create(config)?,
            running,
        })
    }

    /// Reopens an existing segment directory and resumes appending
    /// after the last sealed segment. The running index is rebuilt
    /// from the sealed segments by the store's construction pass
    /// ([`nfstrace_store::build_partial_index`]) — one decode per
    /// chunk, chunk-parallel on `NFSTRACE_THREADS` workers — and the
    /// order check resumes at the last capture time the footers hold.
    ///
    /// # Errors
    ///
    /// On directory or segment open/decode failure.
    pub fn open(config: LiveConfig) -> Result<Self> {
        let registry = config.registry.clone();
        let mut chain = SegmentChain::open(config)?;
        // No record was pushed yet, so every segment is sealed.
        let sealed = chain.snapshot()?;
        let index = build_partial_index(&sealed, 0, u64::MAX, parallel::threads())?;
        let ranges = sealed.iter().filter_map(|r| r.time_range());
        let last_micros = ranges.map(|(_, max)| max).max().unwrap_or(0);
        let running = RunningIndex::resumed(&registry, index, last_micros);
        Ok(LiveIngest { chain, running })
    }

    /// Ingests one record: folded into the running index and encoded
    /// into the hot segment's writer, which keeps no other copy — then,
    /// if a rotation threshold was crossed, settles the seal in flight
    /// and hands the hot segment to a new one.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record (the
    /// stream contract spans segment boundaries), I/O errors from the
    /// segment writer, the error of the seal this call settled, or
    /// [`StoreError::Poisoned`] after any of those.
    pub fn ingest(&mut self, r: &TraceRecord) -> Result<()> {
        self.running.check_order(r)?;
        self.chain.usable()?;
        self.running.observe(r);
        if self.chain.push(r)? {
            self.publish();
        }
        Ok(())
    }

    /// Settles the seal in flight, then hands the hot segment (when it
    /// holds any record) to a sealing thread, which seals it and runs
    /// any [`LiveConfig::compaction`] passes the new segment made ripe;
    /// the next settle joins it. The running index already covers
    /// these records and is untouched, and a view snapshotted
    /// before this call keeps reading every segment it references
    /// through its own handles, even one the merge deletes.
    ///
    /// # Errors
    ///
    /// The settled seal's finish/open/compaction I/O failure,
    /// [`StoreError::Poisoned`] after one, or an I/O error when no
    /// sealing thread can be started.
    pub fn rotate(&mut self) -> Result<()> {
        self.chain.rotate()?;
        self.publish();
        Ok(())
    }

    fn publish(&self) {
        self.running.publish(self.chain.hot_len());
    }

    /// Pumps `source` to exhaustion through [`LiveIngest::ingest`],
    /// draining each batch into the hot segment's writer. The source
    /// fills the next batch on this thread while the ingest sinks the last on
    /// another, and each rotated segment seals on a third behind the
    /// sink; the segments written are those of one stage after the
    /// other. The last seal may still be in flight when this returns.
    ///
    /// # Errors
    ///
    /// Propagates the first ingest error. The source may by then have
    /// been asked for one batch past the failing one, never two.
    pub fn run<S: RecordSource + ?Sized>(&mut self, source: &mut S) -> Result<()> {
        let waits = self.running.waits();
        pump(source, &waits, |batch| {
            let _span = self.running.batch_span();
            for r in batch.drain(..) {
                self.ingest(&r)?;
            }
            self.publish();
            Ok(())
        })
    }

    /// Settles the seal in flight, then snapshots a stable
    /// [`StoreIndex`] over everything ingested so far — the sealed
    /// segments, then the hot segment, queryable mid-ingest. The hot
    /// segment is taken as its writer holds it, encoded, behind a
    /// [`nfstrace_store::StoreReader`]: no record is decoded here, and
    /// the view decodes its chunks as it decodes sealed ones. Each
    /// reader keeps the file handle it opened, so the view reads the
    /// same bytes after the ingest seals, renames, merges or deletes any
    /// segment it references; a deleted segment's bytes stay on disk
    /// until the last view holding it is dropped. Before the first
    /// record the view is an empty index over no segment.
    ///
    /// # Panics
    ///
    /// If a seal failed; [`LiveIngest::try_view`] returns that error
    /// instead.
    pub fn view(&mut self) -> StoreIndex {
        self.try_view()
            .unwrap_or_else(|e| panic!("no view over a failed ingest: {e}"))
    }

    /// [`LiveIngest::view`], returning a seal's failure instead of
    /// panicking on it.
    ///
    /// # Errors
    ///
    /// The settled seal's error, or [`StoreError::Poisoned`] after one.
    pub fn try_view(&mut self) -> Result<StoreIndex> {
        let segments = self.chain.snapshot()?;
        let base = self.running.view(self.chain.hot_len());
        StoreIndex::with_base(segments, base, self.running.registry())
    }

    /// Hands the trailing hot segment to the sealer, settles it, and
    /// reports totals. The segment directory is the durable product;
    /// reopen it any time with [`LiveIngest::open`] or index it with
    /// [`nfstrace_store::StoreIndex::open_dir`].
    ///
    /// # Errors
    ///
    /// On the final seal's (or the one in flight's) I/O failure, or
    /// [`StoreError::Poisoned`] after an earlier one.
    pub fn finish(self) -> Result<LiveSummary> {
        let summary = self.chain.finish()?;
        self.running.publish(0);
        Ok(summary)
    }

    /// Sealed segments so far, after settling the seal in flight. A
    /// failed seal is left for the next call that returns errors.
    pub fn sealed_segments(&mut self) -> usize {
        self.chain.sealed_segments()
    }

    /// Records in the hot (unsealed) segment right now.
    pub fn hot_len(&self) -> usize {
        self.chain.hot_len()
    }

    /// Records ingested so far (sealed + hot).
    pub fn total_records(&self) -> u64 {
        self.running.total_records()
    }

    /// Largest hot segment ever written, in records.
    pub fn peak_hot_records(&self) -> usize {
        self.chain.peak_hot_records()
    }
}

impl RecordSink for LiveIngest {
    type Err = StoreError;

    fn push_record(&mut self, record: TraceRecord) -> Result<()> {
        self.ingest(&record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::{FileId, Op};

    /// Fixed batches, in order.
    struct Batches(std::vec::IntoIter<Vec<TraceRecord>>);

    impl RecordSource for Batches {
        fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
            self.0.next().map(|b| out.extend(b)).is_some()
        }
    }

    /// The `live.*` instruments are published at batch boundaries: after
    /// `run` they equal the tally, a record ingested outside a batch
    /// waits for the next boundary, and `finish` is one.
    #[test]
    fn registry_equals_the_tally_after_run() {
        let dir =
            std::env::temp_dir().join(format!("nfstrace-live-publish-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let registry = Registry::new();
        let config = LiveConfig {
            rotate_records: 4,
            ..LiveConfig::new(&dir)
        };
        let mut ingest = LiveIngest::create(config.with_registry(&registry)).expect("create");
        let batches: Vec<Vec<TraceRecord>> = (0..10)
            .map(record)
            .collect::<Vec<_>>()
            .chunks(3)
            .map(<[_]>::to_vec)
            .collect();
        ingest.run(&mut Batches(batches.into_iter())).expect("run");
        let exported = |registry: &Registry| {
            let snapshot = registry.snapshot();
            (
                snapshot.counter("live.records_emitted"),
                snapshot.gauge("live.hot_records"),
            )
        };
        assert_eq!((ingest.total_records(), ingest.hot_len()), (10, 2));
        assert_eq!(
            exported(&registry),
            (Some(ingest.total_records()), Some(ingest.hot_len() as f64))
        );

        ingest.ingest(&record(10)).expect("ingest");
        assert_eq!(
            exported(&registry),
            (Some(10), Some(2.0)),
            "no boundary yet"
        );
        ingest.finish().expect("finish");
        assert_eq!(exported(&registry), (Some(11), Some(0.0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn record(i: u64) -> TraceRecord {
        TraceRecord::new(i * 1000, Op::Read, FileId(i % 3))
    }

    /// Hands over its last batch with the `false` that ends the
    /// stream.
    struct EndsWithRecords(std::vec::IntoIter<Vec<TraceRecord>>);

    impl RecordSource for EndsWithRecords {
        fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
            out.extend(self.0.next().unwrap_or_default());
            self.0.len() > 0
        }
    }

    /// The records of the call that returns `false` reach the segments.
    #[test]
    fn the_batch_that_ends_the_stream_is_ingested() {
        let dir = std::env::temp_dir().join(format!("nfstrace-live-last-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut ingest = LiveIngest::create(LiveConfig::new(&dir)).expect("create");
        let batches = vec![(0..4).map(record).collect(), (4..7).map(record).collect()];
        ingest
            .run(&mut EndsWithRecords(batches.into_iter()))
            .expect("run");
        assert_eq!(ingest.total_records(), 7);
        assert_eq!(ingest.finish().expect("finish").total_records, 7);
        let stored = nfstrace_store::StoreIndex::open_dir(&dir).expect("open");
        assert_eq!(nfstrace_core::index::TraceView::len(&stored), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Batches of uneven sizes, some empty: batch `k` holds `k % 4`
    /// records.
    fn uneven_batches(n: u64) -> Vec<Vec<TraceRecord>> {
        let mut next = 0;
        (0..n)
            .map(|k| {
                let batch = (next..next + k % 4).map(record).collect();
                next += k % 4;
                batch
            })
            .collect()
    }

    /// Counts the batches handed out, and panics at one if asked to.
    struct Counted {
        batches: Batches,
        calls: usize,
        panic_at: Option<usize>,
    }

    impl Counted {
        fn new(batches: Vec<Vec<TraceRecord>>) -> Self {
            Counted {
                batches: Batches(batches.into_iter()),
                calls: 0,
                panic_at: None,
            }
        }
    }

    impl RecordSource for Counted {
        fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
            self.calls += 1;
            assert_ne!(Some(self.calls), self.panic_at, "source panics");
            self.batches.next_batch(out)
        }
    }

    fn waits() -> PumpWaits {
        PumpWaits {
            source: Counter::new(),
            sink: Counter::new(),
        }
    }

    /// The sink gets every batch in source order, and never more than
    /// two batches are out at once.
    #[test]
    fn the_sink_gets_every_batch_in_order() {
        let batches = uneven_batches(200);
        let filled = std::sync::atomic::AtomicUsize::new(0);
        let mut source = Counted::new(batches.clone());
        let mut seen = Vec::new();
        struct Filling<'a>(&'a mut Counted, &'a std::sync::atomic::AtomicUsize);
        impl RecordSource for Filling<'_> {
            fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
                let more = self.0.next_batch(out);
                self.1.fetch_add(usize::from(more), Ordering::SeqCst);
                more
            }
        }
        pump(&mut Filling(&mut source, &filled), &waits(), |batch| {
            assert!(filled.load(Ordering::SeqCst) <= 2, "a third batch is out");
            seen.push(std::mem::take(batch));
            filled.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .expect("pump");
        assert_eq!(seen, batches);
    }

    /// A sink error on batch `k` is what the pump returns, and the
    /// source has been asked for at most one batch past it.
    #[test]
    fn a_sink_error_stops_the_source_within_one_batch() {
        for k in [1usize, 2, 3, 17] {
            let mut source = Counted::new(uneven_batches(40));
            let mut sunk = 0;
            let err = pump(&mut source, &waits(), |_| {
                sunk += 1;
                if sunk == k {
                    return Err(StoreError::Format(format!("batch {k} fails")));
                }
                Ok(())
            })
            .expect_err("the sink fails");
            assert!(
                err.to_string().contains(&format!("batch {k} fails")),
                "{err}"
            );
            assert!(
                (k..=k + 1).contains(&source.calls),
                "k {k}: the source was asked {} times",
                source.calls
            );
        }
    }

    /// Runs `pump` on a thread of its own and returns its panic message,
    /// failing if it neither panics nor returns within a minute.
    fn panic_of(pump: impl FnOnce() -> Result<()> + Send + 'static) -> String {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(pump));
            done_tx.send(outcome).ok();
        });
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the pump hung");
        let panic = outcome.expect_err("the pump panics");
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    /// A panic in either stage reaches the caller, and neither stage is
    /// left waiting for the other.
    #[test]
    fn a_panic_in_either_stage_reaches_the_caller() {
        for at in [1usize, 2, 5] {
            let message = panic_of(move || {
                let mut source = Counted::new(uneven_batches(40));
                let mut sunk = 0;
                pump(&mut source, &waits(), |_| {
                    sunk += 1;
                    assert_ne!(sunk, at, "sink panics");
                    Ok(())
                })
            });
            assert!(message.contains("sink panics"), "{message:?}");

            let message = panic_of(move || {
                let mut source = Counted::new(uneven_batches(40));
                source.panic_at = Some(at);
                pump(&mut source, &waits(), |_| Ok(()))
            });
            assert!(message.contains("source panics"), "{message:?}");
        }
    }

    /// Each stage's waits reach its counter: a slow sink makes the
    /// source wait, a slow source the sink.
    #[test]
    fn waits_are_charged_to_the_stage_that_waited() {
        let nap = || std::thread::sleep(Duration::from_millis(2));
        let sink_bound = waits();
        let mut source = Counted::new(uneven_batches(20));
        pump(&mut source, &sink_bound, |_| {
            nap();
            Ok(())
        })
        .expect("pump");
        assert!(
            sink_bound.source.value() > sink_bound.sink.value(),
            "{sink_bound:?}"
        );

        struct Slow(Counted);
        impl RecordSource for Slow {
            fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
                std::thread::sleep(Duration::from_millis(2));
                self.0.next_batch(out)
            }
        }
        let source_bound = waits();
        let mut source = Slow(Counted::new(uneven_batches(20)));
        pump(&mut source, &source_bound, |_| Ok(())).expect("pump");
        assert!(
            source_bound.sink.value() > source_bound.source.value(),
            "{source_bound:?}"
        );
    }
}
