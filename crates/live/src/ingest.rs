//! The bounded-memory ingest loop: hot segment, rotation, sealing.

use crate::source::RecordSource;
use crate::view::{LiveView, ShardChain};
use nfstrace_core::index::{IndexBase, PartialIndex};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::RecordSink;
use nfstrace_store::compact::{self, FaultInjector};
use nfstrace_store::seqfile;
use nfstrace_store::{
    CompactionPolicy, Compactor, Result, SegmentCatalog, StoreConfig, StoreError, StoreReader,
    StoreWriter,
};
use nfstrace_telemetry::{span, Counter, Gauge, Histogram, Registry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Ingest knobs: where segments land and when the hot segment seals.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The segment directory (created if needed).
    pub dir: PathBuf,
    /// Store layout for each sealed segment: its chunk size, the one
    /// thing the store format leaves to the writer.
    pub store: StoreConfig,
    /// Seal the hot segment once it holds this many records. Also the
    /// hot tail's memory bound.
    pub rotate_records: u64,
    /// … or once it spans this much trace time, in microseconds.
    pub rotate_micros: u64,
    /// Run LSM-style background compaction behind the ingest: after
    /// each seal, contiguous runs of `fan_in` same-generation segments
    /// merge into one generation-bumped segment
    /// ([`nfstrace_store::compact`]), keeping an archive-scale catalog
    /// from growing into thousands of tiny files. The hot tail, the
    /// running products, and every byte a view or the suite produces
    /// are untouched — compaction only re-houses sealed chunks: each
    /// is checksum-verified and moved as it is, keeping its boundaries
    /// and file filter, so the cost at rotation is bytes copied, not
    /// records re-encoded.
    /// `None` (the default) never compacts. Shards of a
    /// [`crate::ShardedLiveIngest`] inherit the policy, each
    /// compacting its own chain.
    pub compaction: Option<CompactionPolicy>,
    /// Where the ingest's `live.*` / `store.*` / `query.*` telemetry
    /// lands. Defaults to a private registry (no shared export); hand
    /// in one shared [`Registry`] to get a single pipeline-health
    /// export across the daemon, its segment writers/readers, and
    /// every view it snapshots. Shards of a
    /// [`crate::ShardedLiveIngest`] inherit it, so shard histograms
    /// merge into one distribution.
    ///
    /// Nothing is published per record. The ingest publishes its
    /// `live.*` tally at the end of each [`LiveIngest::run`] batch,
    /// after each shard's share of a sharded batch, and at every
    /// rotation, view and finish; its segment writers add a chunk's
    /// records to `store.records_written` when the chunk reaches the
    /// file. Exported values therefore trail the tally
    /// ([`LiveIngest::total_records`], [`LiveIngest::hot_len`]) by at
    /// most one batch and equal it at [`LiveIngest::finish`].
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
/// [`LiveIngest::publish`] at batch boundaries (see
/// [`LiveConfig::registry`]).
#[derive(Debug)]
pub(crate) struct LiveMetrics {
    /// `live.records_emitted` — records accepted into the hot segment.
    records_emitted: Counter,
    /// `live.segments_sealed` — hot segments rotated to disk.
    segments_sealed: Counter,
    /// `live.hot_records` — records currently resident in the hot tail.
    hot_records: Gauge,
    /// `live.batch_micros` — wall time of each source batch ingested
    /// (per shard under a sharded ingest; shards share the registry, so
    /// the per-shard samples merge into one distribution).
    pub(crate) batch_micros: Histogram,
    /// `live.snapshot_micros` — wall time of each view snapshot.
    pub(crate) snapshot_micros: Histogram,
    /// The part of `total_records` `records_emitted` has received.
    /// Atomic only because [`LiveIngest::view`] publishes through
    /// `&self`.
    published: AtomicU64,
}

impl LiveMetrics {
    fn register(registry: &Registry) -> Self {
        LiveMetrics {
            records_emitted: registry.counter("live.records_emitted"),
            segments_sealed: registry.counter("live.segments_sealed"),
            hot_records: registry.gauge("live.hot_records"),
            batch_micros: registry.histogram("live.batch_micros"),
            snapshot_micros: registry.histogram("live.snapshot_micros"),
            published: AtomicU64::new(0),
        }
    }
}

/// What [`LiveIngest::finish`] reports.
#[derive(Debug, Clone)]
pub struct LiveSummary {
    /// Sealed segments on disk.
    pub segments: usize,
    /// Records ingested over the daemon's whole life (including any
    /// sealed segments found at reopen).
    pub total_records: u64,
    /// Largest hot tail ever resident, in records — the ingest-side
    /// memory observable, bounded by the rotation thresholds.
    pub peak_hot_records: usize,
}

/// The live ingest daemon: consumes time-ordered records incrementally
/// from any [`RecordSource`], accumulates them in an in-memory **hot
/// segment** (a pending [`StoreWriter`] chunk stream plus a running
/// [`PartialIndex`]), and **seals** the hot segment to an on-disk
/// store segment whenever it crosses the configured record-count or
/// time-span threshold. At any instant, [`LiveIngest::view`] snapshots
/// a [`LiveView`] answering the full analysis suite over *sealed +
/// hot* — queries run mid-ingest, against exactly the records ingested
/// so far.
///
/// # The bounded-memory contract
///
/// Nothing here ever holds the whole trace:
///
/// - the **hot tail** (records pushed since the last seal) is bounded
///   by [`LiveConfig::rotate_records`] / [`LiveConfig::rotate_micros`];
/// - the pending [`StoreWriter`] chunk is bounded by the store's
///   chunk size;
/// - sealed records live on disk and are re-decoded chunk-at-a-time
///   when a view replays them.
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
/// The running partial's products sit behind copy-on-write [`Arc`]s,
/// so [`LiveIngest::view`] is a handle clone plus a summary/hourly
/// copy — O(counters + hourly buckets), **not** O(distinct files) or
/// O(accesses) — and the finished [`IndexBase`] is cached per ingest
/// *generation*: repeated views between mutations are pure clones.
/// Ingest pays for the sharing lazily, copying only the per-file lists
/// it touches after a snapshot.
///
/// # Restartability
///
/// Segments are named by ordinal ([`SegmentCatalog`]); a stopped
/// ingest reopened with [`LiveIngest::open`] scans the directory,
/// rebuilds its running partial from the sealed segments (one decode
/// pass), and appends from the next ordinal — the durable trace is the
/// segment directory itself. The hot segment grows under a `.tmp`
/// name and is renamed only after its footer lands, so a crash
/// mid-segment never leaves an unreadable `seg-*.nfseg`: reopening
/// sweeps the stale temp and resumes from the last seal (records past
/// it were never durable and are the rollback unit). A shard of a
/// [`crate::ShardedLiveIngest`] also writes a sequence sidecar per
/// segment, renamed *before* the segment itself, so a sealed segment
/// always has its sidecar; orphan sidecars from a crash in between are
/// swept alongside the temps.
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
    config: LiveConfig,
    /// Whether every record carries a global **arrival sequence
    /// number**, persisted in a [`crate::seqfile`] sidecar next to each
    /// sealed segment. A plain single-writer ingest needs no sequences
    /// and writes none; [`crate::ShardedLiveIngest`] tracks them on
    /// every shard so the merged view can replay the exact original
    /// interleave, equal timestamps included.
    track_seqs: bool,
    catalog: SegmentCatalog,
    sealed: Vec<Arc<StoreReader>>,
    /// Arrival sequences per sealed segment, parallel to `sealed`
    /// (empty unless tracking).
    sealed_seqs: Vec<Arc<Vec<u64>>>,
    /// Running construction products over every ingested record,
    /// sealed and hot alike.
    running: PartialIndex,
    /// The hot segment's writer (created with its first record).
    hot_writer: Option<StoreWriter>,
    hot_ordinal: u64,
    hot_records: Arc<Vec<TraceRecord>>,
    /// Arrival sequences of the hot tail, parallel to `hot_records`
    /// (empty unless tracking).
    hot_seqs: Arc<Vec<u64>>,
    hot_first_micros: u64,
    last_micros: u64,
    /// The next arrival sequence a plain [`LiveIngest::ingest`] call
    /// self-stamps, and the floor `ingest_with_seq` enforces (tracking
    /// only).
    next_seq: u64,
    any_ingested: bool,
    total_records: u64,
    peak_hot_records: usize,
    /// Bumped on every mutation; keys the snapshot cache.
    generation: u64,
    /// The last finished [`IndexBase`] and the generation it was built
    /// at — repeated [`LiveIngest::view`] calls between mutations
    /// reuse it.
    base_cache: Mutex<Option<(u64, IndexBase)>>,
    /// The background merge engine (present iff
    /// [`LiveConfig::compaction`]).
    compactor: Option<Compactor>,
    /// Registry-backed `live.*` instruments (see [`LiveConfig::registry`]).
    pub(crate) metrics: LiveMetrics,
}

impl LiveIngest {
    /// Starts a fresh ingest in `config.dir`.
    ///
    /// # Errors
    ///
    /// If the directory already holds sealed segments (reopen those
    /// with [`LiveIngest::open`]) or cannot be created.
    pub fn create(config: LiveConfig) -> Result<Self> {
        Self::create_with(config, false)
    }

    /// [`LiveIngest::create`], tracking arrival sequences iff
    /// `track_seqs` — the sharded router's shards do.
    pub(crate) fn create_with(config: LiveConfig, track_seqs: bool) -> Result<Self> {
        let catalog = SegmentCatalog::open_and_sweep(&config.dir)?;
        if !catalog.is_empty() {
            return Err(StoreError::Format(format!(
                "segment directory {} is not empty; use LiveIngest::open to resume",
                config.dir.display()
            )));
        }
        Ok(Self::with_catalog(config, track_seqs, catalog, Vec::new()))
    }

    /// Reopens an existing segment directory and resumes appending
    /// after the last sealed segment. The running construction
    /// products are rebuilt from the sealed segments in one streaming
    /// decode pass. Sequence sidecars a sharded ingest left in the
    /// directory are invisible to this plain writer.
    ///
    /// # Errors
    ///
    /// On directory or segment open/decode failure.
    pub fn open(config: LiveConfig) -> Result<Self> {
        Self::open_with(config, false)
    }

    /// [`LiveIngest::open`], tracking arrival sequences iff `track_seqs`:
    /// each segment's sequence sidecar is loaded alongside it and
    /// stamping resumes past the highest sealed sequence.
    ///
    /// # Errors
    ///
    /// As [`LiveIngest::open`], plus — when tracking — a precise
    /// [`StoreError::Sidecar`] for a missing, corrupt, or
    /// count-mismatched sequence sidecar (the directory was written
    /// without tracking, or a sidecar rotted, and cannot seed a
    /// sharded merge).
    pub(crate) fn open_with(config: LiveConfig, track_seqs: bool) -> Result<Self> {
        let catalog = SegmentCatalog::open_and_sweep(&config.dir)?;
        let mut sealed = Vec::with_capacity(catalog.len());
        for path in catalog.paths() {
            sealed.push(Arc::new(StoreReader::open_with_registry(
                path,
                &config.registry,
            )?));
        }
        let mut ingest = Self::with_catalog(config, track_seqs, catalog, sealed);
        let mut partial = if track_seqs {
            PartialIndex::with_seq_tracking()
        } else {
            PartialIndex::new()
        };
        for reader in &ingest.sealed {
            if track_seqs {
                let seqs = seqfile::read_sidecar(reader.path())?;
                if seqs.len() as u64 != reader.total_records() {
                    return Err(StoreError::Sidecar {
                        segment: reader.path().to_path_buf(),
                        problem: format!(
                            "holds {} entries for {} records",
                            seqs.len(),
                            reader.total_records()
                        ),
                    });
                }
                let mut at = 0usize;
                reader.for_each(|r| {
                    partial.observe_seq(r, seqs[at]);
                    at += 1;
                })?;
                if let Some(&last) = seqs.last() {
                    ingest.next_seq = ingest.next_seq.max(last + 1);
                }
                ingest.sealed_seqs.push(Arc::new(seqs));
            } else {
                reader.for_each(|r| partial.observe(r))?;
            }
            ingest.total_records += reader.total_records();
            if let Some(m) = reader.chunks().iter().rfind(|m| m.records > 0) {
                ingest.last_micros = ingest.last_micros.max(m.max_micros);
                ingest.any_ingested = true;
            }
        }
        ingest.running = partial;
        // Records found on disk were emitted by an earlier run.
        *ingest.metrics.published.get_mut() = ingest.total_records;
        Ok(ingest)
    }

    fn with_catalog(
        config: LiveConfig,
        track_seqs: bool,
        catalog: SegmentCatalog,
        sealed: Vec<Arc<StoreReader>>,
    ) -> Self {
        let running = if track_seqs {
            PartialIndex::with_seq_tracking()
        } else {
            PartialIndex::new()
        };
        let metrics = LiveMetrics::register(&config.registry);
        let compactor = config
            .compaction
            .map(|policy| Compactor::new(policy, config.store, &config.registry));
        LiveIngest {
            config,
            track_seqs,
            catalog,
            sealed,
            sealed_seqs: Vec::new(),
            running,
            hot_writer: None,
            hot_ordinal: 0,
            hot_records: Arc::new(Vec::new()),
            hot_seqs: Arc::new(Vec::new()),
            hot_first_micros: 0,
            last_micros: 0,
            next_seq: 0,
            any_ingested: false,
            total_records: 0,
            peak_hot_records: 0,
            generation: 0,
            base_cache: Mutex::new(None),
            compactor,
            metrics,
        }
    }

    /// Ingests one record: into the hot segment's writer, records, and
    /// partial — then seals if a rotation threshold was crossed. (A
    /// tracking writer self-stamps the next arrival sequence here; the
    /// sharded router passes explicit global sequences instead.)
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record (the
    /// stream contract spans segment boundaries), or I/O errors from
    /// the segment writer.
    pub fn ingest(&mut self, r: &TraceRecord) -> Result<()> {
        self.ingest_owned(r.clone())
    }

    /// [`LiveIngest::ingest`] for a caller that is done with the
    /// record: it moves into the hot tail instead of being cloned.
    fn ingest_owned(&mut self, r: TraceRecord) -> Result<()> {
        let seq = self.next_seq;
        self.ingest_inner(r, seq)
    }

    /// Ingests one record stamped with an explicit global arrival
    /// sequence — the sharded router's entry point.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when sequence tracking is off or `seq`
    /// is not strictly increasing, plus everything
    /// [`LiveIngest::ingest`] can return.
    pub(crate) fn ingest_with_seq(&mut self, r: &TraceRecord, seq: u64) -> Result<()> {
        if !self.track_seqs {
            return Err(StoreError::Format(
                "ingest_with_seq requires a sequence-tracking writer".into(),
            ));
        }
        if seq < self.next_seq {
            return Err(StoreError::Format(format!(
                "arrival sequence {seq} is not increasing (next expected ≥ {})",
                self.next_seq
            )));
        }
        self.ingest_inner(r.clone(), seq)
    }

    fn ingest_inner(&mut self, r: TraceRecord, seq: u64) -> Result<()> {
        if self.any_ingested && r.micros < self.last_micros {
            return Err(StoreError::OutOfOrder {
                prev: self.last_micros,
                next: r.micros,
            });
        }
        if self.hot_writer.is_none() {
            self.hot_ordinal = self.catalog.next_ordinal();
            // The hot segment grows under a .tmp name and is renamed to
            // its sealed name only after its footer is written: a crash
            // mid-segment leaves a stale temp file (cleaned at the next
            // create/open), never a footerless seg-*.nfseg that would
            // poison the whole directory.
            self.hot_writer = Some(StoreWriter::create_with_registry(
                compact::tmp_path(&self.catalog.path_for(self.hot_ordinal)),
                self.config.store,
                &self.config.registry,
            )?);
            self.hot_first_micros = r.micros;
        }
        self.hot_writer
            .as_mut()
            .expect("just ensured a writer")
            .push(&r)?;
        if self.track_seqs {
            Arc::make_mut(&mut self.hot_seqs).push(seq);
            self.running.observe_seq(&r, seq);
            self.next_seq = seq + 1;
        } else {
            self.running.observe(&r);
        }
        let micros = r.micros;
        Arc::make_mut(&mut self.hot_records).push(r);
        self.last_micros = micros;
        self.any_ingested = true;
        self.total_records += 1;
        self.generation += 1;
        self.peak_hot_records = self.peak_hot_records.max(self.hot_records.len());
        if self.hot_records.len() as u64 >= self.config.rotate_records
            || micros.saturating_sub(self.hot_first_micros) >= self.config.rotate_micros
        {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seals the hot segment now (no-op when it is empty): finishes the
    /// segment file, publishes it via the shared crash-safe seal
    /// protocol ([`nfstrace_store::compact::seal_segment`] — sidecar
    /// first when tracking), opens it for reading, drops the hot tail,
    /// and runs any [`LiveConfig::compaction`] passes the new segment
    /// made ripe. The running partial already covers these records and
    /// is untouched; with compaction on, a [`LiveView`] snapshotted
    /// *before* this call may reference source segments the merge
    /// deletes — snapshot views after mutations, not across them.
    ///
    /// # Errors
    ///
    /// On finish/open/compaction I/O failure.
    pub fn rotate(&mut self) -> Result<()> {
        let Some(writer) = self.hot_writer.take() else {
            return Ok(());
        };
        writer.finish()?;
        let path = self.catalog.path_for(self.hot_ordinal);
        let seqs = self
            .track_seqs
            .then(|| std::mem::replace(&mut self.hot_seqs, Arc::new(Vec::new())));
        compact::seal_segment(
            &compact::tmp_path(&path),
            &path,
            seqs.as_ref().map(|s| s.as_slice()),
            &mut FaultInjector::none(),
        )?;
        if let Some(seqs) = seqs {
            self.sealed_seqs.push(seqs);
        }
        self.sealed.push(Arc::new(StoreReader::open_with_registry(
            path,
            &self.config.registry,
        )?));
        self.catalog.note_sealed(self.hot_ordinal);
        self.hot_records = Arc::new(Vec::new());
        self.metrics.segments_sealed.inc();
        self.publish();
        self.maybe_compact()
    }

    /// Copies the tally's growth since the last call into the `live.*`
    /// instruments: the records ingested into `live.records_emitted`,
    /// the hot tail's size into `live.hot_records`.
    pub(crate) fn publish(&self) {
        let was = self
            .metrics
            .published
            .swap(self.total_records, Ordering::Relaxed);
        self.metrics.records_emitted.add(self.total_records - was);
        self.metrics.hot_records.set(self.hot_records.len() as f64);
    }

    /// Runs compaction passes until the policy finds nothing ripe,
    /// mirroring each on-disk swap in the in-memory reader chain: the
    /// merged readers (and their sequence sidecars) are spliced out
    /// for the output's, so views keep seeing the identical record
    /// stream. No-op without a policy.
    fn maybe_compact(&mut self) -> Result<()> {
        let Some(compactor) = &self.compactor else {
            return Ok(());
        };
        while let Some(output) = compactor.policy().plan(self.catalog.ids()) {
            let outcome =
                compactor.compact(&mut self.catalog, output, &mut FaultInjector::none())?;
            let (first, count) = outcome.replaced;
            let reader = Arc::new(StoreReader::open_with_registry(
                self.catalog.path_of(&outcome.output),
                &self.config.registry,
            )?);
            self.sealed.splice(first..first + count, [reader]);
            if self.track_seqs {
                let merged = outcome
                    .seqs
                    .expect("tracked segments compact with sidecars");
                self.sealed_seqs
                    .splice(first..first + count, [Arc::new(merged)]);
            }
        }
        Ok(())
    }

    /// Pumps `source` to exhaustion through [`LiveIngest::ingest`],
    /// moving each batch's records into the hot tail.
    ///
    /// # Errors
    ///
    /// Propagates the first ingest error.
    pub fn run<S: RecordSource + ?Sized>(&mut self, source: &mut S) -> Result<()> {
        let mut batch = Vec::new();
        loop {
            batch.clear();
            if !source.next_batch(&mut batch) {
                return Ok(());
            }
            let _span = span!(self.metrics.batch_micros);
            for r in batch.drain(..) {
                self.ingest_owned(r)?;
            }
            self.publish();
        }
    }

    /// The finished construction products over everything ingested so
    /// far — a copy-on-write snapshot of the running partial, cached
    /// per generation: O(counters + hourly buckets) the first time
    /// after a mutation, a pure clone after that.
    pub fn snapshot_base(&self) -> IndexBase {
        let mut cache = self.base_cache.lock().expect("snapshot cache poisoned");
        if let Some((generation, base)) = cache.as_ref() {
            if *generation == self.generation {
                return base.clone();
            }
        }
        let base = self.running.clone().finish();
        *cache = Some((self.generation, base.clone()));
        base
    }

    /// A copy-on-write clone of the running partial — what
    /// [`crate::ShardedLiveIngest`] merges across shards.
    pub(crate) fn snapshot_partial(&self) -> PartialIndex {
        self.running.clone()
    }

    /// This ingest's segment chain (sealed readers + sequences + hot
    /// tail), the per-shard ingredient of a merged view.
    pub(crate) fn chain(&self) -> ShardChain {
        ShardChain::new(
            self.sealed.clone(),
            self.sealed_seqs.clone(),
            Arc::clone(&self.hot_records),
            Arc::clone(&self.hot_seqs),
        )
    }

    /// Snapshots a stable [`LiveView`] over everything ingested so far
    /// — sealed segments plus the hot tail, queryable mid-ingest.
    pub fn view(&self) -> LiveView {
        let _span = span!(self.metrics.snapshot_micros);
        self.publish();
        LiveView::assemble(
            self.chain(),
            0,
            u64::MAX,
            self.snapshot_base(),
            &self.config.registry,
        )
    }

    /// Seals the trailing hot segment and reports totals. The segment
    /// directory is the durable product; reopen it any time with
    /// [`LiveIngest::open`] or index it with
    /// [`nfstrace_store::StoreIndex::open_dir`].
    ///
    /// # Errors
    ///
    /// On the final seal's I/O failure.
    pub fn finish(mut self) -> Result<LiveSummary> {
        self.rotate()?;
        self.publish();
        Ok(LiveSummary {
            segments: self.catalog.len(),
            total_records: self.total_records,
            peak_hot_records: self.peak_hot_records,
        })
    }

    /// Sealed segments so far.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Records in the hot (unsealed) tail right now.
    pub fn hot_len(&self) -> usize {
        self.hot_records.len()
    }

    /// Records ingested so far (sealed + hot).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Largest hot tail ever resident, in records.
    pub fn peak_hot_records(&self) -> usize {
        self.peak_hot_records
    }

    /// The next arrival sequence this ingest would self-stamp — past
    /// every sequence it has seen, sealed or hot (tracking only).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The last ingested timestamp (0 before any record).
    pub fn last_micros(&self) -> u64 {
        self.last_micros
    }

    /// Whether any record was ever ingested (including sealed ones
    /// found at reopen).
    pub fn any_ingested(&self) -> bool {
        self.any_ingested
    }
}

impl RecordSink for LiveIngest {
    type Err = StoreError;

    fn push_record(&mut self, record: TraceRecord) -> Result<()> {
        self.ingest_owned(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::{FileId, Op};

    /// The tracking writer (what every shard of a sharded ingest is):
    /// it self-stamps dense sequences, resumes past them on reopen,
    /// and refuses an explicit sequence that does not increase; the
    /// plain writer refuses explicit sequences altogether.
    #[test]
    fn sequence_stamping_guards() {
        let dir = std::env::temp_dir().join(format!("nfstrace-live-seqs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = || LiveConfig {
            rotate_records: 4,
            ..LiveConfig::new(&dir)
        };
        let mut ingest = LiveIngest::create_with(config(), true).expect("create");
        for i in 0..10u64 {
            ingest
                .ingest(&TraceRecord::new(i * 1000, Op::Read, FileId(i % 3)))
                .expect("ingest");
        }
        assert_eq!(ingest.next_seq(), 10);
        assert!(ingest
            .ingest_with_seq(&TraceRecord::new(20_000, Op::Read, FileId(1)), 5)
            .is_err());
        ingest.finish().expect("finish");
        let reopened = LiveIngest::open_with(config(), true).expect("reopen tracked");
        assert_eq!(reopened.next_seq(), 10);
        drop(reopened);
        // A plain reopen of the same directory still works — the
        // sidecars are invisible to it.
        let mut plain = LiveIngest::open(config()).expect("reopen untracked");
        assert!(plain
            .ingest_with_seq(&TraceRecord::new(20_000, Op::Read, FileId(1)), 10)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

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
        let record = |i: u64| TraceRecord::new(i * 1000, Op::Read, FileId(i % 3));
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
}
