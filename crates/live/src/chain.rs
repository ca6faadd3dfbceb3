//! One segment chain: the on-disk half of an ingest.
//!
//! A chain is one segment directory and the hot segment growing at its
//! end: the catalog, the sealed readers, the pending [`StoreWriter`]
//! with the hot tail it mirrors, rotation, the crash-safe seal, and the
//! compaction splice. [`crate::LiveIngest`] writes one chain;
//! [`crate::ShardedLiveIngest`] writes one per shard, and its chains
//! also carry every record's global arrival sequence, sealed into a
//! [`seqfile`] sidecar per segment. Chains hold no index: the ingest
//! that owns them folds its whole stream once, in arrival order.

use crate::ingest::{LiveConfig, LiveSummary};
use crate::view::ShardChain;
use nfstrace_core::record::TraceRecord;
use nfstrace_store::compact::{self, FaultInjector};
use nfstrace_store::seqfile;
use nfstrace_store::{Compactor, Result, SegmentCatalog, StoreError, StoreReader, StoreWriter};
use nfstrace_telemetry::Counter;
use std::sync::Arc;

/// A segment directory being appended to; see the module docs.
#[derive(Debug)]
pub(crate) struct SegmentChain {
    config: LiveConfig,
    catalog: SegmentCatalog,
    sealed: Vec<Arc<StoreReader>>,
    /// Arrival sequences per sealed segment, parallel to `sealed`;
    /// `None` for a chain that carries no sequences.
    sealed_seqs: Option<Vec<Arc<Vec<u64>>>>,
    /// The hot segment's writer (created with its first record).
    hot_writer: Option<StoreWriter>,
    hot_ordinal: u64,
    hot_records: Arc<Vec<TraceRecord>>,
    /// Arrival sequences of the hot tail, parallel to `hot_records`
    /// (empty without sequences).
    hot_seqs: Arc<Vec<u64>>,
    hot_first_micros: u64,
    peak_hot_records: usize,
    /// The background merge engine (present iff
    /// [`LiveConfig::compaction`]).
    compactor: Option<Compactor>,
    /// `live.segments_sealed` — hot segments rotated to disk.
    segments_sealed: Counter,
}

impl SegmentChain {
    /// Starts an empty chain in `config.dir`, carrying sequences iff
    /// `sequenced`.
    ///
    /// # Errors
    ///
    /// If the directory already holds sealed segments or cannot be
    /// created.
    pub(crate) fn create(config: LiveConfig, sequenced: bool) -> Result<Self> {
        let catalog = SegmentCatalog::open_and_sweep(&config.dir)?;
        if !catalog.is_empty() {
            return Err(StoreError::Format(format!(
                "segment directory {} is not empty; use LiveIngest::open to resume",
                config.dir.display()
            )));
        }
        let sealed_seqs = sequenced.then(Vec::new);
        Ok(Self::with_catalog(config, catalog, Vec::new(), sealed_seqs))
    }

    /// Reopens the chain in `config.dir` after its last sealed segment,
    /// loading each segment's sequence sidecar iff `sequenced`. Nothing
    /// is decoded here: the owner replays the chain to rebuild its
    /// index.
    ///
    /// # Errors
    ///
    /// On directory or segment open failure, plus — with sequences — a
    /// precise [`StoreError::Sidecar`] for a missing, corrupt, or
    /// count-mismatched sidecar.
    pub(crate) fn open(config: LiveConfig, sequenced: bool) -> Result<Self> {
        let catalog = SegmentCatalog::open_and_sweep(&config.dir)?;
        let mut sealed = Vec::with_capacity(catalog.len());
        for path in catalog.paths() {
            sealed.push(Arc::new(StoreReader::open_with_registry(
                path,
                &config.registry,
            )?));
        }
        let load = |reader: &Arc<StoreReader>| {
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
            Ok(Arc::new(seqs))
        };
        let sealed_seqs = sequenced
            .then(|| sealed.iter().map(load).collect::<Result<Vec<_>>>())
            .transpose()?;
        Ok(Self::with_catalog(config, catalog, sealed, sealed_seqs))
    }

    fn with_catalog(
        config: LiveConfig,
        catalog: SegmentCatalog,
        sealed: Vec<Arc<StoreReader>>,
        sealed_seqs: Option<Vec<Arc<Vec<u64>>>>,
    ) -> Self {
        let compactor = config
            .compaction
            .map(|policy| Compactor::new(policy, config.store, &config.registry));
        let segments_sealed = config.registry.counter("live.segments_sealed");
        SegmentChain {
            config,
            catalog,
            sealed,
            sealed_seqs,
            hot_writer: None,
            hot_ordinal: 0,
            hot_records: Arc::new(Vec::new()),
            hot_seqs: Arc::new(Vec::new()),
            hot_first_micros: 0,
            peak_hot_records: 0,
            compactor,
            segments_sealed,
        }
    }

    /// Appends one record — into the hot segment's writer and tail,
    /// with its arrival sequence `seq` on a sequenced chain — then
    /// seals if a rotation threshold was crossed. Returns whether it
    /// sealed. Order is the owner's to check.
    ///
    /// # Errors
    ///
    /// On segment write, seal or compaction I/O failure.
    pub(crate) fn push(&mut self, r: TraceRecord, seq: Option<u64>) -> Result<bool> {
        debug_assert_eq!(seq.is_some(), self.sealed_seqs.is_some());
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
        if let Some(seq) = seq {
            Arc::make_mut(&mut self.hot_seqs).push(seq);
        }
        let micros = r.micros;
        Arc::make_mut(&mut self.hot_records).push(r);
        self.peak_hot_records = self.peak_hot_records.max(self.hot_records.len());
        let ripe = self.hot_records.len() as u64 >= self.config.rotate_records
            || micros.saturating_sub(self.hot_first_micros) >= self.config.rotate_micros;
        if ripe {
            self.rotate()?;
        }
        Ok(ripe)
    }

    /// Seals the hot segment now (no-op when it is empty): finishes the
    /// segment file, publishes it via the shared crash-safe seal
    /// protocol ([`nfstrace_store::compact::seal_segment`] — sidecar
    /// first on a sequenced chain), opens it for reading, drops the hot
    /// tail, and runs any compaction passes the new segment made ripe.
    ///
    /// # Errors
    ///
    /// On finish/open/compaction I/O failure.
    pub(crate) fn rotate(&mut self) -> Result<()> {
        let Some(writer) = self.hot_writer.take() else {
            return Ok(());
        };
        writer.finish()?;
        let path = self.catalog.path_for(self.hot_ordinal);
        let seqs = self
            .sealed_seqs
            .is_some()
            .then(|| std::mem::take(&mut self.hot_seqs));
        compact::seal_segment(
            &compact::tmp_path(&path),
            &path,
            seqs.as_ref().map(|s| s.as_slice()),
            &mut FaultInjector::none(),
        )?;
        if let (Some(sealed_seqs), Some(seqs)) = (&mut self.sealed_seqs, seqs) {
            sealed_seqs.push(seqs);
        }
        self.sealed.push(Arc::new(StoreReader::open_with_registry(
            path,
            &self.config.registry,
        )?));
        self.catalog.note_sealed(self.hot_ordinal);
        self.hot_records = Arc::new(Vec::new());
        self.segments_sealed.inc();
        self.maybe_compact()
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
            if let Some(sealed_seqs) = &mut self.sealed_seqs {
                let merged = outcome
                    .seqs
                    .expect("sequenced segments compact with sidecars");
                sealed_seqs.splice(first..first + count, [Arc::new(merged)]);
            }
        }
        Ok(())
    }

    /// A stable snapshot of this chain for a [`crate::LiveView`]: the
    /// sealed readers, their sequences and the hot tail, all shared.
    pub(crate) fn snapshot(&self) -> ShardChain {
        ShardChain {
            sealed: self.sealed.clone(),
            sealed_seqs: self.sealed_seqs.clone().unwrap_or_default(),
            hot: Arc::clone(&self.hot_records),
            hot_seqs: Arc::clone(&self.hot_seqs),
        }
    }

    /// Seals the trailing hot segment and reports the chain's totals.
    ///
    /// # Errors
    ///
    /// On the final seal's I/O failure.
    pub(crate) fn finish(mut self) -> Result<LiveSummary> {
        self.rotate()?;
        Ok(LiveSummary {
            segments: self.catalog.len(),
            total_records: self.sealed.iter().map(|r| r.total_records()).sum(),
            peak_hot_records: self.peak_hot_records,
        })
    }

    /// Sealed segments so far.
    pub(crate) fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Records in the hot (unsealed) tail right now.
    pub(crate) fn hot_len(&self) -> usize {
        self.hot_records.len()
    }

    /// Largest hot tail ever resident, in records.
    pub(crate) fn peak_hot_records(&self) -> usize {
        self.peak_hot_records
    }
}
