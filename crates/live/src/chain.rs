//! One segment chain: the on-disk half of an ingest.
//!
//! A chain is one segment directory and the hot segment growing at its
//! end: the catalog, the sealed readers, the pending [`StoreWriter`]
//! that holds the hot segment's records (encoded, and nowhere else),
//! rotation, the crash-safe seal, and the compaction splice.
//! [`crate::LiveIngest`] writes one chain;
//! [`crate::ShardedLiveIngest`] writes one per shard, and its chains
//! also carry every record's global arrival sequence, sealed into a
//! [`seqfile`] sidecar per segment. Chains hold no index: the ingest
//! that owns them folds its whole stream once, in arrival order.
//!
//! A snapshot ([`SegmentChain::snapshot`]) is the chain's segment
//! readers: the sealed ones, shared, then the hot writer's snapshot,
//! which is a [`StoreReader`] like them — every segment a view reads, it
//! reads through the one handle its reader opened.
//!
//! # Sealing behind the sink
//!
//! A rotation hands the hot segment to a **sealing thread** and the
//! chain starts the next hot segment at once. The thread runs the seal
//! protocol — the writer's `finish` (last chunk, footer, `sync_all`),
//! the sidecar, the rename, the reopen for reading — and the compaction
//! passes the new segment made ripe. The writer is all the hot segment
//! was: no decoded copy of its records is left to free. While it runs
//! it owns everything a seal changes ([`Sealed`]: the catalog, the
//! sealed readers and their sequences, the compactor); joining it
//! hands them back.
//!
//! At most one seal is in flight. The next rotation, a snapshot,
//! [`SegmentChain::sealed_segments`], [`SegmentChain::finish`] and
//! `Drop` each **settle** first — join the seal in flight — so every
//! caller sees the chain exactly as an inline seal would have left it,
//! and no sealing thread outlives its chain. The seal and compaction
//! sequence is the inline one, in the same order, so every segment
//! byte is too. A seal's error is returned by the settle that joins it
//! (a panic on the sealing thread resumes there); from then on the
//! chain is poisoned and every push, rotation, snapshot and finish
//! returns [`StoreError::Poisoned`].

use crate::ingest::{LiveConfig, LiveSummary};
use nfstrace_core::record::TraceRecord;
use nfstrace_store::compact::{self, FaultInjector};
use nfstrace_store::seqfile;
use nfstrace_store::{Compactor, Result, SegmentCatalog, StoreError, StoreReader, StoreWriter};
use nfstrace_telemetry::{Counter, Registry};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Arrival sequences, one vector per segment.
pub(crate) type Sequences = Vec<Arc<Vec<u64>>>;

/// What a seal changes: the catalog, the sealed readers with their
/// sequences, and the compactor that merges them. The chain holds it
/// between seals; the sealing thread holds it during one.
#[derive(Debug)]
struct Sealed {
    catalog: SegmentCatalog,
    readers: Vec<Arc<StoreReader>>,
    /// Arrival sequences per sealed segment, parallel to `readers`;
    /// `None` for a chain that carries no sequences.
    seqs: Option<Sequences>,
    /// The background merge engine (present iff
    /// [`LiveConfig::compaction`]).
    compactor: Option<Compactor>,
    /// Where the readers it opens count.
    registry: Registry,
    /// `live.segments_sealed` — hot segments rotated to disk.
    segments_sealed: Counter,
}

impl Sealed {
    /// Seals base segment `ordinal`, whose bytes `writer` holds: finishes
    /// the segment file, publishes it via the shared crash-safe seal
    /// protocol ([`nfstrace_store::compact::seal_segment`] — sidecar
    /// first when `seqs` is given), opens it for reading, and runs any
    /// compaction passes the new segment made ripe.
    fn seal(
        &mut self,
        writer: StoreWriter,
        ordinal: u64,
        seqs: Option<Arc<Vec<u64>>>,
    ) -> Result<()> {
        writer.finish()?;
        let path = self.catalog.path_for(ordinal);
        compact::seal_segment(
            &compact::tmp_path(&path),
            &path,
            seqs.as_ref().map(|s| s.as_slice()),
            &mut FaultInjector::none(),
        )?;
        if let (Some(sealed_seqs), Some(seqs)) = (&mut self.seqs, seqs) {
            sealed_seqs.push(seqs);
        }
        self.readers.push(Arc::new(StoreReader::open_with_registry(
            path,
            &self.registry,
        )?));
        self.catalog.note_sealed(ordinal);
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
                &self.registry,
            )?);
            self.readers.splice(first..first + count, [reader]);
            if let Some(sealed_seqs) = &mut self.seqs {
                let merged = outcome
                    .seqs
                    .expect("sequenced segments compact with sidecars");
                sealed_seqs.splice(first..first + count, [Arc::new(merged)]);
            }
        }
        Ok(())
    }
}

/// The seal in flight: its thread hands [`Sealed`] back when joined.
#[derive(Debug)]
struct Sealing {
    thread: JoinHandle<(Sealed, Result<()>)>,
    /// The base ordinal being sealed.
    ordinal: u64,
}

/// Why a poisoned chain refuses work.
#[derive(Debug)]
struct Failure {
    segment: PathBuf,
    cause: String,
}

/// A segment directory being appended to; see the module docs.
#[derive(Debug)]
pub(crate) struct SegmentChain {
    config: LiveConfig,
    /// Everything a seal changes; `None` while the seal in flight holds
    /// it, and for good once a sealing thread could not start or
    /// panicked.
    sealed: Option<Sealed>,
    sealing: Option<Sealing>,
    /// Set by the first failed write or seal; the chain then refuses
    /// all work.
    failed: Option<Failure>,
    sequenced: bool,
    /// The hot segment's writer (created with its first record): the
    /// one place its records are held, encoded.
    hot_writer: Option<StoreWriter>,
    hot_ordinal: u64,
    /// The ordinal the next hot segment takes: one past the last
    /// sealed one, whether or not its seal has landed yet.
    next_ordinal: u64,
    /// Records in the hot segment.
    hot_records: usize,
    /// Arrival sequences of the hot segment's records, in order (empty
    /// without sequences).
    hot_seqs: Vec<u64>,
    hot_first_micros: u64,
    peak_hot_records: usize,
    /// `live.seal_wait_micros` — time settles waited for the seal in
    /// flight.
    seal_wait: Counter,
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
    /// is decoded here: the owner rebuilds its index from the sealed
    /// segments.
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
        readers: Vec<Arc<StoreReader>>,
        seqs: Option<Sequences>,
    ) -> Self {
        let compactor = config
            .compaction
            .map(|policy| Compactor::new(policy, config.store, &config.registry));
        let registry = &config.registry;
        SegmentChain {
            sequenced: seqs.is_some(),
            next_ordinal: catalog.next_ordinal(),
            sealed: Some(Sealed {
                catalog,
                readers,
                seqs,
                compactor,
                registry: registry.clone(),
                segments_sealed: registry.counter("live.segments_sealed"),
            }),
            sealing: None,
            failed: None,
            hot_writer: None,
            hot_ordinal: 0,
            hot_records: 0,
            hot_seqs: Vec::new(),
            hot_first_micros: 0,
            peak_hot_records: 0,
            seal_wait: registry.counter("live.seal_wait_micros"),
            config,
        }
    }

    /// The path base segment `ordinal` is sealed at.
    fn path_for(&self, ordinal: u64) -> PathBuf {
        self.config
            .dir
            .join(nfstrace_store::segments::segment_file_name(ordinal))
    }

    /// [`StoreError::Poisoned`] once a write or seal has failed.
    ///
    /// # Errors
    ///
    /// That one.
    pub(crate) fn usable(&self) -> Result<()> {
        match &self.failed {
            None => Ok(()),
            Some(Failure { segment, cause }) => Err(StoreError::Poisoned {
                segment: segment.clone(),
                cause: cause.clone(),
            }),
        }
    }

    /// Marks the chain failed at `segment` and hands `err` back.
    fn poison(&mut self, segment: PathBuf, err: StoreError) -> StoreError {
        self.failed.get_or_insert(Failure {
            segment,
            cause: err.to_string(),
        });
        err
    }

    /// Appends one record — encoded into the hot segment's writer, its
    /// arrival sequence `seq` kept on a sequenced chain — then hands
    /// the hot segment to the sealer if a rotation threshold was
    /// crossed. Returns whether it rotated. Order is the owner's to
    /// check, and so is [`SegmentChain::usable`], before the owner
    /// folds the record into its index.
    ///
    /// # Errors
    ///
    /// On segment write failure, or the error of the seal in flight,
    /// which a rotation settles first. Either poisons the chain.
    pub(crate) fn push(&mut self, r: &TraceRecord, seq: Option<u64>) -> Result<bool> {
        debug_assert_eq!(seq.is_some(), self.sequenced);
        debug_assert!(self.failed.is_none(), "the owner checks usable() first");
        if self.hot_writer.is_none() {
            self.hot_ordinal = self.next_ordinal;
            // The hot segment grows under a .tmp name and is renamed to
            // its sealed name only after its footer is written: a crash
            // mid-segment leaves a stale temp file (cleaned at the next
            // create/open), never a footerless seg-*.nfseg that would
            // poison the whole directory.
            let path = self.path_for(self.hot_ordinal);
            match StoreWriter::create_with_registry(
                compact::tmp_path(&path),
                self.config.store,
                &self.config.registry,
            ) {
                Ok(writer) => self.hot_writer = Some(writer),
                Err(e) => return Err(self.poison(path, e)),
            }
            self.hot_first_micros = r.micros;
        }
        let writer = self.hot_writer.as_mut().expect("just ensured a writer");
        if let Err(e) = writer.push(r) {
            return Err(self.poison(self.path_for(self.hot_ordinal), e));
        }
        if let Some(seq) = seq {
            self.hot_seqs.push(seq);
        }
        self.hot_records += 1;
        self.peak_hot_records = self.peak_hot_records.max(self.hot_records);
        let ripe = self.hot_records as u64 >= self.config.rotate_records
            || r.micros.saturating_sub(self.hot_first_micros) >= self.config.rotate_micros;
        if ripe {
            self.rotate()?;
        }
        Ok(ripe)
    }

    /// Settles the seal in flight, then hands the hot segment (if it
    /// holds any record) to a new sealing thread, which runs
    /// [`Sealed::seal`]. The chain starts the next hot segment with
    /// the next record.
    ///
    /// # Errors
    ///
    /// The seal in flight's error, [`StoreError::Poisoned`] on a chain
    /// that failed before, or an I/O error when no thread can be
    /// started.
    pub(crate) fn rotate(&mut self) -> Result<()> {
        self.settle()?;
        let Some(writer) = self.hot_writer.take() else {
            return Ok(());
        };
        let mut sealed = self.sealed.take().expect("a settled chain holds its state");
        let ordinal = self.hot_ordinal;
        self.next_ordinal = ordinal + 1;
        self.hot_records = 0;
        let seqs = self
            .sequenced
            .then(|| Arc::new(std::mem::take(&mut self.hot_seqs)));
        let spawned = std::thread::Builder::new().spawn(move || {
            let outcome = sealed.seal(writer, ordinal, seqs);
            (sealed, outcome)
        });
        match spawned {
            Ok(thread) => {
                self.sealing = Some(Sealing { thread, ordinal });
                Ok(())
            }
            Err(e) => Err(self.poison(self.path_for(ordinal), e.into())),
        }
    }

    /// Joins the seal in flight, if any, charging the wait to
    /// `live.seal_wait_micros`. On `Ok` the chain holds its sealed
    /// state ([`SegmentChain::settled`]).
    ///
    /// # Errors
    ///
    /// The joined seal's error — once; [`StoreError::Poisoned`] after.
    ///
    /// # Panics
    ///
    /// Resumes a panic of the sealing thread.
    fn settle(&mut self) -> Result<()> {
        if let Some(Sealing { thread, ordinal }) = self.sealing.take() {
            let start = Instant::now();
            let joined = thread.join();
            self.seal_wait.add(start.elapsed().as_micros() as u64);
            match joined {
                Ok((sealed, outcome)) => {
                    self.sealed = Some(sealed);
                    if let Err(e) = outcome {
                        return Err(self.poison(self.path_for(ordinal), e));
                    }
                }
                Err(panic) => {
                    self.failed = Some(Failure {
                        segment: self.path_for(ordinal),
                        cause: "the sealing thread panicked".into(),
                    });
                    std::panic::resume_unwind(panic);
                }
            }
        }
        self.usable()
    }

    /// The sealed state of a chain [`SegmentChain::settle`] returned
    /// `Ok` for.
    fn settled(&self) -> &Sealed {
        self.sealed
            .as_ref()
            .expect("a settled chain holds its state")
    }

    /// Settles, then snapshots this chain's segments for a view: the
    /// sealed readers, shared, then — when [`SegmentChain::hot_len`] is
    /// not 0 — a reader over what the hot writer holds
    /// ([`StoreWriter::snapshot`]). On a sequenced chain the second
    /// vector holds each segment's arrival sequences (the hot ones
    /// copied); otherwise it is empty. The hot records stay encoded, so
    /// nothing is decoded here, and the next push copies nothing.
    ///
    /// # Errors
    ///
    /// As [`SegmentChain::settle`], or the hot writer's I/O error
    /// handing out its flushed chunks.
    pub(crate) fn snapshot(&mut self) -> Result<(Vec<Arc<StoreReader>>, Sequences)> {
        self.settle()?;
        let sealed = self.settled();
        let mut segments = sealed.readers.clone();
        let mut seqs = sealed.seqs.clone().unwrap_or_default();
        if let Some(writer) = &mut self.hot_writer {
            segments.push(Arc::new(writer.snapshot()?));
            if self.sequenced {
                seqs.push(Arc::new(self.hot_seqs.clone()));
            }
        }
        Ok((segments, seqs))
    }

    /// Seals the trailing hot segment, settles, and reports the chain's
    /// totals.
    ///
    /// # Errors
    ///
    /// As [`SegmentChain::rotate`], or the final seal's error.
    pub(crate) fn finish(mut self) -> Result<LiveSummary> {
        self.rotate()?;
        self.settle()?;
        let sealed = self.settled();
        Ok(LiveSummary {
            segments: sealed.catalog.len(),
            total_records: sealed.readers.iter().map(|r| r.total_records()).sum(),
            peak_hot_records: self.peak_hot_records,
        })
    }

    /// Settles, then counts the sealed segments. A failed seal leaves
    /// its error for the next call that returns one.
    pub(crate) fn sealed_segments(&mut self) -> usize {
        self.settle().ok();
        self.sealed.as_ref().map_or(0, |s| s.readers.len())
    }

    /// Records in the hot (unsealed) segment right now.
    pub(crate) fn hot_len(&self) -> usize {
        self.hot_records
    }

    /// Largest hot segment ever written, in records.
    pub(crate) fn peak_hot_records(&self) -> usize {
        self.peak_hot_records
    }
}

impl Drop for SegmentChain {
    /// Joins the seal in flight, so no sealing thread outlives the
    /// chain and its segment is sealed (or its failure left on disk as
    /// a crash would) when the owner is gone. Its outcome has no caller
    /// left to reach.
    fn drop(&mut self) {
        if let Some(sealing) = self.sealing.take() {
            sealing.thread.join().ok();
        }
    }
}
