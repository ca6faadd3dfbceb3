//! The sharded multi-writer ingest: one globally ordered record
//! stream, split by client across N independent [`LiveIngest`] shards.
//!
//! The paper's collector is one passive tap on one network segment —
//! a single totally ordered stream. At high packet rates a single
//! writer becomes the bottleneck: every record funnels through one hot
//! segment, one running partial, one store writer.
//! [`ShardedLiveIngest`] splits the stream **by client** (a stable
//! hash of the record's client id), so each shard owns its own hot
//! segment, rotation clock, and on-disk segment chain under
//! `root/shard-NNN/`, and batch ingest fans out across worker threads
//! ([`nfstrace_core::parallel`]).
//!
//! Splitting destroys the one thing the analysis suite depends on: the
//! global interleave, *including ties* — records with equal timestamps
//! from different clients land on different shards, and nothing in the
//! records themselves says who came first. So the router stamps every
//! record with a dense **global arrival sequence** before fan-out;
//! shards persist the sequences in per-segment sidecars
//! ([`crate::seqfile`]); and [`ShardedLiveIngest::view`] reconstructs
//! the original stream exactly by k-way merging the shard chains on
//! those sequences, while the aggregate products come from
//! [`nfstrace_core::index::PartialIndex::merge`] over the shards'
//! running partials. The invariant — pinned by property tests,
//! `crates/bench/tests/paths.rs` and the CI equivalence smoke — is
//! that the full analysis suite over a merged
//! view is **byte-identical** to a single-writer daemon's and to the
//! batch pipeline's, for any shard count.

use crate::ingest::{LiveConfig, LiveIngest, LiveSummary};
use crate::source::RecordSource;
use crate::view::LiveView;
use nfstrace_core::index::{IndexBase, PartialIndex};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::RecordSink;
use nfstrace_store::segments::{open_shard_catalogs, shard_dir_name, shard_dirs_present};
use nfstrace_store::{Result, StoreError};
use std::path::Path;
use std::sync::Mutex;

/// The shard-count manifest file a sharded root directory carries.
pub const SHARD_MANIFEST: &str = "SHARDS";

/// The shard a client id routes to: a splitmix64-style mix so
/// consecutive client ids spread evenly, reduced by fixed-point
/// multiply (uses the mix's high bits, which scatter better than its
/// low bits for near-identical IPs). Stable across runs and restarts —
/// the same client always lands on the same shard, which is what keeps
/// each shard's stream time-ordered and most files single-shard (cheap
/// to merge).
pub fn shard_for_client(client: u32, shards: usize) -> usize {
    let mut x = u64::from(client).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    ((u128::from(x) * shards as u128) >> 64) as usize
}

/// What [`ShardedLiveIngest::finish`] reports.
#[derive(Debug, Clone)]
pub struct ShardedSummary {
    /// Per-shard summaries, in shard order. Each shard's
    /// `peak_hot_records` is its own bounded hot tail — the sharded
    /// daemon's resident-record peak is their sum at worst.
    pub shards: Vec<LiveSummary>,
    /// Sealed segments across all shards.
    pub segments: usize,
    /// Records ingested across all shards, over the daemon's whole
    /// life.
    pub total_records: u64,
}

/// N independent [`LiveIngest`] writers behind one router; see the
/// module docs for the design.
///
/// The root directory holds a [`SHARD_MANIFEST`] file pinning the
/// shard count plus one `shard-NNN/` segment directory per shard
/// ([`nfstrace_store::segments::shard_dir_name`]). Reopening reads the
/// manifest, resumes every shard after its last sealed segment, and
/// continues stamping arrival sequences past the highest one on disk.
/// A crash loses at most each shard's unsealed hot tail — sequence
/// holes from a lost tail are fine, the merge only needs per-shard
/// increasing, globally unique sequences.
#[derive(Debug)]
pub struct ShardedLiveIngest {
    config: LiveConfig,
    shards: Vec<LiveIngest>,
    next_seq: u64,
    last_micros: u64,
    any_ingested: bool,
    total_records: u64,
    /// Bumped on every batch; keys the merged-snapshot cache.
    generation: u64,
    /// The last merged [`IndexBase`] and the generation it was built
    /// at — repeated [`ShardedLiveIngest::view`] calls between batches
    /// reuse it instead of re-merging.
    base_cache: Mutex<Option<(u64, IndexBase)>>,
}

impl ShardedLiveIngest {
    /// Starts a fresh sharded ingest: `config.dir` is the root,
    /// `config`'s rotation thresholds and store layout apply to every
    /// shard, and `shards` is pinned into the manifest. Every shard
    /// tracks arrival sequences.
    ///
    /// # Errors
    ///
    /// If `shards` is zero, the root already holds a manifest (reopen
    /// with [`ShardedLiveIngest::open`]), any shard directory is
    /// non-empty, or on I/O failure.
    pub fn create(config: LiveConfig, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(StoreError::Format("shard count must be at least 1".into()));
        }
        let root = config.dir.clone();
        if root.join(SHARD_MANIFEST).exists() {
            return Err(StoreError::Format(format!(
                "{} already holds a sharded ingest; use ShardedLiveIngest::open to resume",
                root.display()
            )));
        }
        open_shard_catalogs(&root, shards)?;
        let writers = (0..shards)
            .map(|i| LiveIngest::create_with(Self::shard_config(&config, i), true))
            .collect::<Result<Vec<_>>>()?;
        std::fs::write(root.join(SHARD_MANIFEST), format!("{shards}\n"))?;
        Ok(Self::assemble(config, writers))
    }

    /// Reopens a sharded root directory at the shard count its
    /// manifest pins, resuming every shard after its last sealed
    /// segment. Sequence stamping continues past the highest sealed
    /// sequence on any shard.
    ///
    /// The manifest is input, not truth: it must name exactly the
    /// shard directories present, `shard-000` … `shard-(n−1)`. A count
    /// that disagrees — in either direction — is refused before
    /// anything is touched, because [`shard_for_client`] depends on the
    /// count (a wrong one re-routes every client) and only
    /// [`ShardedLiveIngest::create`] makes directories.
    ///
    /// # Errors
    ///
    /// On a missing or unparseable manifest, a manifest count that is
    /// not the set of shard directories present
    /// ([`StoreError::Format`], naming both), or any shard's open
    /// failure.
    pub fn open(config: LiveConfig) -> Result<Self> {
        let root = config.dir.clone();
        let shards = Self::read_manifest(&root)?;
        let present = shard_dirs_present(&root)?;
        if present.len() != shards || present.iter().enumerate().any(|(i, &idx)| i != idx) {
            return Err(StoreError::Format(format!(
                "shard manifest {} pins {shards} shards, but {} shard directories are present \
                 (expected exactly {} … {})",
                root.join(SHARD_MANIFEST).display(),
                present.len(),
                shard_dir_name(0),
                shard_dir_name(shards - 1),
            )));
        }
        let writers = (0..shards)
            .map(|i| LiveIngest::open_with(Self::shard_config(&config, i), true))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::assemble(config, writers))
    }

    fn shard_config(config: &LiveConfig, shard: usize) -> LiveConfig {
        LiveConfig {
            dir: config.dir.join(shard_dir_name(shard)),
            ..config.clone()
        }
    }

    fn read_manifest(root: &Path) -> Result<usize> {
        let path = root.join(SHARD_MANIFEST);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| StoreError::Format(format!("shard manifest {}: {e}", path.display())))?;
        let count: usize = text.trim().parse().map_err(|_| {
            StoreError::Format(format!(
                "shard manifest {} is unparseable: {text:?}",
                path.display()
            ))
        })?;
        if count == 0 {
            return Err(StoreError::Format(format!(
                "shard manifest {} pins zero shards",
                path.display()
            )));
        }
        Ok(count)
    }

    fn assemble(config: LiveConfig, shards: Vec<LiveIngest>) -> Self {
        let next_seq = shards.iter().map(LiveIngest::next_seq).max().unwrap_or(0);
        let last_micros = shards
            .iter()
            .map(LiveIngest::last_micros)
            .max()
            .unwrap_or(0);
        let any_ingested = shards.iter().any(LiveIngest::any_ingested);
        let total_records = shards.iter().map(LiveIngest::total_records).sum();
        ShardedLiveIngest {
            config,
            shards,
            next_seq,
            last_micros,
            any_ingested,
            total_records,
            generation: 0,
            base_cache: Mutex::new(None),
        }
    }

    /// Ingests one time-ordered batch: validates the global stream
    /// contract, stamps each record with the next arrival sequence,
    /// partitions by [`shard_for_client`], and drives all shards in
    /// parallel. The batch either fully precedes the error or is fully
    /// applied — the order check runs before any shard is touched.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record
    /// (checked against everything ingested so far, across shards),
    /// or any shard's ingest error.
    pub fn ingest_batch(&mut self, records: &[TraceRecord]) -> Result<()> {
        let mut last = self.last_micros;
        let mut any = self.any_ingested;
        for r in records {
            if any && r.micros < last {
                return Err(StoreError::OutOfOrder {
                    prev: last,
                    next: r.micros,
                });
            }
            last = r.micros;
            any = true;
        }
        if records.is_empty() {
            return Ok(());
        }
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<(u64, TraceRecord)>> = vec![Vec::new(); n];
        for (i, r) in records.iter().enumerate() {
            let seq = self.next_seq + i as u64;
            per_shard[shard_for_client(r.client, n)].push((seq, r.clone()));
        }
        let threads = nfstrace_core::parallel::threads();
        let results = nfstrace_core::parallel::run_sharded_mut(
            &mut self.shards,
            threads,
            |shard, ingest| -> Result<()> {
                // One batch-latency sample per shard per batch; shards
                // share the registry, so these merge into one
                // `live.batch_micros` distribution.
                let _span = nfstrace_telemetry::span!(ingest.metrics.batch_micros);
                for (seq, r) in &per_shard[shard] {
                    ingest.ingest_with_seq(r, *seq)?;
                }
                ingest.publish();
                Ok(())
            },
        );
        self.next_seq += records.len() as u64;
        self.total_records += records.len() as u64;
        self.last_micros = last;
        self.any_ingested = true;
        self.generation += 1;
        results.into_iter().collect()
    }

    /// Pumps `source` to exhaustion through
    /// [`ShardedLiveIngest::ingest_batch`].
    ///
    /// # Errors
    ///
    /// Propagates the first batch's error.
    pub fn run<S: RecordSource + ?Sized>(&mut self, source: &mut S) -> Result<()> {
        let mut batch = Vec::new();
        loop {
            batch.clear();
            if !source.next_batch(&mut batch) {
                return Ok(());
            }
            self.ingest_batch(&batch)?;
        }
    }

    /// Snapshots a stable merged [`LiveView`] over everything every
    /// shard has ingested so far — the full analysis suite answers
    /// over it byte-identically to a single-writer daemon over the
    /// same stream. The merged products are cached per batch
    /// generation; between batches this is a handle clone.
    pub fn view(&self) -> LiveView {
        let _span = nfstrace_telemetry::span!(&self.config.registry, "live.snapshot_micros");
        let base = {
            let mut cache = self.base_cache.lock().expect("snapshot cache poisoned");
            match cache.as_ref() {
                Some((generation, base)) if *generation == self.generation => base.clone(),
                _ => {
                    let base = if self.shards.len() == 1 {
                        self.shards[0].snapshot_base()
                    } else {
                        PartialIndex::merge(self.shards.iter().map(LiveIngest::snapshot_partial))
                    };
                    *cache = Some((self.generation, base.clone()));
                    base
                }
            }
        };
        let chains = self.shards.iter().map(LiveIngest::chain).collect();
        LiveView::assemble_sharded(chains, 0, u64::MAX, base, &self.config.registry)
    }

    /// Seals every shard's trailing hot segment and reports totals.
    /// The root directory (manifest + shard subdirectories) is the
    /// durable product; reopen it with [`ShardedLiveIngest::open`].
    ///
    /// # Errors
    ///
    /// On any shard's final seal failure.
    pub fn finish(self) -> Result<ShardedSummary> {
        let shards = self
            .shards
            .into_iter()
            .map(LiveIngest::finish)
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedSummary {
            segments: shards.iter().map(|s| s.segments).sum(),
            total_records: shards.iter().map(|s| s.total_records).sum(),
            shards,
        })
    }

    /// The shard writers, in shard order — read-only access to
    /// per-shard observables (`hot_len`, `peak_hot_records`, …).
    pub fn shards(&self) -> &[LiveIngest] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records ingested so far, across shards (sealed + hot).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Sealed segments so far, across shards.
    pub fn sealed_segments(&self) -> usize {
        self.shards.iter().map(LiveIngest::sealed_segments).sum()
    }

    /// Records resident in hot tails right now, across shards.
    pub fn hot_len(&self) -> usize {
        self.shards.iter().map(LiveIngest::hot_len).sum()
    }
}

impl RecordSink for ShardedLiveIngest {
    type Err = StoreError;

    fn push_record(&mut self, record: TraceRecord) -> Result<()> {
        self.ingest_batch(std::slice::from_ref(&record))
    }
}
