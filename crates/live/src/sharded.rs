//! The sharded multi-writer ingest: one globally ordered record
//! stream, stored across N segment chains split by client.
//!
//! The paper's collector is one passive tap on one network segment —
//! a single totally ordered stream. At high packet rates a single
//! writer becomes the bottleneck: every record funnels through one hot
//! segment and one store writer. [`ShardedLiveIngest`] splits the
//! stream's *storage* **by client** (a stable hash of the record's
//! client id): each shard is a segment chain with its own hot segment,
//! rotation clock, and on-disk directory `root/shard-NNN/`, and a
//! batch's chain writes fan out across worker threads
//! ([`nfstrace_core::parallel`]). The stream is still interpreted once:
//! the router folds every batch, in arrival order, into the one running
//! index it shares in design with [`crate::LiveIngest`], so a view is
//! the same O(counters) copy-on-write snapshot on both ingests.
//!
//! Splitting the storage loses the global interleave, *including ties*
//! — records with equal timestamps from different clients land on
//! different shards, and nothing in the records themselves says who
//! came first. So the router stamps every record with a dense **global
//! arrival sequence** before fan-out; chains persist the sequences in
//! per-segment sidecars ([`nfstrace_store::seqfile`]); and record
//! replays — a view's, and the one that rebuilds the index at reopen —
//! k-way merge the chains on those sequences. The invariant — pinned by property
//! tests, `crates/bench/tests/paths.rs` and the CI equivalence smoke —
//! is that the full analysis suite over a sharded view is
//! **byte-identical** to a single-writer daemon's and to the batch
//! pipeline's, for any shard count.
//!
//! Each chain seals as a single writer's does: a rotation hands the
//! hot segment, its sidecar and any compaction splice to that chain's
//! sealing thread, and the calls that settle there settle every chain
//! (see [`crate::LiveIngest`] on where errors surface).

use crate::chain::SegmentChain;
use crate::ingest::{pump, LiveConfig, LiveSummary, RunningIndex};
use crate::source::RecordSource;
use crate::view::LiveView;
use nfstrace_core::record::TraceRecord;
use nfstrace_store::segments::{open_shard_catalogs, shard_dir_name, shard_dirs_present};
use nfstrace_store::{Result, StoreError};
use std::path::Path;

/// The shard-count manifest file a sharded root directory carries.
pub const SHARD_MANIFEST: &str = "SHARDS";

/// The shard a client id routes to: a splitmix64-style mix so
/// consecutive client ids spread evenly, reduced by fixed-point
/// multiply (uses the mix's high bits, which scatter better than its
/// low bits for near-identical IPs). Stable across runs and restarts —
/// the same client always lands on the same shard, which is what keeps
/// each shard's stream time-ordered.
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
    /// `peak_hot_records` is its own bounded hot segment — the sharded
    /// daemon's hot records are their sum at worst.
    pub shards: Vec<LiveSummary>,
    /// Sealed segments across all shards.
    pub segments: usize,
    /// Records ingested across all shards, over the daemon's whole
    /// life.
    pub total_records: u64,
}

/// N sequenced segment chains and one running index behind a router;
/// see the module docs for the design.
///
/// The root directory holds a [`SHARD_MANIFEST`] file pinning the
/// shard count plus one `shard-NNN/` segment directory per shard
/// ([`nfstrace_store::segments::shard_dir_name`]). Reopening reads the
/// manifest, resumes every chain after its last sealed segment, and
/// continues stamping arrival sequences past the highest one on disk.
/// A crash loses at most each chain's unsealed hot segment — sequence
/// holes from a lost segment are fine, the merge only needs strictly
/// increasing sequences across the whole replay.
#[derive(Debug)]
pub struct ShardedLiveIngest {
    chains: Vec<SegmentChain>,
    running: RunningIndex,
    next_seq: u64,
}

impl ShardedLiveIngest {
    /// Starts a fresh sharded ingest: `config.dir` is the root,
    /// `config`'s rotation thresholds and store layout apply to every
    /// shard, and `shards` is pinned into the manifest.
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
        let root = &config.dir;
        if root.join(SHARD_MANIFEST).exists() {
            return Err(StoreError::Format(format!(
                "{} already holds a sharded ingest; use ShardedLiveIngest::open to resume",
                root.display()
            )));
        }
        open_shard_catalogs(root, shards)?;
        let chains = (0..shards)
            .map(|i| SegmentChain::create(Self::shard_config(&config, i), true))
            .collect::<Result<Vec<_>>>()?;
        std::fs::write(root.join(SHARD_MANIFEST), format!("{shards}\n"))?;
        Ok(ShardedLiveIngest {
            chains,
            running: RunningIndex::new(&config.registry),
            next_seq: 0,
        })
    }

    /// Reopens a sharded root directory at the shard count its
    /// manifest pins, resuming every chain after its last sealed
    /// segment. The running index is rebuilt by one merged replay of
    /// the chains, and sequence stamping continues past the last
    /// sequence it replayed.
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
    /// ([`StoreError::Format`], naming both), any chain's open failure,
    /// or a [`StoreError::Sidecar`] naming a segment whose sequences do
    /// not strictly increase across the merged replay (within its
    /// chain, or colliding with another chain's) or end at `u64::MAX`.
    pub fn open(config: LiveConfig) -> Result<Self> {
        let root = &config.dir;
        let shards = Self::read_manifest(root)?;
        let present = shard_dirs_present(root)?;
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
        let mut chains = (0..shards)
            .map(|i| SegmentChain::open(Self::shard_config(&config, i), true))
            .collect::<Result<Vec<_>>>()?;
        let snapshots = chains
            .iter_mut()
            .map(SegmentChain::snapshot)
            .collect::<Result<Vec<_>>>()?;
        let (running, next_seq) = RunningIndex::replay(&config.registry, &snapshots)?;
        Ok(ShardedLiveIngest {
            chains,
            running,
            next_seq,
        })
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

    /// Ingests one time-ordered batch: validates the global stream
    /// contract, folds the batch into the running index, stamps each
    /// record with the next arrival sequence, and encodes it into the
    /// chain [`shard_for_client`] picks, writing all chains in
    /// parallel. The batch either fully precedes the error or is fully
    /// applied — the order check runs before anything is touched.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record
    /// (checked against everything ingested so far, across shards),
    /// any chain's write error or the error of a seal a rotation
    /// settled, or [`StoreError::Poisoned`] once any chain has failed.
    pub fn ingest_batch(&mut self, records: &[TraceRecord]) -> Result<()> {
        self.running.check_order(records)?;
        for chain in &self.chains {
            chain.usable()?;
        }
        if records.is_empty() {
            return Ok(());
        }
        let _span = self.running.batch_span();
        let n = self.chains.len();
        let mut routed: Vec<(&mut SegmentChain, Vec<(u64, &TraceRecord)>)> =
            self.chains.iter_mut().map(|c| (c, Vec::new())).collect();
        for (seq, r) in (self.next_seq..).zip(records) {
            self.running.observe(r);
            routed[shard_for_client(r.client, n)].1.push((seq, r));
        }
        self.next_seq += records.len() as u64;
        let threads = nfstrace_core::parallel::threads();
        let results = nfstrace_core::parallel::run_sharded_mut(
            &mut routed,
            threads,
            |_, (chain, records)| -> Result<()> {
                for (seq, r) in records.drain(..) {
                    chain.push(r, Some(seq))?;
                }
                Ok(())
            },
        );
        results.into_iter().collect::<Result<()>>()?;
        self.publish();
        Ok(())
    }

    fn publish(&self) {
        self.running.publish(self.hot_len());
    }

    /// Pumps `source` to exhaustion through
    /// [`ShardedLiveIngest::ingest_batch`], the source filling the next
    /// batch while the last one sinks, as [`crate::LiveIngest::run`]
    /// does. The source's thread runs beside the
    /// [`nfstrace_core::parallel::threads`] workers `ingest_batch` fans
    /// out to, one busy thread more than the worker count; no benchmark
    /// row drives this `run`, so what that costs is unmeasured.
    ///
    /// # Errors
    ///
    /// Propagates the first batch's error. The source may by then have
    /// been asked for one batch past the failing one, never two.
    pub fn run<S: RecordSource + ?Sized>(&mut self, source: &mut S) -> Result<()> {
        let waits = self.running.waits();
        pump(source, &waits, |batch| self.ingest_batch(batch))
    }

    /// Settles every chain's seal in flight, then snapshots a stable
    /// [`LiveView`] over everything every shard has ingested so far —
    /// the full analysis suite answers over it byte-identically to a
    /// single-writer daemon over the same stream. As on the single
    /// writer, the running index's products are cached per generation;
    /// between batches this is a handle clone.
    ///
    /// # Panics
    ///
    /// If a seal failed; [`ShardedLiveIngest::try_view`] returns that
    /// error instead.
    pub fn view(&mut self) -> LiveView {
        self.try_view()
            .unwrap_or_else(|e| panic!("no view over a failed ingest: {e}"))
    }

    /// [`ShardedLiveIngest::view`], returning a seal's failure instead
    /// of panicking on it.
    ///
    /// # Errors
    ///
    /// The first settled seal's error, or [`StoreError::Poisoned`]
    /// after one.
    pub fn try_view(&mut self) -> Result<LiveView> {
        let chains = self
            .chains
            .iter_mut()
            .map(SegmentChain::snapshot)
            .collect::<Result<Vec<_>>>()?;
        Ok(self.running.view(chains, self.hot_len()))
    }

    /// Hands every chain's trailing hot segment to its sealer — the
    /// chains seal side by side — then settles each and reports
    /// totals. The root directory (manifest + shard subdirectories) is
    /// the durable product; reopen it with [`ShardedLiveIngest::open`].
    ///
    /// # Errors
    ///
    /// On any chain's final seal failure (or its seal in flight's), or
    /// [`StoreError::Poisoned`] after an earlier one.
    pub fn finish(mut self) -> Result<ShardedSummary> {
        for chain in &mut self.chains {
            chain.rotate()?;
        }
        let shards = self
            .chains
            .into_iter()
            .map(SegmentChain::finish)
            .collect::<Result<Vec<_>>>()?;
        self.running.publish(0);
        Ok(ShardedSummary {
            segments: shards.iter().map(|s| s.segments).sum(),
            total_records: self.running.total_records(),
            shards,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.chains.len()
    }

    /// Records ingested so far, across shards (sealed + hot).
    pub fn total_records(&self) -> u64 {
        self.running.total_records()
    }

    /// Sealed segments so far, across shards, after settling every
    /// chain. A failed seal is left for the next call that returns
    /// errors.
    pub fn sealed_segments(&mut self) -> usize {
        self.chains
            .iter_mut()
            .map(SegmentChain::sealed_segments)
            .sum()
    }

    /// Records in hot segments right now, across shards.
    pub fn hot_len(&self) -> usize {
        self.chains.iter().map(SegmentChain::hot_len).sum()
    }
}
