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
//! replays — a [`ShardedView`]'s, and the one that rebuilds the index
//! at reopen — k-way merge the chains on those sequences
//! ([`ShardChain`]s, one cursor each; the only merge in the crate). The invariant — pinned by property
//! tests, `crates/bench/tests/paths.rs` and the CI equivalence smoke —
//! is that the full analysis suite over a sharded view is
//! **byte-identical** to a single-writer daemon's and to the batch
//! pipeline's, for any shard count.
//!
//! Each chain seals as a single writer's does: a rotation hands the
//! hot segment, its sidecar and any compaction splice to that chain's
//! sealing thread, and the calls that settle there settle every chain
//! (see [`crate::LiveIngest`] on where errors surface).

use crate::chain::{SegmentChain, Sequences};
use crate::ingest::{pump, LiveConfig, LiveSummary, RunningIndex};
use crate::source::RecordSource;
use nfstrace_core::index::{IndexBase, PartialIndex, ProductCaches, RecordStream, TraceView};
use nfstrace_core::record::TraceRecord;
use nfstrace_store::segments::{open_shard_catalogs, shard_dir_name, shard_dirs_present};
use nfstrace_store::{overlapping_chunks, Result, StoreError, StoreReader};
use nfstrace_telemetry::Registry;
use std::path::Path;
use std::sync::Arc;

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
            .map(ShardChain::of)
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
    /// [`ShardedView`] over everything every shard has ingested so far —
    /// the full analysis suite answers over it byte-identically to a
    /// single-writer daemon over the same stream. As on the single
    /// writer, the running index's products are cached per generation;
    /// between batches this is a handle clone.
    ///
    /// # Panics
    ///
    /// If a seal failed; [`ShardedLiveIngest::try_view`] returns that
    /// error instead.
    pub fn view(&mut self) -> ShardedView {
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
    pub fn try_view(&mut self) -> Result<ShardedView> {
        let chains = self
            .chains
            .iter_mut()
            .map(ShardChain::of)
            .collect::<Result<Vec<_>>>()?;
        let base = self.running.view(self.hot_len());
        Ok(ShardedView::assemble(
            chains,
            0,
            u64::MAX,
            base,
            self.running.registry(),
        ))
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

impl RunningIndex {
    /// Rebuilds the running state over a sharded ingest's chains found
    /// on disk with one replay through [`for_each_merged`], the merge
    /// its views use, and returns it with the arrival sequence past the
    /// last one replayed. Only [`ShardedLiveIngest::open`] replays: a
    /// plain chain reopens through the store's construction pass
    /// ([`crate::LiveIngest::open`]).
    ///
    /// # Errors
    ///
    /// On chunk read failure, or a [`StoreError::Sidecar`] naming a
    /// segment whose sequences do not strictly increase.
    pub(crate) fn replay(registry: &Registry, chains: &[ShardChain]) -> Result<(Self, u64)> {
        let (mut index, mut last_micros) = (PartialIndex::new(), 0);
        let next_seq = for_each_merged(chains, 0, u64::MAX, &mut |r| {
            index.observe(r);
            last_micros = r.micros;
        })?;
        Ok((Self::resumed(registry, index, last_micros), next_seq))
    }
}

/// One shard's contribution to a [`ShardedView`]: its segments in
/// stream order — the sealed ones, then the hot one, a reader over what
/// the hot writer held at the snapshot
/// ([`nfstrace_store::StoreWriter::snapshot`]) — and the arrival
/// sequences of every record, one vector per segment (sidecars for the
/// sealed ones).
///
/// Every segment is read the same way, through its [`StoreReader`]'s
/// handle, its chunks planned by the store's own planner
/// ([`overlapping_chunks`]), which prunes and skips the hot segment's
/// chunks as it does sealed ones. The sequences interleave the chains
/// back into the stream they were split from: a view's replays and
/// windows, and the reopen.
#[derive(Debug, Clone)]
pub struct ShardChain {
    /// Sealed segments first, then the hot one, if any.
    segments: Vec<Arc<StoreReader>>,
    /// Arrival sequences per segment, parallel to `segments`.
    seqs: Sequences,
    /// How many of `segments` are sealed.
    sealed_len: usize,
}

impl ShardChain {
    /// Settles `chain` and snapshots its segments and their sequences.
    fn of(chain: &mut SegmentChain) -> Result<Self> {
        let hot = usize::from(chain.hot_len() > 0);
        let (segments, seqs) = chain.snapshot()?;
        Ok(ShardChain {
            sealed_len: segments.len() - hot,
            segments,
            seqs,
        })
    }

    /// The sealed segment readers of this chain.
    pub fn sealed(&self) -> &[Arc<StoreReader>] {
        &self.segments[..self.sealed_len]
    }

    /// The reader over this chain's hot (unsealed) segment as the
    /// snapshot took it; `None` when the chain had no hot segment.
    pub fn hot(&self) -> Option<&Arc<StoreReader>> {
        self.segments.get(self.sealed_len)
    }
}

/// A streaming cursor over one sequenced chain restricted to
/// `[start, end)`: the chunks the store planner
/// ([`overlapping_chunks`]) keeps for the window, hot ones included,
/// decoded lazily one at a time with only their in-window records built
/// ([`StoreReader::read_chunk_in`]). [`ChainCursor::peek`] exposes the
/// arrival sequence of the next record the chain would emit — the
/// k-way merge pops the chain with the smallest one.
struct ChainCursor<'a> {
    chain: &'a ShardChain,
    start: u64,
    end: u64,
    /// The planner's `(segment, chunk)` list, and the next to decode.
    chunks: Vec<(usize, usize)>,
    next_chunk: usize,
    /// The segment `buf` came from.
    seg: usize,
    /// The decoded chunk's in-window records, and the sequences that
    /// hold their arrival order.
    buf: Vec<TraceRecord>,
    buf_seqs: &'a [u64],
    buf_pos: usize,
}

impl<'a> ChainCursor<'a> {
    fn new(chain: &'a ShardChain, start: u64, end: u64) -> Self {
        ChainCursor {
            chain,
            start,
            end,
            chunks: overlapping_chunks(&chain.segments, start, end),
            next_chunk: 0,
            seg: 0,
            buf: Vec::new(),
            buf_seqs: &[],
            buf_pos: 0,
        }
    }

    /// Positions the cursor at its next in-window record and returns
    /// that record's arrival sequence; `None` once the chain is
    /// exhausted. O(1) when already positioned.
    ///
    /// # Errors
    ///
    /// On chunk read/decode failure, or sequences too short for the
    /// chunk's records.
    fn peek(&mut self) -> Result<Option<u64>> {
        loop {
            if let Some(&seq) = self.buf_seqs.get(self.buf_pos) {
                return Ok(Some(seq));
            }
            let Some(&(seg, ci)) = self.chunks.get(self.next_chunk) else {
                return Ok(None);
            };
            self.next_chunk += 1;
            self.seg = seg;
            let chain = self.chain;
            let reader = &chain.segments[seg];
            let (records, first) = reader.read_chunk_in(ci, self.start, self.end)?;
            let earlier: u64 = reader.chunks()[..ci].iter().map(|m| m.records).sum();
            let at = earlier as usize + first;
            self.buf_seqs = chain.seqs[seg]
                .get(at..at + records.len())
                .ok_or_else(|| self.sequence_error(format!("no sequences for records {at}..")))?;
            self.buf = records;
            self.buf_pos = 0;
        }
    }

    /// Emits the record [`ChainCursor::peek`] just positioned at and
    /// steps past it. Must follow a `Some` peek.
    fn pop(&mut self, f: &mut dyn FnMut(&TraceRecord)) {
        f(&self.buf[self.buf_pos]);
        self.buf_pos += 1;
    }

    /// A sequence error at the cursor's position, naming its segment.
    fn sequence_error(&self, problem: String) -> StoreError {
        StoreError::Sidecar {
            segment: self.chain.segments[self.seg].path().to_path_buf(),
            problem,
        }
    }
}

/// Replays every in-window record of sequenced `chains` in global
/// arrival order, k-way merging them by arrival sequence with a linear
/// min-scan (chain counts are small), and returns the sequence past the
/// last record replayed: the replay at [`ShardedLiveIngest::open`] and
/// every [`ShardedView`] replay and window, at any shard count.
///
/// # Errors
///
/// On chunk read/decode failure, and a [`StoreError::Sidecar`] naming
/// the segment when the merged sequences do not strictly increase —
/// out of order within a chain or colliding across chains — or reach
/// `u64::MAX`, which leaves no sequence to resume at.
pub(crate) fn for_each_merged(
    chains: &[ShardChain],
    start: u64,
    end: u64,
    f: &mut dyn FnMut(&TraceRecord),
) -> Result<u64> {
    let mut cursors: Vec<ChainCursor> = chains
        .iter()
        .map(|c| ChainCursor::new(c, start, end))
        .collect();
    let mut next = 0u64;
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if let Some(seq) = cursor.peek()? {
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, i));
                }
            }
        }
        let Some((seq, i)) = best else {
            return Ok(next);
        };
        let cursor = &mut cursors[i];
        if seq < next {
            return Err(cursor.sequence_error(format!(
                "arrival sequence {seq} does not follow {}",
                next - 1
            )));
        }
        next = seq.checked_add(1).ok_or_else(|| {
            cursor.sequence_error(format!("arrival sequence {seq} leaves none to resume at"))
        })?;
        cursor.pop(f);
    }
}

/// A [`TraceView`] over everything a [`ShardedLiveIngest`] has ingested
/// at one instant: per shard, the sealed on-disk segments plus a
/// snapshot of the hot (not yet sealed) segment, each behind a
/// [`StoreReader`].
///
/// A `ShardedView` is **stable**, as a single writer's view is: the
/// sealed segment files are immutable, each hot segment is snapshotted
/// at view time as its writer holds it — encoded: the flushed chunks,
/// and a copy of the pending chunk's bytes — and every segment's reader
/// keeps the one file handle it opened, so the view reads the same
/// bytes after the ingest behind it seals, renames, merges or deletes
/// any segment it references. The view holds one open handle per
/// segment, and a deleted segment's bytes stay on disk until the last
/// view holding it is dropped. The construction-pass products come from
/// a copy-on-write snapshot of the ingest's one running
/// [`PartialIndex`], so taking a view decodes no record. Its contract
/// is the usual bit-identity with an in-memory
/// [`nfstrace_core::index::TraceIndex`] over the *original* global
/// stream, which its replays and windows reconstruct by k-way merging
/// the chains on arrival sequence, one decoded
/// chunk per chain resident at a time.
#[derive(Debug)]
pub struct ShardedView {
    chains: Vec<ShardChain>,
    /// This view's half-open time range.
    start: u64,
    end: u64,
    base: IndexBase,
    caches: ProductCaches,
    /// Where this view's (and its windows') `query.*` instruments
    /// live — inherited from the ingest that snapshotted it.
    registry: Registry,
}

impl ShardedView {
    /// Assembles a snapshot view over `chains`. `base` must be the
    /// finished construction products over exactly their records in
    /// `[start, end)`, in arrival order — an ingest hands in its
    /// running index's snapshot, so building a view is O(snapshot),
    /// not a decode pass.
    fn assemble(
        chains: Vec<ShardChain>,
        start: u64,
        end: u64,
        base: IndexBase,
        registry: &Registry,
    ) -> Self {
        ShardedView {
            chains,
            start,
            end,
            base,
            caches: ProductCaches::with_registry(registry),
            registry: registry.clone(),
        }
    }

    /// The chains behind this snapshot, one per shard, in shard order.
    pub fn chains(&self) -> &[ShardChain] {
        &self.chains
    }

    /// Replays `[start, end)` in arrival order through
    /// [`for_each_merged`].
    fn replay(&self, start: u64, end: u64, f: &mut dyn FnMut(&TraceRecord)) {
        for_each_merged(&self.chains, start, end, f)
            .expect("segment chunk must stay readable under a live view");
    }
}

impl RecordStream for ShardedView {
    /// K-way merge by arrival sequence.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure — a segment's bytes corrupted
    /// mid-analysis.
    fn for_each_record(&self, f: &mut dyn FnMut(&TraceRecord)) {
        self.replay(self.start, self.end, f);
    }
}

impl TraceView for ShardedView {
    fn base(&self) -> &IndexBase {
        &self.base
    }

    fn caches(&self) -> &ProductCaches {
        &self.caches
    }

    /// A narrower snapshot sharing the chains' segment readers, its
    /// records observed once, in merged order.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure (see
    /// [`RecordStream::for_each_record`] on this type).
    fn time_window(&self, start_micros: u64, end_micros: u64) -> ShardedView {
        let start = start_micros.max(self.start);
        let end = end_micros.min(self.end).max(start);
        let mut partial = PartialIndex::new();
        self.replay(start, end, &mut |r| partial.observe(r));
        ShardedView::assemble(
            self.chains.clone(),
            start,
            end,
            partial.finish(),
            &self.registry,
        )
    }
}
