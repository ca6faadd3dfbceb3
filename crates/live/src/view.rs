//! The queryable snapshot of a live ingest: sealed segments + hot tail,
//! one chain per shard, merged on read.

use nfstrace_core::index::{IndexBase, PartialIndex, ProductCaches, RecordStream, TraceView};
use nfstrace_core::record::TraceRecord;
use nfstrace_store::{stream_records, Result, StoreError, StoreReader};
use nfstrace_telemetry::Registry;
use std::sync::Arc;

/// One segment chain's contribution to a [`LiveView`]: its sealed
/// segments, the arrival sequences of every sealed record (sidecars,
/// loaded per segment), and a snapshot of its hot tail with the
/// sequences of those records.
///
/// A single-writer ingest produces one chain with empty sequence
/// vectors — sequences are only consulted when chains of a sharded
/// ingest must be interleaved.
#[derive(Debug, Clone)]
pub struct ShardChain {
    pub(crate) sealed: Vec<Arc<StoreReader>>,
    /// Arrival sequences per sealed segment, parallel to `sealed`
    /// (empty on a chain without sequences).
    pub(crate) sealed_seqs: Vec<Arc<Vec<u64>>>,
    pub(crate) hot: Arc<Vec<TraceRecord>>,
    /// Arrival sequences of the hot tail, parallel to `hot` (empty on
    /// a chain without sequences).
    pub(crate) hot_seqs: Arc<Vec<u64>>,
}

impl ShardChain {
    /// The sealed segment readers of this chain.
    pub fn sealed(&self) -> &[Arc<StoreReader>] {
        &self.sealed
    }

    /// The hot (unsealed) records of this chain's snapshot.
    pub fn hot(&self) -> &[TraceRecord] {
        &self.hot
    }
}

/// A streaming cursor over one chain restricted to `[start, end)`:
/// sealed chunks decoded lazily one at a time (skipping chunks whose
/// time range misses the window, while still advancing the sequence
/// index past their records), then the hot tail.
/// [`ChainCursor::peek`] exposes the arrival sequence of the next
/// record the chain would emit — the k-way merge pops the chain with
/// the smallest one. A chain without sequences keys its records by
/// position, which only a chain replayed alone can use.
struct ChainCursor<'a> {
    chain: &'a ShardChain,
    start: u64,
    end: u64,
    /// Index into `chain.sealed`; `== chain.sealed.len()` → hot phase.
    seg: usize,
    /// Next chunk ordinal to consider within the current segment.
    chunk: usize,
    /// Records of the current segment consumed or skipped before
    /// `buf` — the sequence-sidecar index of `buf[0]`.
    seq_off: usize,
    buf: Vec<TraceRecord>,
    buf_pos: usize,
    hot_pos: usize,
    /// Records popped so far: the positional key.
    emitted: u64,
}

impl<'a> ChainCursor<'a> {
    fn new(chain: &'a ShardChain, start: u64, end: u64) -> Self {
        ChainCursor {
            chain,
            start,
            end,
            seg: 0,
            chunk: 0,
            seq_off: 0,
            buf: Vec::new(),
            buf_pos: 0,
            hot_pos: 0,
            emitted: 0,
        }
    }

    fn in_window(&self, r: &TraceRecord) -> bool {
        r.micros >= self.start && r.micros < self.end
    }

    /// Positions the cursor at its next in-window record and returns
    /// that record's key; `None` once the chain is exhausted. O(1) when
    /// already positioned.
    ///
    /// # Errors
    ///
    /// On chunk read/decode failure.
    fn peek(&mut self) -> Result<Option<u64>> {
        loop {
            if self.seg == self.chain.sealed.len() {
                while self.hot_pos < self.chain.hot.len() {
                    if self.in_window(&self.chain.hot[self.hot_pos]) {
                        let seq = self.chain.hot_seqs.get(self.hot_pos);
                        return Ok(Some(seq.copied().unwrap_or(self.emitted)));
                    }
                    self.hot_pos += 1;
                }
                return Ok(None);
            }
            while self.buf_pos < self.buf.len() {
                if self.in_window(&self.buf[self.buf_pos]) {
                    let seqs = self.chain.sealed_seqs.get(self.seg);
                    let at = self.seq_off + self.buf_pos;
                    return Ok(Some(seqs.map_or(self.emitted, |s| s[at])));
                }
                self.buf_pos += 1;
            }
            self.seq_off += self.buf.len();
            self.buf = Vec::new();
            self.buf_pos = 0;
            let reader = &self.chain.sealed[self.seg];
            loop {
                if self.chunk == reader.chunk_count() {
                    self.seg += 1;
                    self.chunk = 0;
                    self.seq_off = 0;
                    break;
                }
                let meta = &reader.chunks()[self.chunk];
                if meta.records == 0 || !meta.overlaps(self.start, self.end) {
                    // Skipped chunks still consume their slice of the
                    // sequence sidecar.
                    self.seq_off += meta.records as usize;
                    self.chunk += 1;
                    continue;
                }
                self.buf = reader.read_chunk(self.chunk)?;
                self.chunk += 1;
                break;
            }
        }
    }

    /// Emits the record [`ChainCursor::peek`] just positioned at and
    /// steps past it. Must follow a `Some` peek.
    fn pop(&mut self, f: &mut dyn FnMut(&TraceRecord)) {
        if self.seg == self.chain.sealed.len() {
            f(&self.chain.hot[self.hot_pos]);
            self.hot_pos += 1;
        } else {
            f(&self.buf[self.buf_pos]);
            self.buf_pos += 1;
        }
        self.emitted += 1;
    }

    /// A sequence error at the cursor's position, naming its segment.
    fn sequence_error(&self, problem: String) -> StoreError {
        match self.chain.sealed.get(self.seg) {
            Some(reader) => StoreError::Sidecar {
                segment: reader.path().to_path_buf(),
                problem,
            },
            None => StoreError::Format(format!("hot tail: {problem}")),
        }
    }
}

/// Replays every in-window record of `chains` in global arrival order,
/// k-way merging them by arrival sequence with a linear min-scan (chain
/// counts are small), and returns the sequence past the last record
/// replayed. The replay at reopen and every multi-chain view replay run
/// through here.
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

/// A [`TraceView`] over everything a [`crate::LiveIngest`] (or a
/// [`crate::ShardedLiveIngest`]) has ingested at one instant: per
/// chain, the sealed on-disk segments plus a snapshot of the hot (not
/// yet sealed) records.
///
/// A `LiveView` is **stable**: the sealed segment files are immutable,
/// the hot tails are snapshotted behind [`Arc`]s at view time (the
/// ingest copies on its next write, never in place), and the
/// construction-pass products come from a copy-on-write snapshot of
/// the ingest's one running [`nfstrace_core::index::PartialIndex`] —
/// so queries answered mid-ingest keep answering identically while
/// records continue to flow in behind them. It answers the full
/// table/figure suite: the analysis layer is generic over
/// [`TraceView`], and this view's contract is the usual bit-identity
/// with an in-memory [`nfstrace_core::index::TraceIndex`] over the
/// same records — for a sharded ingest, over the *original* global
/// stream, reconstructed by merging chains on arrival sequence.
///
/// Record replays stream sealed chunks out-of-core: a single chain is
/// pipelined ([`stream_records`]) with the hot tail appended; multiple
/// chains are k-way merged by the per-segment sequence sidecars, one
/// decoded chunk per chain resident at a time.
#[derive(Debug)]
pub struct LiveView {
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

impl LiveView {
    /// Assembles a snapshot view over `chains`. `base` must be the
    /// finished construction products over exactly their records in
    /// `[start, end)`, in arrival order — an ingest hands in its
    /// running index's snapshot, so building a view is O(snapshot),
    /// not a decode pass.
    pub(crate) fn assemble(
        chains: Vec<ShardChain>,
        start: u64,
        end: u64,
        base: IndexBase,
        registry: &Registry,
    ) -> Self {
        LiveView {
            chains,
            start,
            end,
            base,
            caches: ProductCaches::with_registry(registry),
            registry: registry.clone(),
        }
    }

    /// The chains behind this snapshot: one for a single-writer ingest,
    /// one per shard, in shard order, for a sharded one.
    pub fn chains(&self) -> &[ShardChain] {
        &self.chains
    }

    /// Records in this view (sealed + hot, inside the range).
    pub fn record_count(&self) -> usize {
        self.base.len
    }

    /// Replays `[start, end)` in arrival order: one chain streams
    /// directly (pipelined chunk decode, no sequences consulted), more
    /// go through [`for_each_merged`].
    fn replay(&self, start: u64, end: u64, f: &mut dyn FnMut(&TraceRecord)) {
        if let [chain] = &self.chains[..] {
            stream_records(&chain.sealed, start, end, f);
            for r in chain.hot.iter() {
                if r.micros >= start && r.micros < end {
                    f(r);
                }
            }
        } else {
            for_each_merged(&self.chains, start, end, f)
                .expect("sealed chunk must stay readable under a live view");
        }
    }
}

impl RecordStream for LiveView {
    /// A single chain: sealed chunks (skipping those outside the
    /// window, pipelined decode on multi-worker runs), then the hot
    /// tail. Multiple chains: k-way merge by arrival sequence.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure — a sealed segment corrupted (or
    /// deleted) mid-analysis.
    fn for_each_record(&self, f: &mut dyn FnMut(&TraceRecord)) {
        self.replay(self.start, self.end, f);
    }
}

impl TraceView for LiveView {
    fn base(&self) -> &IndexBase {
        &self.base
    }

    fn caches(&self) -> &ProductCaches {
        &self.caches
    }

    /// A narrower snapshot sharing the chains (sealed readers and hot
    /// clones); its construction pass streams the window's chunks once,
    /// in merged order.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure (see
    /// [`RecordStream::for_each_record`] on this type).
    fn time_window(&self, start_micros: u64, end_micros: u64) -> LiveView {
        let start = start_micros.max(self.start);
        let end = end_micros.min(self.end).max(start);
        let mut partial = PartialIndex::new();
        self.replay(start, end, &mut |r| partial.observe(r));
        LiveView::assemble(
            self.chains.clone(),
            start,
            end,
            partial.finish(),
            &self.registry,
        )
    }
}
