//! The queryable snapshot of a live ingest: sealed segments + hot
//! segment, one chain per shard, merged on read.

use nfstrace_core::index::{IndexBase, PartialIndex, ProductCaches, RecordStream, TraceView};
use nfstrace_core::parallel;
use nfstrace_core::record::TraceRecord;
use nfstrace_store::{
    build_partial_index, overlapping_chunks, stream_records, Result, StoreError, StoreReader,
};
use nfstrace_telemetry::Registry;
use std::sync::Arc;

/// One segment chain's contribution to a [`LiveView`]: its segments in
/// stream order — the sealed ones, then the hot one, a reader over what
/// the hot writer held at the snapshot
/// ([`nfstrace_store::StoreWriter::snapshot`]) — and the arrival
/// sequences of every record, one vector per segment (sidecars for the
/// sealed ones).
///
/// Every segment is read the same way, through its
/// [`StoreReader`]'s handle: streamed and indexed by the store's own
/// planner and construction pass ([`nfstrace_store::stream_records`],
/// [`nfstrace_store::build_partial_index`]), which prune and skip the
/// hot segment's chunks as they do sealed ones. A single-writer ingest
/// produces one chain with no sequences, which is only ever read
/// alone. Sequences are consulted only where the chains of a sharded
/// ingest must be interleaved — its views' replays and windows, and
/// its reopen.
#[derive(Debug, Clone)]
pub struct ShardChain {
    /// Sealed segments first, then the hot one, if any.
    pub(crate) segments: Vec<Arc<StoreReader>>,
    /// Arrival sequences per segment, parallel to `segments` (empty on
    /// a chain without sequences).
    pub(crate) seqs: Vec<Arc<Vec<u64>>>,
    /// How many of `segments` are sealed.
    pub(crate) sealed_len: usize,
}

impl ShardChain {
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
/// last record replayed. Only a sharded ingest's chains come here: the
/// replay at [`crate::ShardedLiveIngest::open`] and every multi-chain
/// view replay and window.
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
/// yet sealed) segment, each behind a [`StoreReader`].
///
/// A `LiveView` is **stable**: the sealed segment files are immutable,
/// each hot segment is snapshotted at view time as its writer holds it
/// — encoded: the flushed chunks, and a copy of the pending chunk's
/// bytes — and every segment's reader keeps the one file handle it
/// opened, so the view reads the same bytes after the ingest behind it
/// seals, renames, merges or deletes any segment it references. The
/// view holds one open handle per segment, and a deleted segment's
/// bytes stay on disk until the last view (or index) holding it is
/// dropped. The construction-pass products come from a copy-on-write
/// snapshot of the ingest's one running
/// [`nfstrace_core::index::PartialIndex`]. So taking a view decodes no
/// record, the ingest copies nothing on its next write, and queries
/// answered mid-ingest keep answering identically while records
/// continue to flow in behind them. It answers the full
/// table/figure suite: the analysis layer is generic over
/// [`TraceView`], and this view's contract is the usual bit-identity
/// with an in-memory [`nfstrace_core::index::TraceIndex`] over the
/// same records — for a sharded ingest, over the *original* global
/// stream, reconstructed by merging chains on arrival sequence.
///
/// Who replays what. A single chain (a [`crate::LiveIngest`]'s) is the
/// store's: its record replays stream its segments' chunks, hot ones
/// included, pipelined ([`stream_records`]), and a window's
/// construction pass is [`build_partial_index`] over them,
/// chunk-parallel — each pass decodes the hot chunks its window
/// overlaps, as it decodes sealed ones. Multiple chains (a
/// [`crate::ShardedLiveIngest`]'s) are k-way merged by the per-segment
/// arrival sequences, one decoded chunk per chain resident at a time,
/// for replays and windows alike.
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
            stream_records(&chain.segments, start, end, f);
        } else {
            for_each_merged(&self.chains, start, end, f)
                .expect("segment chunk must stay readable under a live view");
        }
    }
}

impl RecordStream for LiveView {
    /// A single chain: its segments' chunks, skipping those outside the
    /// window, pipelined decode on multi-worker runs. Multiple chains:
    /// k-way merge by arrival sequence.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure — a segment's bytes corrupted
    /// mid-analysis.
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

    /// A narrower snapshot sharing the chains' segment readers. A
    /// single chain's construction pass is the store's, chunk-parallel
    /// over the window's chunks, hot ones included; more chains are
    /// observed once, in merged order.
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure (see
    /// [`RecordStream::for_each_record`] on this type).
    fn time_window(&self, start_micros: u64, end_micros: u64) -> LiveView {
        let start = start_micros.max(self.start);
        let end = end_micros.min(self.end).max(start);
        let partial = if let [chain] = &self.chains[..] {
            build_partial_index(&chain.segments, start, end, parallel::threads())
                .unwrap_or_else(|e| panic!("segment chunk unreadable under a live view: {e}"))
        } else {
            let mut partial = PartialIndex::new();
            self.replay(start, end, &mut |r| partial.observe(r));
            partial
        };
        LiveView::assemble(
            self.chains.clone(),
            start,
            end,
            partial.finish(),
            &self.registry,
        )
    }
}
