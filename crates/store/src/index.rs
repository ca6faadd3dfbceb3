//! The out-of-core analysis index over chunked stores — one file or a
//! whole segment directory.

use crate::codec::{RecordFields, RecordSlot};
use crate::error::{Result, StoreError};
use crate::format::Window;
use crate::reader::{ChunkBuf, StoreReader};
use crate::segments::SegmentCatalog;
use nfstrace_core::index::{IndexBase, PartialIndex, ProductCaches, RecordStream, TraceView};
use nfstrace_core::parallel;
use nfstrace_core::record::{FileId, TraceRecord};
use nfstrace_telemetry::Registry;
use std::borrow::Borrow;
use std::path::Path;
use std::sync::Arc;

/// Streams every record of `readers` (segments in order, chunks in
/// order within each) whose capture time lies in `[start, end)`,
/// decoding one chunk at a time and skipping chunks whose footer time
/// range misses the window. Each record is lent to `f` from one
/// [`TraceRecord`] refilled in place, so the stream allocates a
/// constant number of times however many chunks and records it reads.
///
/// With two or more `NFSTRACE_THREADS` workers the decode is
/// **pipelined**: a worker thread reads, checks and decompresses chunk
/// *i+1* (and reads ahead through a bounded channel) while the caller
/// parses chunk *i* and its observers consume the records — overlapping
/// I/O and decompression with analysis without changing a single byte
/// of output, since chunks are still delivered in order. Three chunk
/// buffers (the one being read, the one in the channel, the one being
/// walked) circulate between the two threads, chunk *i* always in
/// buffer *i* mod 3, so at most three chunks are resident at once.
///
/// # Panics
///
/// On chunk read/decode failure after a successful open — a store
/// corrupted (or deleted) mid-analysis — with the same message at any
/// worker count.
pub fn stream_records(
    readers: &[Arc<StoreReader>],
    start: u64,
    end: u64,
    f: &mut dyn FnMut(&TraceRecord),
) {
    stream_records_with_threads(readers, start, end, parallel::threads(), f)
}

/// [`stream_records`] with an explicit worker count — `1` forces the
/// serial decode, anything higher enables the pipelined decode — and
/// an `end` that may be `None`: through the top of the clock. Output is
/// identical at any worker count (tested), which is why the public
/// entry point can pick from `NFSTRACE_THREADS` freely.
pub(crate) fn stream_records_with_threads(
    readers: &[Arc<StoreReader>],
    start: u64,
    end: impl Into<Option<u64>>,
    threads: usize,
    f: &mut dyn FnMut(&TraceRecord),
) {
    /// Chunk buffers of the pipelined decode.
    const BUFFERS: usize = 3;
    let unreadable = |e: StoreError| -> ! { panic!("store chunk unreadable mid-analysis: {e}") };
    let plan = Plan::new(readers, Window::new(start, end), None);
    let mut slot = RecordSlot::new();
    let mut visit = |r: &RecordFields, names: &[String]| f(slot.fill(r, names));
    let n = plan.chunks.len();
    if threads >= 2 && n > 1 {
        let plan = &plan;
        std::thread::scope(|scope| {
            let (full_tx, full) = std::sync::mpsc::sync_channel(1);
            let (empty, empties) = std::sync::mpsc::sync_channel(BUFFERS);
            for _ in 0..BUFFERS {
                empty
                    .send(ChunkBuf::default())
                    .expect("room for every buffer");
            }
            scope.spawn(move || {
                for i in 0..n {
                    // Both fail only once the consumer is gone (a panic
                    // unwinding).
                    let Ok(mut buf) = empties.recv() else { break };
                    let opened = plan.open(i, &mut buf);
                    if full_tx.send((opened, buf)).is_err() {
                        break;
                    }
                }
            });
            for (i, (opened, buf)) in full.into_iter().enumerate() {
                opened
                    .and_then(|()| plan.walk_open(i, &buf, &mut visit))
                    .unwrap_or_else(|e| unreadable(e));
                // The reader stops asking once every chunk is read.
                empty.send(buf).ok();
            }
        });
    } else {
        let mut buf = ChunkBuf::default();
        for i in 0..n {
            plan.walk(i, &mut buf, &mut visit)
                .unwrap_or_else(|e| unreadable(e));
        }
    }
}

/// The one query plan behind every read of records: the chunks of
/// `readers` that may hold a record captured in `window` — of file
/// `fh`, when there is one — as `(reader ordinal, chunk ordinal)` in
/// stream order, and the walk ([`StoreReader::walk_chunk`]) that reads
/// each.
struct Plan<'a, R> {
    readers: &'a [R],
    window: Window,
    fh: Option<FileId>,
    chunks: Vec<(usize, usize)>,
}

impl<'a, R: Borrow<StoreReader>> Plan<'a, R> {
    /// Plans the read. A segment is dismissed whole — before its
    /// per-chunk metas are even iterated — when its folded footer time
    /// range misses the window ([`StoreReader::prune_window`]) or no
    /// chunk filter admits `fh`, and counted in `store.segments_pruned`;
    /// on an archive-scale catalog a narrow window touches a handful of
    /// segments and prunes the rest here. Of the rest, every chunk whose
    /// footer time range misses the window or whose
    /// [`crate::format::FileIdFilter`] rules `fh` out is left out; a
    /// point query counts each in `store.chunks_skipped`, a window read
    /// counts none.
    fn new(readers: &'a [R], window: Window, fh: Option<FileId>) -> Self {
        let mut chunks = Vec::new();
        for (ri, reader) in readers.iter().enumerate() {
            let reader = reader.borrow();
            if reader.prune_outside(window) || fh.is_some_and(|fh| reader.prune_file(fh)) {
                continue;
            }
            for (ci, m) in reader.chunks().iter().enumerate() {
                if m.meets(window) && fh.is_none_or(|fh| m.may_contain_file(fh)) {
                    chunks.push((ri, ci));
                } else if fh.is_some() {
                    reader.metrics.chunks_skipped.inc();
                }
            }
        }
        Plan {
            readers,
            window,
            fh,
            chunks,
        }
    }

    /// The reader of planned chunk `i`, and the chunk's ordinal in it.
    fn chunk(&self, i: usize) -> (&StoreReader, usize) {
        let (ri, ci) = self.chunks[i];
        (self.readers[ri].borrow(), ci)
    }

    /// Walks planned chunk `i` through `buf`, handing `visit` its
    /// records in the window (of `fh` only, on a point query), and says
    /// whether it held any record of `fh` at all — `false` is a decode
    /// the filter made the query pay for; always `true` on a window
    /// read.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_chunk`].
    fn walk(
        &self,
        i: usize,
        buf: &mut ChunkBuf,
        visit: impl FnMut(&RecordFields, &[String]),
    ) -> Result<bool> {
        self.open(i, buf)?;
        self.walk_open(i, buf, visit)
    }

    /// The first half of [`Plan::walk`]: planned chunk `i` read into
    /// `buf` ([`StoreReader::open_chunk`]).
    fn open(&self, i: usize, buf: &mut ChunkBuf) -> Result<()> {
        let (reader, ci) = self.chunk(i);
        reader.open_chunk(ci, buf)
    }

    /// The second half of [`Plan::walk`], over the chunk [`Plan::open`]
    /// read into `buf`.
    fn walk_open(
        &self,
        i: usize,
        buf: &ChunkBuf,
        mut visit: impl FnMut(&RecordFields, &[String]),
    ) -> Result<bool> {
        let mut holds_file = self.fh.is_none();
        self.chunk(i).0.walk_open(buf, |r, names| {
            let of_file = self.fh.is_none_or(|fh| r.fh == fh);
            holds_file |= of_file;
            if of_file && self.window.contains(r.micros) {
                visit(r, names);
            }
        })?;
        Ok(holds_file)
    }
}

/// The point query behind [`StoreIndex::file_records`] and
/// [`StoreReader::records_for_file`]: `fh`'s records captured from
/// `start` until `end` — `[start, end)`, or through the top of the
/// clock when `end` is `None` — across `readers`, in time order.
///
/// The admitted chunks of the [`Plan`] split into [`parallel::runs`]
/// of `threads`, one [`parallel::fork_join`] job a run. A job walks its
/// contiguous run of chunks through one chunk buffer of its own, up to
/// its first failing chunk, pushing the matches into one vector. Once
/// the first chunk of its run is walked, a job reserves room for as
/// many matches in each later chunk of the run, but never for more than
/// four times the matches it has: a run of up to five chunks that match
/// alike is sized once, and a file dense in the first chunk and sparse
/// after reserves at most four times what it found. Then — in chunk
/// order — false positives are counted and the first failure is
/// returned; otherwise the first job's vector, sized to the total and
/// the later ones appended, is the answer.
pub(crate) fn file_records_in<R: Borrow<StoreReader> + Sync>(
    readers: &[R],
    fh: FileId,
    start: u64,
    end: impl Into<Option<u64>>,
    threads: usize,
) -> Result<Vec<TraceRecord>> {
    let plan = Plan::new(readers, Window::new(start, end), Some(fh));
    let walked = parallel::fork_join(parallel::runs(plan.chunks.len(), threads), |run| {
        let mut buf = ChunkBuf::default();
        let mut matches = Vec::new();
        // The chunks that held no record of `fh`: a decode the filter
        // made us pay for.
        let mut misses = Vec::new();
        for i in run.clone() {
            match plan.walk(i, &mut buf, |r, names| matches.push(r.materialize(names))) {
                Ok(true) => {}
                Ok(false) => misses.push(i),
                Err(e) => return (matches, misses, Err(e)),
            }
            if i == run.start && run.len() > 1 {
                let alike = matches.len().saturating_mul(run.len() - 1);
                matches.reserve_exact(alike.min(4 * matches.len()));
            }
        }
        (matches, misses, Ok(()))
    });
    let total = walked
        .iter()
        .map(|(matches, ..)| matches.len())
        .sum::<usize>();
    let mut answer = Vec::new();
    for (k, (matches, misses, outcome)) in walked.into_iter().enumerate() {
        for i in misses {
            plan.chunk(i).0.metrics.filter_false_positives.inc();
        }
        outcome?;
        if k == 0 {
            answer = matches;
            answer.reserve_exact(total - answer.len());
        } else {
            answer.extend(matches);
        }
    }
    answer.shrink_to_fit();
    Ok(answer)
}

/// Adjacent non-empty segments must not travel back in time: the
/// concatenation of `readers` is analyzed as one time-ordered trace.
fn check_segment_order(readers: &[Arc<StoreReader>]) -> Result<()> {
    let mut prev_max: Option<u64> = None;
    for (i, r) in readers.iter().enumerate() {
        for m in r.chunks().iter().filter(|m| m.records > 0) {
            if prev_max.is_some_and(|p| m.min_micros < p) {
                return Err(StoreError::Format(format!(
                    "segment {i} begins before its predecessor ends"
                )));
            }
            prev_max = Some(m.max_micros);
        }
    }
    Ok(())
}

/// The chunk-parallel construction pass: the [`PartialIndex`] over
/// every record of `readers` (segments in order) captured from `start`
/// until `end` — `[start, end)`, or through the top of the clock, a
/// record stamped `u64::MAX` included, when `end` is `None`.
///
/// The chunks the window's plan admits split into [`parallel::runs`] of
/// `threads`, one [`parallel::fork_join`] job a run. Each job walks its
/// contiguous run of chunks through one chunk buffer of its own, fills
/// every in-window record into one reused [`TraceRecord`] and folds it
/// into a partial of its own; the partials are absorbed in run order —
/// so the result equals observing the same records one by one, at any
/// worker count, and the pass allocates no record at all. This is the
/// one pass that indexes stored chunks: [`StoreIndex`] and its windows
/// finish it — a live ingest's views' windows too, over segments whose
/// last is the hot one (a writer's snapshot) — and a reopened
/// `nfstrace_live::LiveIngest` seeds its running index with it.
///
/// # Errors
///
/// The error of the first failing chunk in chunk order.
pub fn build_partial_index(
    readers: &[Arc<StoreReader>],
    start: u64,
    end: impl Into<Option<u64>>,
    threads: usize,
) -> Result<PartialIndex> {
    let plan = Plan::new(readers, Window::new(start, end), None);
    parallel::fork_join(parallel::runs(plan.chunks.len(), threads), |run| {
        let (mut buf, mut slot, mut partial) =
            (ChunkBuf::default(), RecordSlot::new(), PartialIndex::new());
        for i in run {
            plan.walk(i, &mut buf, |r, names| partial.observe(slot.fill(r, names)))?;
        }
        Ok(partial)
    })
    .into_iter()
    .reduce(|acc, later| {
        let mut acc = acc?;
        acc.absorb(later?);
        Ok(acc)
    })
    .unwrap_or_else(|| Ok(PartialIndex::new()))
}

/// A [`TraceView`] whose records live in store segments — one store
/// file, an ordered run of segment files, or a live ingest's segments
/// at one instant, the last of them the hot segment as its writer holds
/// it ([`StoreIndex::with_base`]).
///
/// Construction ([`build_partial_index`]) builds one [`PartialIndex`]
/// per `NFSTRACE_THREADS` worker over its contiguous run of chunks and
/// merges them in chunk order (segments in catalog order first), so the
/// summary counters, hourly buckets, and per-file access lists are
/// bit-identical to [`nfstrace_core::index::TraceIndex::new`] over the
/// concatenated records while resident *record* memory stays one chunk
/// buffer and one record per worker, not trace size. A view over all of
/// its segments holds every record, one stamped `u64::MAX` included;
/// its time windows are half-open. Record-replaying
/// analyses (block lifetimes, name prediction, hierarchy coverage)
/// stream chunk by chunk through [`stream_records`] — pipelined on
/// multi-worker runs — and batched through [`TraceView::prepare`] they
/// all ride **one** fused decode pass, so a full analysis suite costs
/// construction + one replay ≈ two decodes per chunk (asserted end to
/// end by `repro --via store` via [`TraceView::decode_passes`] and
/// [`StoreReader::chunks_decoded`]).
///
/// Time windows ([`TraceView::time_window`]) share the underlying
/// [`StoreReader`]s via [`Arc`] and skip chunks whose footer time range
/// misses the window entirely. An index and its windows hold one open
/// file handle per segment between them, so a segment deleted under
/// them stays readable, its bytes on disk, until the last is dropped.
///
/// Every index carries a telemetry [`Registry`]: the plain constructors
/// give each index a private one, while the `*_with_registry`
/// constructors report the `store.*` / `query.*` instruments into a
/// shared pipeline-health export. Windowed views inherit their parent's
/// registry either way.
#[derive(Debug)]
pub struct StoreIndex {
    readers: Vec<Arc<StoreReader>>,
    /// This view's time range: `[start, end)` for a time window; every
    /// record through the top of the clock, `u64::MAX` included, for a
    /// view over all of its segments (`Window::ALL`).
    window: Window,
    base: IndexBase,
    caches: ProductCaches,
    /// Where this view's (and its windows') instruments live.
    registry: Registry,
}

impl StoreIndex {
    /// Opens a store file and indexes all of it.
    ///
    /// # Errors
    ///
    /// On open/decode failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::open_with_registry(path, &Registry::new())
    }

    /// [`StoreIndex::open`] reporting telemetry into `registry`.
    ///
    /// # Errors
    ///
    /// On open/decode failure.
    pub fn open_with_registry<P: AsRef<Path>>(path: P, registry: &Registry) -> Result<Self> {
        let reader = Arc::new(StoreReader::open_with_registry(path, registry)?);
        Self::from_readers_in(vec![reader], parallel::threads(), registry)
    }

    /// Opens every sealed segment in `dir` (see
    /// [`crate::segments::SegmentCatalog`]) and indexes the
    /// concatenated trace. Segment time ranges must follow each other —
    /// a rotated ingest writes them that way; anything else is a
    /// [`StoreError::Format`].
    ///
    /// # Errors
    ///
    /// On a missing directory or one holding no segments (a mistyped
    /// path must not read as an empty trace), open/decode failure, or
    /// out-of-order segments.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::open_dir_with_registry(dir, &Registry::new())
    }

    /// [`StoreIndex::open_dir`] reporting telemetry into `registry` —
    /// every segment reader and the query caches share it.
    ///
    /// # Errors
    ///
    /// See [`StoreIndex::open_dir`].
    pub fn open_dir_with_registry<P: AsRef<Path>>(dir: P, registry: &Registry) -> Result<Self> {
        let dir = dir.as_ref();
        if !dir.is_dir() {
            return Err(StoreError::Format(format!(
                "{} is not a directory",
                dir.display()
            )));
        }
        let catalog = SegmentCatalog::open(dir)?;
        if catalog.is_empty() {
            return Err(StoreError::Format(format!(
                "{} holds no trace segments",
                dir.display()
            )));
        }
        let mut readers = Vec::with_capacity(catalog.len());
        for path in catalog.paths() {
            readers.push(Arc::new(StoreReader::open_with_registry(path, registry)?));
        }
        Self::from_readers_in(readers, parallel::threads(), registry)
    }

    /// Indexes the concatenation of already-open stores (segments in
    /// time order) with an explicit worker count.
    ///
    /// # Errors
    ///
    /// On chunk read/decode failure or out-of-order segments.
    pub fn from_readers_with_threads(
        readers: Vec<Arc<StoreReader>>,
        threads: usize,
    ) -> Result<Self> {
        Self::from_readers_in(readers, threads, &Registry::new())
    }

    /// An index over all of `readers` (segments in time order) built
    /// from construction products the caller already holds: `base`
    /// must be the finished [`PartialIndex`] over exactly their
    /// records, in stream order. A live ingest hands in its running
    /// index's snapshot, so this decodes nothing; what the footers can
    /// show is checked, in O(chunks): the segment order
    /// [`StoreIndex::from_readers_with_threads`] checks, and that
    /// `base` counts as many records as the footers hold.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] on out-of-order segments or a record
    /// count that differs from the footers' total.
    pub fn with_base(
        readers: Vec<Arc<StoreReader>>,
        base: IndexBase,
        registry: &Registry,
    ) -> Result<Self> {
        check_segment_order(&readers)?;
        let stored: u64 = readers.iter().map(|r| r.total_records()).sum();
        if base.len as u64 != stored {
            return Err(StoreError::Format(format!(
                "construction products over {} records, segments holding {stored}",
                base.len
            )));
        }
        Ok(StoreIndex {
            readers,
            window: Window::ALL,
            base,
            caches: ProductCaches::with_registry(registry),
            registry: registry.clone(),
        })
    }

    /// The shared tail of every `from_readers` flavor: validates
    /// segment ordering, then runs the construction pass.
    fn from_readers_in(
        readers: Vec<Arc<StoreReader>>,
        threads: usize,
        registry: &Registry,
    ) -> Result<Self> {
        check_segment_order(&readers)?;
        Self::build_with_threads(readers, Window::ALL, threads, registry)
    }

    /// The view over `window`: [`build_partial_index`], finished.
    fn build_with_threads(
        readers: Vec<Arc<StoreReader>>,
        window: Window,
        threads: usize,
        registry: &Registry,
    ) -> Result<Self> {
        let base = build_partial_index(&readers, window.start, window.end, threads)?.finish();
        Ok(StoreIndex {
            readers,
            window,
            base,
            caches: ProductCaches::with_registry(registry),
            registry: registry.clone(),
        })
    }

    /// Records in this view; [`TraceView::len`].
    pub fn record_count(&self) -> usize {
        self.base.len
    }

    /// The underlying reader of a single-store index (the first
    /// segment's reader otherwise).
    ///
    /// # Panics
    ///
    /// If the index has no segments at all (an empty directory).
    pub fn reader(&self) -> &Arc<StoreReader> {
        self.readers.first().expect("index over at least one store")
    }

    /// Every underlying reader, in segment order.
    pub fn readers(&self) -> &[Arc<StoreReader>] {
        &self.readers
    }

    /// Total chunks across every segment.
    pub fn chunk_count(&self) -> usize {
        self.readers.iter().map(|r| r.chunk_count()).sum()
    }

    /// Chunk decodes served across every segment since open.
    pub fn chunks_decoded(&self) -> u64 {
        self.readers.iter().map(|r| r.chunks_decoded()).sum()
    }

    /// This view's records whose primary handle is `fh`, in time order.
    ///
    /// Planned once, by the plan every read of records shares, in two
    /// cuts: whole segments are dismissed first — by folded footer time
    /// range against the view's window, then by "no chunk filter admits
    /// `fh`" (counted as `store.segments_pruned`) — and only the
    /// survivors' chunks are tested individually against their footer
    /// time ranges and [`crate::format::FileIdFilter`]s
    /// (`store.chunks_skipped`). On a multi-segment catalog a single
    /// file's records usually live in a handful of chunks, so most
    /// segments are never touched (observable via
    /// [`StoreReader::chunks_decoded`]).
    ///
    /// The admitted (segment, chunk) pairs are walked on
    /// `NFSTRACE_THREADS` workers — a one-chunk query runs inline —
    /// each through one chunk buffer of its own, parsing and checking
    /// every record and building only `fh`'s, into one vector per
    /// worker. The first worker's vector, sized to the total, takes the
    /// later ones in chunk order (segments in catalog order) and is the
    /// answer, so the result equals filtering a full scan at any worker
    /// count; `store.filter_false_positives` counts, in the same
    /// order, the admitted chunks that held no record of `fh`. A view
    /// over all of its segments answers for every capture time,
    /// `u64::MAX` included.
    ///
    /// # Errors
    ///
    /// The error of the first failing admitted chunk in chunk order —
    /// the one a serial walk would stop at. Admitted chunks after it
    /// may already have been decoded by then, and counted in
    /// `store.chunks_decoded`.
    pub fn file_records(&self, fh: FileId) -> Result<Vec<TraceRecord>> {
        let Window { start, end } = self.window;
        file_records_in(&self.readers, fh, start, end, parallel::threads())
    }
}

impl RecordStream for StoreIndex {
    /// Streams the view's records in time order via [`stream_records`]
    /// (pipelined decode when `NFSTRACE_THREADS >= 2`).
    ///
    /// # Panics
    ///
    /// On chunk read/decode failure after a successful open — a store
    /// corrupted (or deleted) mid-analysis.
    fn for_each_record(&self, f: &mut dyn FnMut(&TraceRecord)) {
        let Window { start, end } = self.window;
        stream_records_with_threads(&self.readers, start, end, parallel::threads(), f);
    }
}

impl TraceView for StoreIndex {
    fn base(&self) -> &IndexBase {
        &self.base
    }

    fn caches(&self) -> &ProductCaches {
        &self.caches
    }

    /// # Panics
    ///
    /// On chunk read/decode failure (see
    /// [`RecordStream::for_each_record`] on this type).
    fn time_window(&self, start_micros: u64, end_micros: u64) -> StoreIndex {
        let start = start_micros.max(self.window.start);
        let end = end_micros
            .min(self.window.end.unwrap_or(u64::MAX))
            .max(start);
        Self::build_with_threads(
            self.readers.clone(),
            Window::new(start, end),
            parallel::threads(),
            &self.registry,
        )
        .unwrap_or_else(|e| panic!("store unreadable while windowing: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, StoreWriter};
    use nfstrace_core::record::Op;
    use proptest::prelude::*;
    use std::path::PathBuf;

    /// Writes `records` as a catalog of `segments` contiguous stretches
    /// under a fresh directory named after `tag`.
    fn write_catalog(tag: &str, records: &[TraceRecord], segments: usize, chunk: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nfstrace-plan-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut catalog = SegmentCatalog::open(&dir).expect("catalog");
        for part in records.chunks(records.len().div_ceil(segments)) {
            let ordinal = catalog.next_ordinal();
            let config = StoreConfig {
                target_chunk_bytes: chunk,
            };
            let mut w = StoreWriter::create(catalog.path_for(ordinal), config).expect("create");
            for r in part {
                w.push(r).expect("push");
            }
            w.finish().expect("finish");
            catalog.note_sealed(ordinal);
        }
        dir
    }

    const PLANNER_COUNTERS: [&str; 4] = [
        "store.chunks_decoded",
        "store.chunks_skipped",
        "store.filter_false_positives",
        "store.segments_pruned",
    ];

    proptest! {
        /// A point query is the filtered full scan at 1, 2, 3 and 8
        /// workers, on any catalog and any window, and moves the
        /// planner's four counters by the same amounts at each: the
        /// same chunks are skipped and decoded, only concurrently.
        #[test]
        fn a_point_query_is_the_same_at_every_worker_count(
            draws in proptest::collection::vec((0u64..3_000_000, 0u64..12, any::<bool>()), 1..400),
            segments in 1usize..5,
            chunk in 48usize..1024,
            (a, b, windowed) in (0u64..3_000_000, 0u64..3_000_000, any::<bool>()),
            pick in 0usize..500,
        ) {
            let mut records: Vec<TraceRecord> = draws
                .iter()
                .map(|&(micros, fh, named)| {
                    let r = TraceRecord::new(micros, Op::Read, FileId(fh)).with_range(micros, 4096);
                    if named { r.with_name(format!("f{fh}")) } else { r }
                })
                .collect();
            records.sort_by_key(|r| r.micros);
            let dir = write_catalog("workers", &records, segments, chunk);
            let registry = Registry::new();
            let whole = StoreIndex::open_dir_with_registry(&dir, &registry).expect("open");
            let view = if windowed { whole.time_window(a.min(b), a.max(b)) } else { whole };
            // A file of the trace more often than not.
            let fh = records.get(pick).map_or(FileId(99), |r| r.fh);
            let scan: Vec<TraceRecord> = records
                .iter()
                .filter(|r| r.fh == fh && view.window.contains(r.micros))
                .cloned()
                .collect();

            let counted = || PLANNER_COUNTERS.map(|name| registry.counter(name).value());
            let mut serial_moves = None;
            for threads in [1, 2, 3, 8] {
                let before = counted();
                let answer = file_records_in(&view.readers, fh, view.window.start, view.window.end, threads)
                    .expect("query");
                let after = counted();
                let moves: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
                prop_assert_eq!(&answer, &scan, "threads={}", threads);
                prop_assert_eq!(moves, *serial_moves.get_or_insert(moves), "threads={}", threads);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The construction pass is observing the same records one by one:
    /// at 1 and 4 workers, over the whole catalog and over a window
    /// whose edges cut chunks, on segments of many chunks each.
    #[test]
    fn the_construction_pass_is_observing_the_records_in_order() {
        let records: Vec<TraceRecord> = (0..2_400u64)
            .map(|i| {
                let op = Op::ALL[(i % Op::ALL.len() as u64) as usize];
                let r = TraceRecord::new(i * 7_000_000, op, FileId(i % 13));
                let r = r.with_range(i * 4096, 4096);
                if i % 5 == 0 {
                    r.with_name(format!("f{}", i % 13))
                } else {
                    r
                }
            })
            .collect();
        let dir = write_catalog("pass", &records, 3, 512);
        let catalog = SegmentCatalog::open(&dir).expect("catalog");
        let readers: Vec<Arc<StoreReader>> = catalog
            .paths()
            .into_iter()
            .map(|path| Arc::new(StoreReader::open(path).expect("open")))
            .collect();
        assert!(readers.iter().all(|r| r.chunk_count() >= 8), "many chunks");

        let cut = (records[317].micros + 1, records[1_903].micros);
        for (start, end) in [(0, u64::MAX), cut] {
            let mut serial = PartialIndex::new();
            for r in records
                .iter()
                .filter(|r| r.micros >= start && r.micros < end)
            {
                serial.observe(r);
            }
            let want = serial.finish();
            for threads in [1, 4] {
                let got = build_partial_index(&readers, start, end, threads)
                    .expect("pass")
                    .finish();
                let ctx = format!("[{start}, {end}) threads={threads}");
                assert_eq!(got.len, want.len, "{ctx}");
                assert_eq!(got.summary, want.summary, "{ctx}");
                assert_eq!(got.hourly, want.hourly, "{ctx}");
                assert_eq!(got.raw, want.raw, "{ctx}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An index over products the caller holds is the index the
    /// construction pass builds over the same readers — summary,
    /// replay and windows — and a base that counts other records than
    /// the footers hold, or segments out of order, are refused.
    #[test]
    fn an_index_with_a_given_base_is_the_built_one() {
        let records: Vec<TraceRecord> = (0..1_500u64)
            .map(|i| TraceRecord::new(i * 3_000, Op::Read, FileId(i % 7)).with_range(i, 512))
            .collect();
        let dir = write_catalog("with-base", &records, 3, 512);
        let readers: Vec<Arc<StoreReader>> = SegmentCatalog::open(&dir)
            .expect("catalog")
            .paths()
            .into_iter()
            .map(|path| Arc::new(StoreReader::open(path).expect("open")))
            .collect();
        let built = StoreIndex::from_readers_with_threads(readers.clone(), 2).expect("index");
        let given = StoreIndex::with_base(readers.clone(), built.base().clone(), &Registry::new())
            .expect("with_base");
        let replay = |view: &StoreIndex| {
            let mut out = Vec::new();
            view.for_each_record(&mut |r| out.push(r.clone()));
            out
        };
        assert_eq!(given.record_count(), records.len());
        assert_eq!(given.summary(), built.summary());
        assert_eq!(replay(&given), records);
        let (start, end) = (records[200].micros + 1, records[1_100].micros);
        let (gw, bw) = (given.time_window(start, end), built.time_window(start, end));
        assert_eq!(gw.summary(), bw.summary());
        assert_eq!(gw.hourly(), bw.hourly());
        assert_eq!(replay(&gw), replay(&bw));

        let fewer = build_partial_index(&readers[..2], 0, u64::MAX, 1)
            .expect("pass")
            .finish();
        let short = StoreIndex::with_base(readers.clone(), fewer, &Registry::new());
        assert!(matches!(short, Err(StoreError::Format(_))), "{short:?}");
        let mut reversed = readers;
        reversed.reverse();
        let base = built.base().clone();
        let unordered = StoreIndex::with_base(reversed, base, &Registry::new());
        assert!(
            matches!(unordered, Err(StoreError::Format(_))),
            "{unordered:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With admitted chunks corrupt in two segments, every worker count
    /// fails the query with the serial walk's error — that of the first
    /// corrupt chunk in chunk order — and none panics or hangs.
    #[test]
    fn a_corrupt_chunk_fails_the_query_alike_at_every_worker_count() {
        // Every chunk holds the probed file, so every chunk is admitted.
        let records: Vec<TraceRecord> = (0..3_000u64)
            .map(|i| TraceRecord::new(i * 100, Op::Read, FileId(i % 3)).with_range(i * 8192, 8192))
            .collect();
        let dir = write_catalog("corrupt", &records, 2, 1024);
        let index = StoreIndex::open_dir(&dir).expect("open");
        let [first, second] = [0, 1].map(|s| index.readers[s].chunks().len());
        assert!(first >= 4 && second >= 4, "several chunks per segment");

        // Chunk ⌊n/2⌋ of the first segment, chunk 1 of the second: the
        // second comes later in chunk order but has the smaller
        // ordinal, so the message shows which one was reported.
        let corrupt = [(0, first / 2), (1, 1)];
        for (s, ci) in corrupt {
            let reader = &index.readers[s];
            let m = &reader.chunks()[ci];
            let mut bytes = std::fs::read(reader.path()).expect("read");
            bytes[(m.offset + m.len / 2) as usize] ^= 0x10;
            std::fs::write(reader.path(), &bytes).expect("write");
        }
        let probe = FileId(1);
        let serial = file_records_in(&index.readers, probe, 0, u64::MAX, 1)
            .expect_err("a corrupt admitted chunk fails the query")
            .to_string();
        assert_eq!(
            serial,
            format!("malformed store: chunk {} checksum mismatch", first / 2)
        );
        for threads in [2, 3, 8] {
            let err = file_records_in(&index.readers, probe, 0, u64::MAX, threads)
                .expect_err("a corrupt admitted chunk fails the query");
            assert_eq!(err.to_string(), serial, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
