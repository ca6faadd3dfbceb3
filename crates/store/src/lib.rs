//! Chunked on-disk trace store with mergeable partial indices.
//!
//! The paper's traces are multi-day, multi-million-operation captures
//! (CAMPUS peaks near half a *billion* operations a day); holding such
//! a trace as one `Vec<TraceRecord>` caps every analysis at RAM size.
//! This crate stores a trace as a sequence of independently decodable
//! **chunks** in one binary file and rebuilds the analysis index from
//! per-chunk [`nfstrace_core::index::PartialIndex`]es, so both the
//! write path (generation, capture) and the read path (every table and
//! figure) stream: peak resident record memory is bounded by chunk
//! size × worker threads, never by trace length.
//!
//! # Pieces
//!
//! - [`StoreWriter`] — a [`nfstrace_core::sink::RecordSink`] that
//!   encodes time-ordered records through fixed-size chunks
//!   ([`StoreConfig::target_chunk_bytes`]) and finishes with a footer
//!   of per-chunk byte ranges, record counts, and time ranges;
//!   [`StoreWriter::snapshot`] hands out what it holds mid-write as a
//!   [`StoreReader`].
//! - [`StoreReader`] — opens a store by reading only the footer;
//!   decodes chunks on demand from `&self` with positioned reads on the
//!   one file handle it keeps, so any number of threads can read
//!   concurrently and the reader keeps reading after its file is
//!   renamed or deleted. A writer's snapshot is a reader too: its
//!   flushed chunks read through the file, its pending chunk held in
//!   memory, so a sealed segment and a growing one are read, pruned
//!   and decoded the same way.
//! - [`StoreIndex`] — implements
//!   [`nfstrace_core::index::TraceView`], the same analysis surface as
//!   the in-memory `TraceIndex`: chunk-parallel partial-index builds
//!   (a contiguous run of chunks per `NFSTRACE_THREADS` worker, via
//!   [`nfstrace_core::parallel::run_sharded_with`]) merged in chunk
//!   order, bit-identical to indexing the concatenated records. An index can
//!   span one file or an ordered **segment directory**
//!   ([`StoreIndex::open_dir`]; naming and the reopen-and-append
//!   catalog live in module [`segments`]) — which is how the
//!   `nfstrace-live` rotating ingest's output is analyzed — and a
//!   live ingest's view mid-ingest is one too, over its
//!   segments with the hot one last, built by [`StoreIndex::with_base`]
//!   from the ingest's running products without a decode.
//! - **Reads.** The reader reads chunks
//!   ([`StoreReader::read_chunk`], [`StoreReader::for_each`]);
//!   [`stream_records`], [`build_partial_index`] and the point queries
//!   ([`StoreIndex::file_records`], [`StoreReader::records_for_file`])
//!   read records. Under all of them sit one plan — which segments and
//!   chunks a time window, and optionally one file, can touch — and one
//!   walker, which fills a chunk buffer its caller owns and reuses
//!   (stored bytes, decompressed payload, name table), then parses and
//!   checks every record and hands each to its caller; so every read of
//!   a corrupt chunk fails with the same error. A read allocates only
//!   what it returns: [`StoreReader::read_chunk`] and the point queries
//!   build the records they keep, while the whole-store walks —
//!   [`StoreReader::for_each`], [`stream_records`] and the construction
//!   pass — lend each record from one `TraceRecord` refilled in place,
//!   through one chunk buffer per worker, and so allocate a constant
//!   number of times however many chunks and records they read. A read
//!   of a whole store (an index's root view, its replay, its point
//!   queries, [`StoreReader::records_for_file`]) runs through the top of
//!   the clock, a record stamped `u64::MAX` included; a time window
//!   `[start, end)` is half-open, as `TraceIndex::time_window` is.
//!
//! The record codec (module [`codec`]) delta-encodes timestamps,
//! varint-packs every numeric field, and interns percent-escaped name
//! arguments per chunk. On top of that, the file layout (there is
//! exactly one; module [`mod@format`] documents it) LZ-compresses each
//! chunk when that wins — negotiated per chunk via a flags byte with a
//! raw fallback (module [`compress`]) — checksums every chunk and the
//! footer so corruption surfaces as [`StoreError::Format`] rather than
//! wrong records, and carries a per-chunk [`FileIdFilter`] **sized
//! from the chunk's distinct-handle count** (exact sorted set at low
//! fan-in, adaptively sized Bloom above) so per-file queries
//! ([`StoreIndex::file_records`]) keep
//! skipping chunks that cannot match at any fan-in, and decode the
//! chunks they do admit on the `NFSTRACE_THREADS` workers.
//! Record-replaying analyses batch through
//! [`nfstrace_core::index::TraceView::prepare`] into a single fused
//! decode pass, and that pass **pipelines**: with two or more workers,
//! [`stream_records`] reads and decompresses chunk *i+1* on a worker
//! thread while the caller walks chunk *i* into its analyzers, output
//! unchanged.
//!
//! # Example: write, reopen, analyze
//!
//! ```
//! use nfstrace_core::index::{TraceIndex, TraceView};
//! use nfstrace_core::record::{FileId, Op, TraceRecord};
//! use nfstrace_store::{StoreConfig, StoreIndex, StoreWriter};
//!
//! let dir = std::env::temp_dir().join("nfstrace-store-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.nfstore");
//!
//! let records: Vec<TraceRecord> = (0..1000u64)
//!     .map(|i| TraceRecord::new(i * 500, Op::Read, FileId(i % 7)).with_range(i * 8192, 8192))
//!     .collect();
//! let config = StoreConfig {
//!     target_chunk_bytes: 1024,
//! };
//! let mut w = StoreWriter::create(&path, config).unwrap();
//! for r in &records {
//!     w.push(r).unwrap();
//! }
//! let summary = w.finish().unwrap();
//! assert!(summary.chunks > 1, "small target ⇒ many chunks");
//!
//! // The store-backed index equals the in-memory one, bit for bit.
//! let on_disk = StoreIndex::open(&path).unwrap();
//! let in_memory = TraceIndex::new(records);
//! assert_eq!(on_disk.summary(), in_memory.summary());
//! assert_eq!(on_disk.hourly(), in_memory.hourly());
//! assert_eq!(
//!     on_disk.accesses(10).as_ref(),
//!     in_memory.accesses(10).as_ref()
//! );
//! # std::fs::remove_file(&path).unwrap();
//! ```

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod codec;
pub mod compact;
pub mod compress;
pub mod error;
pub mod format;
pub mod index;
pub mod reader;
pub mod segments;
pub mod writer;

pub use compact::{CompactionPolicy, Compactor, FaultInjector};
pub use error::{Result, StoreError};
pub use format::{ChunkMeta, FileIdFilter, FilterKind};
pub use index::{build_partial_index, stream_records, StoreIndex};
pub use reader::StoreReader;
pub use segments::{SegmentCatalog, SegmentId};
pub use writer::{StoreConfig, StoreSummary, StoreWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::stream_records_with_threads;
    use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
    use nfstrace_core::record::{FileId, Op, TraceRecord};
    use nfstrace_core::runs::RunOptions;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nfstrace-store-tests");
        std::fs::create_dir_all(&dir).expect("mkdir tempdir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample(n: u64) -> Vec<TraceRecord> {
        let mut v = Vec::new();
        for i in 0..n {
            let mut r = TraceRecord::new(i * 997, Op::Read, FileId(i % 5))
                .with_range((i / 5) * 8192, 8192)
                .with_client(10 + (i % 3) as u32);
            r.reply_micros = i * 997 + 180;
            r.xid = i as u32;
            v.push(r);
            if i % 7 == 0 {
                let mut c = TraceRecord::new(i * 997 + 11, Op::Create, FileId(100))
                    .with_name(format!("snd.{i}"));
                c.new_fh = Some(FileId(1000 + i));
                v.push(c);
            }
            if i % 11 == 0 {
                v.push(
                    TraceRecord::new(i * 997 + 13, Op::Write, FileId(1000 + i)).with_range(0, 900),
                );
            }
        }
        v
    }

    fn write_store(path: &std::path::Path, records: &[TraceRecord], chunk_bytes: usize) {
        let mut w = StoreWriter::create(
            path,
            StoreConfig {
                target_chunk_bytes: chunk_bytes,
            },
        )
        .expect("create store");
        for r in records {
            w.push(r).expect("push");
        }
        w.finish().expect("finish");
    }

    #[test]
    fn roundtrip_is_bit_identical_across_chunk_sizes() {
        let records = sample(500);
        for chunk_bytes in [64, 1024, 1 << 20] {
            let path = tmp(&format!("roundtrip-{chunk_bytes}"));
            write_store(&path, &records, chunk_bytes);
            let reader = StoreReader::open(&path).expect("open");
            assert_eq!(reader.total_records(), records.len() as u64);
            let mut back = Vec::new();
            reader.for_each(|r| back.push(r.clone())).expect("stream");
            assert_eq!(back, records, "chunk_bytes={chunk_bytes}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn tiny_chunks_make_many_chunks_and_metas_cover_time() {
        let records = sample(400);
        let path = tmp("metas");
        write_store(&path, &records, 128);
        let reader = StoreReader::open(&path).expect("open");
        assert!(reader.chunk_count() > 5);
        let metas = reader.chunks();
        for w in metas.windows(2) {
            assert!(w[0].max_micros <= w[1].min_micros, "chunks in time order");
        }
        assert_eq!(metas[0].min_micros, records[0].micros);
        assert_eq!(
            metas.last().unwrap().max_micros,
            records.last().unwrap().micros
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_push_is_rejected() {
        let path = tmp("order");
        let mut w = StoreWriter::create(&path, StoreConfig::default()).expect("create");
        w.push(&TraceRecord::new(100, Op::Read, FileId(1))).unwrap();
        let err = w.push(&TraceRecord::new(99, Op::Read, FileId(1)));
        assert!(matches!(err, Err(StoreError::OutOfOrder { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_index_matches_trace_index_products() {
        let records = sample(600);
        let path = tmp("index");
        write_store(&path, &records, 512);
        let disk = StoreIndex::open(&path).expect("open");
        let mem = TraceIndex::new(records);
        assert_eq!(TraceView::len(&disk), TraceView::len(&mem));
        assert_eq!(disk.summary(), mem.summary());
        assert_eq!(disk.hourly(), mem.hourly());
        assert_eq!(disk.accesses(0).as_ref(), mem.accesses(0).as_ref());
        assert_eq!(disk.accesses(10).as_ref(), mem.accesses(10).as_ref());
        assert_eq!(
            disk.runs(10, RunOptions::default()).as_ref(),
            mem.runs(10, RunOptions::default()).as_ref()
        );
        assert_eq!(disk.names(), mem.names());
        let cfg = nfstrace_core::lifetime::LifetimeConfig {
            phase1_start: 0,
            phase1_len: 200_000,
            phase2_len: 200_000,
        };
        assert_eq!(disk.lifetime(cfg).as_ref(), mem.lifetime(cfg).as_ref());
        assert_eq!(
            disk.hierarchy_coverage(50_000),
            mem.hierarchy_coverage(50_000)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_time_window_matches_trace_index_window() {
        let records = sample(600);
        let path = tmp("window");
        write_store(&path, &records, 512);
        let disk = StoreIndex::open(&path).expect("open");
        let mem = TraceIndex::new(records);
        let (a, b) = (40_000u64, 300_000u64);
        let dw = disk.time_window(a, b);
        let mw = mem.time_window(a, b);
        assert_eq!(TraceView::len(&dw), TraceView::len(&mw));
        assert_eq!(dw.summary(), mw.summary());
        assert_eq!(dw.accesses(5).as_ref(), mw.accesses(5).as_ref());
        // A nested window intersects, exactly like the slice-based view.
        let dn = dw.time_window(0, 100_000);
        let mn = mw.time_window(0, 100_000);
        assert_eq!(dn.summary(), mn.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_opens_and_indexes() {
        let path = tmp("empty");
        write_store(&path, &[], 512);
        let disk = StoreIndex::open(&path).expect("open");
        assert!(TraceView::is_empty(&disk));
        assert_eq!(disk.summary().total_ops, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Splits `records` into `n` stretches and writes each as one
    /// sealed segment in `dir`.
    fn write_segments(dir: &std::path::Path, records: &[TraceRecord], n: usize, chunk: usize) {
        std::fs::create_dir_all(dir).expect("mkdir");
        let mut cat = segments::SegmentCatalog::open(dir).expect("catalog");
        let per = records.len().div_ceil(n.max(1)).max(1);
        for part in records.chunks(per) {
            let ord = cat.next_ordinal();
            write_store(&cat.path_for(ord), part, chunk);
            cat.note_sealed(ord);
        }
    }

    #[test]
    fn segment_dir_index_matches_single_file_index() {
        let records = sample(700);
        let dir = std::env::temp_dir().join(format!("nfstrace-segdir-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_segments(&dir, &records, 4, 512);
        let single = tmp("segdir-single");
        write_store(&single, &records, 512);

        let seg = StoreIndex::open_dir(&dir).expect("open dir");
        assert_eq!(seg.readers().len(), 4);
        let one = StoreIndex::open(&single).expect("open single");
        assert_eq!(TraceView::len(&seg), TraceView::len(&one));
        assert_eq!(seg.summary(), one.summary());
        assert_eq!(seg.hourly(), one.hourly());
        assert_eq!(seg.accesses(10).as_ref(), one.accesses(10).as_ref());
        assert_eq!(
            seg.runs(10, RunOptions::default()).as_ref(),
            one.runs(10, RunOptions::default()).as_ref()
        );
        assert_eq!(seg.names(), one.names());
        // Windows cross segment boundaries transparently.
        let (a, b) = (100_000u64, 400_000u64);
        let sw = seg.time_window(a, b);
        let ow = one.time_window(a, b);
        assert_eq!(sw.summary(), ow.summary());
        // Per-file queries skip across all segments and agree.
        let probe = FileId(3);
        assert_eq!(
            seg.file_records(probe).expect("file query"),
            one.file_records(probe).expect("file query")
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&single).ok();
    }

    #[test]
    fn open_dir_rejects_missing_and_segmentless_directories() {
        let missing =
            std::env::temp_dir().join(format!("nfstrace-no-such-dir-{}", std::process::id()));
        std::fs::remove_dir_all(&missing).ok();
        assert!(
            StoreIndex::open_dir(&missing).is_err(),
            "a mistyped path must not read as an empty trace"
        );
        assert!(!missing.exists(), "opening must not create the directory");
        let empty = std::env::temp_dir().join(format!("nfstrace-empty-dir-{}", std::process::id()));
        std::fs::create_dir_all(&empty).expect("mkdir");
        let err = StoreIndex::open_dir(&empty).expect_err("no segments");
        assert!(matches!(&err, StoreError::Format(m) if m.contains("segments")));
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn out_of_order_segments_are_rejected() {
        let records = sample(200);
        let dir = std::env::temp_dir().join(format!("nfstrace-segbad-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cat = segments::SegmentCatalog::open(&dir).expect("catalog");
        // Segment 0 holds the LATER half, segment 1 the earlier one.
        let mid = records.len() / 2;
        write_store(&cat.path_for(0), &records[mid..], 512);
        write_store(&cat.path_for(1), &records[..mid], 512);
        let err = StoreIndex::open_dir(&dir).expect_err("time travel must fail");
        assert!(
            matches!(&err, StoreError::Format(m) if m.contains("segment")),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_decode_is_bit_identical_to_serial() {
        let records = sample(900);
        let dir = std::env::temp_dir().join(format!("nfstrace-pipe-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_segments(&dir, &records, 3, 256);
        let readers: Vec<std::sync::Arc<StoreReader>> = segments::SegmentCatalog::open(&dir)
            .expect("catalog")
            .paths()
            .into_iter()
            .map(|p| std::sync::Arc::new(StoreReader::open(p).expect("open")))
            .collect();
        for (start, end) in [(0u64, u64::MAX), (50_000, 300_000)] {
            let mut serial = Vec::new();
            stream_records_with_threads(&readers, start, end, 1, &mut |r| serial.push(r.clone()));
            for threads in [2, 8] {
                let mut piped = Vec::new();
                stream_records_with_threads(&readers, start, end, threads, &mut |r| {
                    piped.push(r.clone())
                });
                assert_eq!(piped, serial, "threads={threads} window=({start},{end})");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record may be stamped `u64::MAX`: every read of a whole store
    /// keeps it — the root view's count, its replay, the point queries
    /// and the construction pass — as `TraceIndex::new` does, while a
    /// time window stays half-open and drops it, as
    /// `TraceIndex::time_window` does. Once with the two top records
    /// sharing a chunk, once with every record in a chunk of its own.
    #[test]
    fn whole_store_reads_keep_records_stamped_at_the_top_of_the_clock() {
        let probe = FileId(7);
        let at = |micros: u64, fh: u64| {
            TraceRecord::new(micros, Op::Read, FileId(fh)).with_range(micros % 4096, 512)
        };
        let top = vec![at(u64::MAX - 1, 7), at(u64::MAX, 7)];
        let mut spread: Vec<TraceRecord> = (0..6)
            .map(|i| at(u64::MAX - 600 + i * 100, i % 2 + 6))
            .collect();
        spread.extend(top.iter().cloned());
        for (tag, records, chunk_bytes, chunks) in
            [("top-shared", top, 1 << 20, 1), ("top-own", spread, 1, 8)]
        {
            let path = tmp(tag);
            write_store(&path, &records, chunk_bytes);
            let index = StoreIndex::open(&path).expect("open");
            assert_eq!(index.chunk_count(), chunks, "{tag}");
            let memory = TraceIndex::new(records.clone());
            let replay = |view: &dyn RecordStream| {
                let mut out = Vec::new();
                view.for_each_record(&mut |r| out.push(r.clone()));
                out
            };
            assert_eq!(TraceView::len(&index), records.len(), "{tag}");
            assert_eq!(TraceView::len(&memory), records.len(), "{tag}");
            assert_eq!(index.summary(), memory.summary(), "{tag}");
            assert_eq!(replay(&index), records, "{tag}");
            let of_probe: Vec<TraceRecord> =
                records.iter().filter(|r| r.fh == probe).cloned().collect();
            assert_eq!(
                index.reader().records_for_file(probe).expect("query"),
                of_probe,
                "{tag}"
            );
            assert_eq!(index.file_records(probe).expect("query"), of_probe, "{tag}");
            let pass = build_partial_index(index.readers(), 0, None, 2).expect("pass");
            assert_eq!(pass.len(), records.len(), "{tag}");

            let (stored, held) = (
                index.time_window(0, u64::MAX),
                memory.time_window(0, u64::MAX),
            );
            assert_eq!(TraceView::len(&stored), records.len() - 1, "{tag}");
            assert_eq!(TraceView::len(&stored), TraceView::len(&held), "{tag}");
            assert_eq!(stored.summary(), held.summary(), "{tag}");
            assert_eq!(replay(&stored), replay(&held), "{tag}");
            assert_eq!(
                stored.file_records(probe).expect("query"),
                of_probe[..of_probe.len() - 1],
                "{tag}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A chunk corrupted under an open reader panics the stream with
    /// one message — the walker's error, which names the chunk — at 1,
    /// 2 and 8 workers.
    #[test]
    fn a_corrupt_chunk_panics_the_stream_alike_at_every_worker_count() {
        let records = sample(900);
        let path = tmp("stream-corrupt");
        write_store(&path, &records, 256);
        let reader = std::sync::Arc::new(StoreReader::open(&path).expect("open"));
        assert!(reader.chunk_count() > 4, "several chunks");
        let m = reader.chunks()[3].clone();
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[(m.offset + m.len / 2) as usize] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write");

        let readers = [reader];
        for threads in [1, 2, 8] {
            let panic = std::panic::catch_unwind(|| {
                stream_records_with_threads(&readers, 0, u64::MAX, threads, &mut |_| {})
            })
            .expect_err("a corrupt chunk panics the stream");
            let message = panic
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(
                message,
                "store chunk unreadable mid-analysis: malformed store: chunk 3 checksum mismatch",
                "threads={threads}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A reader reads through the handle it opened: with its file
    /// unlinked, chunk reads, a point query and an index replay over it
    /// return what they did before.
    #[test]
    fn a_reader_reads_through_its_own_handle() {
        let records = sample(500);
        let path = tmp("unlinked");
        write_store(&path, &records, 512);
        let reader = std::sync::Arc::new(StoreReader::open(&path).expect("open"));
        assert!(reader.chunk_count() > 2, "several chunks");
        let index = StoreIndex::from_readers_with_threads(vec![reader.clone()], 2).expect("index");
        let read = || {
            let mut replayed = Vec::new();
            index.for_each_record(&mut |r| replayed.push(r.clone()));
            (
                reader.read_chunk(1).expect("read_chunk"),
                reader.read_chunk_verified(2).expect("verified").bytes,
                reader.records_for_file(FileId(3)).expect("file query"),
                replayed,
            )
        };
        let before = read();
        assert_eq!(before.3, records);
        std::fs::remove_file(&path).expect("unlink");
        assert!(!path.exists());
        assert_eq!(read(), before);
    }

    #[test]
    fn truncated_file_is_a_format_error() {
        let records = sample(100);
        let path = tmp("trunc");
        write_store(&path, &records, 512);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(StoreReader::open(&path).is_err(), "cut={cut}");
        }
        std::fs::remove_file(&path).ok();
    }
}
