//! Allocation budgets for store reads.
//!
//! A read walks every record of every chunk it decodes, but allocates
//! only for what it returns. `StoreReader::records_for_file` builds a
//! `TraceRecord` — 200 bytes, plus a cloned `String` per name — only
//! for the records of the file asked for, and walks its chunks through
//! one reused chunk buffer per worker; `StoreReader::for_each` and the
//! construction pass lend every record from one `TraceRecord` refilled
//! in place, through one chunk buffer per worker. These tests hold each
//! to that: the query may allocate for its chunk buffers and its
//! answer, the walks for their buffers, and none of them for anything
//! that grows with the chunks or records walked past.
//!
//! The allocation counter is process-global, so the tests take turns.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use nfstrace_core::index::TraceView;
use nfstrace_core::parallel;
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::{StoreConfig, StoreIndex, StoreReader, StoreWriter};
use nfstrace_telemetry::Registry;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body, so that no other test
/// allocates while one counts.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `f`'s result, and the allocations and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

const RECORDS: u64 = 5_000;
const FILES: u64 = 50;
const PROBE: FileId = FileId(1_000);
const PROBE_RECORDS: u64 = 10;

#[test]
fn a_point_query_allocates_for_what_it_returns() {
    let _turn = take_turn();
    // ~50 files in rotation, every other record named from four
    // strings; every 500th record belongs to the probed file instead.
    let names = ["inbox", "inbox.lock", "sent-mail", ".pinerc"];
    let records: Vec<TraceRecord> = (0..RECORDS)
        .map(|i| {
            let fh = if i % (RECORDS / PROBE_RECORDS) == 7 {
                PROBE
            } else {
                FileId(i % FILES)
            };
            let r = TraceRecord::new(i * 250, Op::Read, fh).with_range(i * 8192, 8192);
            if i % 2 == 0 {
                r.with_name(names[(i / 2 % 4) as usize])
            } else {
                r
            }
        })
        .collect();

    let path = std::env::temp_dir().join(format!("nfstrace-query-alloc-{}", std::process::id()));
    let registry = Registry::new();
    let config = StoreConfig {
        target_chunk_bytes: 8 << 20,
    };
    let mut w = StoreWriter::create_with_registry(&path, config, &registry).expect("create");
    for r in &records {
        w.push(r).expect("push");
    }
    w.finish().expect("finish");

    let reader = StoreReader::open(&path).expect("open");
    assert_eq!(reader.chunk_count(), 1, "one chunk holds the whole trace");
    let stored = reader.chunks()[0].len;
    let raw = registry.counter("store.chunk_bytes_raw").value();
    assert!(stored < raw, "the chunk took the compressed form");

    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let answer = reader.records_for_file(PROBE).expect("query");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes;
    std::fs::remove_file(&path).ok();

    let expected: Vec<TraceRecord> = records.iter().filter(|r| r.fh == PROBE).cloned().collect();
    assert_eq!(expected.len() as u64, PROBE_RECORDS);
    assert_eq!(answer, expected);
    assert_eq!(reader.chunks_decoded(), 1);

    // A full materialisation makes one allocation per named record
    // (2 500 here) and a megabyte of `TraceRecord`s.
    assert!(
        allocations < 100,
        "{allocations} allocations for a {PROBE_RECORDS}-record answer"
    );
    assert!(
        bytes < 2 * (stored + raw),
        "{bytes} bytes allocated over a chunk of {stored} stored + {raw} raw bytes"
    );
}

/// The file [`many_chunk_store`] puts in every chunk.
const EVERYWHERE: FileId = FileId(2_000);
/// Records per [`many_chunk_store`] unit: 24 chunks or more.
const UNIT_RECORDS: u64 = 24_000;

/// A compressed store of `units` × [`UNIT_RECORDS`] records in chunks
/// of about a thousand: 50 files in rotation, every other record named
/// from four strings, and every 20th record — unnamed — of
/// [`EVERYWHERE`].
fn many_chunk_store(tag: &str, units: u64) -> (PathBuf, Vec<TraceRecord>, u64) {
    let names = ["inbox", "inbox.lock", "sent-mail", ".pinerc"];
    let records: Vec<TraceRecord> = (0..units * UNIT_RECORDS)
        .map(|i| {
            let r =
                TraceRecord::new(i * 250, Op::Read, FileId(i % FILES)).with_range(i * 8192, 8192);
            if i % 20 == 3 {
                TraceRecord::new(i * 250, Op::Write, EVERYWHERE).with_range(i * 512, 512)
            } else if i % 2 == 0 {
                r.with_name(names[(i / 2 % 4) as usize])
            } else {
                r
            }
        })
        .collect();
    let (path, raw, chunks) = write_store(tag, &records);
    assert!(chunks >= 24 * units, "{chunks} chunks");
    (path, records, raw)
}

/// Writes `records` as a compressed store of chunks of about a thousand
/// records under a fresh path named after `tag`; returns the path, the
/// raw payload bytes and the chunk count.
fn write_store(tag: &str, records: &[TraceRecord]) -> (PathBuf, u64, u64) {
    let path = std::env::temp_dir().join(format!("nfstrace-{tag}-alloc-{}", std::process::id()));
    let registry = Registry::new();
    let config = StoreConfig {
        target_chunk_bytes: 16 << 10,
    };
    let mut w = StoreWriter::create_with_registry(&path, config, &registry).expect("create");
    for r in records {
        w.push(r).expect("push");
    }
    let summary = w.finish().expect("finish");
    let raw = registry.counter("store.chunk_bytes_raw").value();
    assert!(
        summary.file_bytes < raw,
        "the chunks took the compressed form"
    );
    (path, raw, summary.chunks as u64)
}

fn remove(path: &Path) {
    std::fs::remove_file(path).ok();
}

/// A whole-store walk allocates for its chunk buffer and its one
/// record, a constant number of times: the same at twice the chunks
/// and records. Materializing every record, as a chunk decode into a
/// `Vec<TraceRecord>` does, costs two allocations a chunk and one per
/// named record.
#[test]
fn a_store_walk_allocates_a_constant_number_of_times() {
    let _turn = take_turn();
    let mut walks = Vec::new();
    for units in [1, 2] {
        let (path, records, _) = many_chunk_store("walk", units);
        let reader = StoreReader::open(&path).expect("open");
        let mut seen = Vec::with_capacity(records.len());
        let (walked, allocations, _) = counted(|| reader.for_each(|r| seen.push(r.micros)));
        walked.expect("walk");
        remove(&path);
        assert!(seen.iter().copied().eq(records.iter().map(|r| r.micros)));
        walks.push(allocations);
    }
    // Stored bytes, payload, a name table of four: each allocated and
    // grown once at most.
    assert!(
        walks.iter().all(|&a| a <= 16) && walks[0] == walks[1],
        "{walks:?} allocations for walks over {UNIT_RECORDS} and {} records",
        2 * UNIT_RECORDS
    );
}

/// The construction pass folds every record into its partial index
/// from one record refilled in place per worker: at 1 and 2 workers it
/// allocates for the index it builds — a 32-byte access a record, in
/// per-file lists that grow by doubling and are merged once across
/// workers: under 128 bytes a record in all — not for the 200 bytes a
/// record that materializing the chunks costs before any of that.
#[test]
fn the_construction_pass_builds_no_records() {
    let _turn = take_turn();
    let (path, records, _) = many_chunk_store("pass", 1);
    let reader = Arc::new(StoreReader::open(&path).expect("open"));
    for threads in [1, 2] {
        let (index, _, bytes) =
            counted(|| StoreIndex::from_readers_with_threads(vec![reader.clone()], threads));
        let index = index.expect("index");
        assert_eq!(TraceView::len(&index), records.len());
        assert!(
            bytes < 128 * records.len() as u64,
            "{bytes} bytes to index {} records at {threads} workers",
            records.len()
        );
    }
    remove(&path);
}

/// What a point query may ask the allocator for, in answers. A worker
/// finding `m0` records in the first chunk of its run and `m` in all
/// asks for under `4 m0` while doubling through that chunk, at most
/// `5 m0` for the reservation after it, and under `4 m` doubling past
/// that; `m0 ≤ m`, so under nine times its share of the answer, and the
/// answer once more when it is sized.
const ANSWERS_ASKED: u64 = 10;

/// A point query for a file in every chunk allocates its answer — one
/// vector per worker, reserved once after the first chunk of its run
/// and grown by doubling past that, then sized to the answer — and one
/// chunk buffer per worker: nothing a chunk. A part vector per
/// chunk adds at least one allocation a chunk, and fresh buffers per
/// decode seven (stored bytes, payload, a name table of four).
#[test]
fn a_point_query_over_every_chunk_allocates_its_answer_and_a_buffer_a_worker() {
    let _turn = take_turn();
    let (path, records, raw) = many_chunk_store("everywhere", 1);
    let reader = StoreReader::open(&path).expect("open");
    let chunks = reader.chunk_count() as u64;
    let stored: u64 = reader.chunks().iter().map(|m| m.len).sum();
    let workers = parallel::threads().min(reader.chunk_count()) as u64;
    let (answer, allocations, bytes) = counted(|| reader.records_for_file(EVERYWHERE));
    let answer = answer.expect("query");
    remove(&path);
    let expected: Vec<TraceRecord> = records
        .iter()
        .filter(|r| r.fh == EVERYWHERE)
        .cloned()
        .collect();
    assert_eq!(answer, expected);
    assert_eq!(reader.chunks_decoded(), chunks, "every chunk is admitted");

    // A buffer: stored bytes, payload and a name table of four, each
    // grown once at most, and its worker's spawn. The answer: a vector
    // per worker doubling through its first chunk, reserved once and
    // doubling again up to its run, then sized once.
    let per_buffer = 16;
    let growth = 2 * u64::from(usize::BITS - answer.len().leading_zeros());
    assert!(
        allocations <= (workers + 1) * per_buffer + growth,
        "{allocations} allocations for a {}-record answer over {chunks} chunks at {workers} \
         workers",
        answer.len()
    );
    // Bytes: the answer's growth and its final size, and a buffer per
    // worker that may double once past an average chunk.
    let answer_bytes = (answer.len() * std::mem::size_of::<TraceRecord>()) as u64;
    let buffer_bytes = 2 * (stored + raw) / chunks;
    assert!(
        bytes <= ANSWERS_ASKED * answer_bytes + (workers + 1) * buffer_bytes,
        "{bytes} bytes for a {answer_bytes}-byte answer over {chunks} chunks of {stored} \
         stored + {raw} raw bytes at {workers} workers"
    );
}

/// A point query for a file that fills the first chunks and appears
/// once in each later one — a bulk copy, then a touch now and then —
/// allocates about its answer, however many later chunks each worker's
/// run holds: its vector grows with what it has found, not with a guess
/// from the first chunk of the run at what the rest will hold.
#[test]
fn a_point_query_dense_in_its_first_chunk_allocates_about_its_answer() {
    let _turn = take_turn();
    const SKEWED: FileId = FileId(3_000);
    const DENSE: u64 = 1_000;
    let records: Vec<TraceRecord> = (0..2 * UNIT_RECORDS)
        .map(|i| {
            let fh = if i < DENSE || i % 250 == 125 {
                SKEWED
            } else {
                FileId(i % FILES)
            };
            TraceRecord::new(i * 250, Op::Read, fh).with_range(i * 8192, 8192)
        })
        .collect();
    let (path, raw, chunks) = write_store("skewed", &records);
    assert!(chunks >= 48, "{chunks} chunks");
    let reader = StoreReader::open(&path).expect("open");
    let stored: u64 = reader.chunks().iter().map(|m| m.len).sum();
    let workers = parallel::threads().min(reader.chunk_count()) as u64;
    let (answer, _, bytes) = counted(|| reader.records_for_file(SKEWED));
    let answer = answer.expect("query");
    remove(&path);
    let expected: Vec<TraceRecord> = records.iter().filter(|r| r.fh == SKEWED).cloned().collect();
    assert_eq!(answer, expected);
    assert_eq!(reader.chunks_decoded(), chunks, "every chunk is admitted");

    // As in the query over every chunk: the answer's growth and its
    // final size, and a buffer per worker. Reserving, after the first
    // chunk, as many matches for each later chunk of the run with no
    // cap asks for about 24 answers at two workers and 43 at one.
    let answer_bytes = (answer.len() * std::mem::size_of::<TraceRecord>()) as u64;
    let buffer_bytes = 2 * (stored + raw) / chunks;
    assert!(
        bytes <= ANSWERS_ASKED * answer_bytes + (workers + 1) * buffer_bytes,
        "{bytes} bytes for a {answer_bytes}-byte answer over {chunks} chunks at {workers} workers"
    );
}
