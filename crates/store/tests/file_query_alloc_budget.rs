//! Allocation budget for a point query whose answer spans chunks.
//!
//! `StoreIndex::file_records` decodes its admitted chunks on the
//! `NFSTRACE_THREADS` workers, each building only the probed file's
//! records, then moves the per-chunk parts into one exactly sized
//! answer. This test holds it to that: over five compressed chunks of
//! 4 096 records in which the probed file owns every other record, the
//! query may allocate for the chunks' bytes (stored and decompressed),
//! their name tables, the per-chunk parts (which grow by doubling: 2 048
//! matches per chunk makes that twice the answer) and the answer once —
//! and for nothing that grows with the records it walks past. Copying
//! the answer a second time, or growing it instead of sizing it, goes
//! through the budget. The allocation counter is process-global, so
//! this is the binary's only test.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::{StoreConfig, StoreIndex, StoreWriter};
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

const CHUNKS: u64 = 5;
const CHUNK_RECORDS: u64 = 4_096;
const PROBE: FileId = FileId(100);

#[test]
fn a_multi_chunk_point_query_allocates_for_what_it_returns_once() {
    // Even records are the probed file's (15 bytes encoded), odd ones
    // rotate over 50 files and four names (16 bytes): a chunk target of
    // 2 048 × 31 bytes plus the name table's 43 closes every chunk at
    // exactly 4 096 records.
    let names = ["inbox", "inbox.lock", "sent-mail", ".pinerc"];
    let records: Vec<TraceRecord> = (0..CHUNKS * CHUNK_RECORDS)
        .map(|i| {
            if i % 2 == 0 {
                TraceRecord::new(i * 100, Op::Read, PROBE)
            } else {
                TraceRecord::new(i * 100, Op::Read, FileId(i % 50))
                    .with_name(names[(i / 2 % 4) as usize])
            }
        })
        .collect();

    let path =
        std::env::temp_dir().join(format!("nfstrace-file-query-alloc-{}", std::process::id()));
    let registry = Registry::new();
    let config = StoreConfig {
        target_chunk_bytes: (CHUNK_RECORDS / 2 * 31 + 43) as usize,
    };
    let mut w = StoreWriter::create_with_registry(&path, config, &registry).expect("create");
    for r in &records {
        w.push(r).expect("push");
    }
    w.finish().expect("finish");

    let index = StoreIndex::open_with_registry(&path, &registry).expect("open");
    let chunks = index.reader().chunks();
    assert_eq!(chunks.len() as u64, CHUNKS);
    assert!(
        chunks.iter().all(|m| m.records == CHUNK_RECORDS),
        "every chunk closes at {CHUNK_RECORDS} records"
    );
    let stored: u64 = chunks.iter().map(|m| m.len).sum();
    let raw = registry.counter("store.chunk_bytes_raw").value();
    assert!(stored < raw, "the chunks took the compressed form");

    let decoded = index.chunks_decoded();
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let answer = index.file_records(PROBE).expect("query");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes;
    std::fs::remove_file(&path).ok();

    let expected: Vec<TraceRecord> = records.iter().filter(|r| r.fh == PROBE).cloned().collect();
    assert_eq!(answer.len() as u64, CHUNKS * CHUNK_RECORDS / 2);
    assert_eq!(answer, expected);
    assert_eq!(
        index.chunks_decoded() - decoded,
        CHUNKS,
        "every chunk is admitted"
    );

    // The probed file's records carry no name: the answer is its slots.
    let answer_bytes = (answer.len() * std::mem::size_of::<TraceRecord>()) as u64;
    assert!(
        bytes <= stored + raw + 3 * answer_bytes,
        "{bytes} bytes allocated for a {answer_bytes}-byte answer over chunks of \
         {stored} stored + {raw} raw bytes"
    );
    // Per chunk: its two buffers, its name table and a part that
    // doubles a dozen times; per worker, a spawn. Building the 10 240
    // named records walked past would add one allocation each.
    assert!(
        allocations <= 32 * CHUNKS,
        "{allocations} allocations for a {CHUNKS}-chunk query"
    );
}
