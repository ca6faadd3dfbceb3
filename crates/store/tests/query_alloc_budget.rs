//! Allocation budget for a point query.
//!
//! `StoreReader::records_for_file` parses and checks every record of a
//! chunk its footer filter admits, but builds a `TraceRecord` — 200
//! bytes, plus a cloned `String` per name — only for the records of the
//! file asked for. This test holds it to that: over one compressed
//! chunk of 5 000 records in which the probed file owns ten, the query
//! may allocate for the chunk's bytes (stored and decompressed), its
//! name table and its answer, and for nothing that grows with the
//! records it walks past.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::{StoreConfig, StoreReader, StoreWriter};
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

const RECORDS: u64 = 5_000;
const FILES: u64 = 50;
const PROBE: FileId = FileId(1_000);
const PROBE_RECORDS: u64 = 10;

#[test]
fn a_point_query_allocates_for_what_it_returns() {
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
