//! The hot segment is held once.
//!
//! A record pushed into a live ingest is encoded into the hot writer's
//! pending chunk and dropped, so the ingest's live heap grows by the
//! encoding's few dozen bytes a record — not by a decoded `TraceRecord`
//! kept beside it. A view takes the hot segment as the writer holds it,
//! encoded, so taking one decodes nothing and the pushes after it copy
//! nothing.
//!
//! The records are nameless metadata calls (GETATTR on a few handles,
//! a few microseconds apart), so the running index grows by no
//! per-record list: what the heap gains is the hot segment's. One test
//! per binary, so no other test allocates while it measures.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::sink::RecordSink;
use nfstrace_live::{LiveConfig, LiveIngest};

/// Counts the bytes live on the heap, and — while armed — the largest
/// single allocation or reallocation.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Records ingested before the heap is first read: the ingest's
/// buffers, the running index's maps and the hourly buckets are sized.
const WARM: u64 = 2_000;
/// Records in the hot segment when the view is taken.
const HOT: u64 = 20_000;
/// Records pushed behind the view.
const AFTER: u64 = 1_000;
/// The most live heap a hot record may add: its encoding and the
/// writer's buffer slack, never a decoded record (`TraceRecord` is
/// about 200 bytes).
const MAX_BYTES_PER_RECORD: i64 = 64;

fn record(i: u64) -> TraceRecord {
    TraceRecord::new(10 * i, Op::Getattr, FileId(i % 8)).with_client((i % 4) as u32)
}

#[test]
fn the_hot_segment_is_held_once_and_a_view_copies_none_of_it() {
    let dir = std::env::temp_dir().join(format!("nfstrace-live-resident-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // No rotation: every record stays in the one hot segment.
    let mut ingest = LiveIngest::create(LiveConfig {
        rotate_records: 1_000_000,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(&dir)
    })
    .expect("create");
    for i in 0..WARM {
        ingest.push_record(record(i)).expect("ingest");
    }
    let before = LIVE.load(Ordering::Relaxed);
    for i in WARM..HOT {
        ingest.push_record(record(i)).expect("ingest");
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    let per_record = grown / (HOT - WARM) as i64;
    assert!(
        per_record <= MAX_BYTES_PER_RECORD,
        "the heap grew {per_record} B a hot record ({grown} B over {} records; \
         a TraceRecord is {} B)",
        HOT - WARM,
        std::mem::size_of::<TraceRecord>()
    );
    assert_eq!(ingest.hot_len() as u64, HOT);

    // Decoding the hot segment, or copying it decoded, is one
    // allocation of about HOT records.
    let decoded = HOT as usize * std::mem::size_of::<TraceRecord>();
    ARMED.store(true, Ordering::Relaxed);
    let view = ingest.view();
    for i in HOT..HOT + AFTER {
        ingest.push_record(record(i)).expect("ingest");
    }
    ARMED.store(false, Ordering::Relaxed);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < decoded / 4,
        "the view and the pushes behind it allocated {largest} B at once; \
         the hot segment decoded is {decoded} B"
    );

    // The view still reads exactly what it was taken over.
    let expect: Vec<TraceRecord> = (0..HOT).map(record).collect();
    let mut hot = Vec::new();
    let segment = view.readers().last().expect("a hot segment");
    segment
        .for_each(|r| hot.push(r.clone()))
        .expect("the hot segment reads back");
    assert_eq!(hot, expect);
    drop(view);
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}
