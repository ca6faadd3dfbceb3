//! Allocation budget for a fused replay's namespace.
//!
//! A fused replay learns the trace's (directory, name) → file map once,
//! in one `Hierarchy`, and hands every analyzer what each record did to
//! it. A LOOKUP of a name already bound re-binds it in place: no key is
//! built, and no analyzer keeps a copy of the name. This test holds a
//! replay of the five weekday lifetime windows and name prediction to
//! that: what it allocates follows the distinct names of the trace, not
//! its records. One cloned name per analyzer per LOOKUP would be six
//! allocations a record (120 000 here).
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_core::index::{ReplayRequest, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::time::DAY;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 20_000;
const DIRECTORIES: u64 = 4;
const NAMES: [&str; 16] = [
    "inbox",
    "inbox.lock",
    "sent-mail",
    ".pinerc",
    "mbox",
    "received",
    ".cshrc",
    "snd.1",
    "pico.2",
    "Applet_1_Extern",
    "cache00001",
    "main.c",
    "main.o",
    "server.log",
    "#draft#",
    "main.c,v",
];

#[test]
fn a_fused_replay_allocates_for_its_names_not_its_records() {
    // LOOKUPs spread over eight days, through every weekday window: each
    // of the 16 names in each of the 4 directories, bound to one file.
    let entries = DIRECTORIES * NAMES.len() as u64;
    let records: Vec<TraceRecord> = (0..RECORDS)
        .map(|i| {
            let entry = i % entries;
            let dir = entry / NAMES.len() as u64;
            let mut r = TraceRecord::new(i * (8 * DAY / RECORDS), Op::Lookup, FileId(dir))
                .with_name(NAMES[(entry % NAMES.len() as u64) as usize]);
            r.new_fh = Some(FileId(1_000 + entry));
            r
        })
        .collect();
    let idx = TraceIndex::new(records);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    idx.prepare(&[ReplayRequest::WeekdayLifetime, ReplayRequest::Names]);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(idx.decode_passes(), 1);
    assert_eq!(idx.names().renames, 0);
    // One key per entry and the maps that hold them, plus the replay's
    // fixed cost — six analyzers, their reports and caches (93 on this
    // trace). A copy of each entry's name in any analyzer goes through
    // this bound; a copy per record, far through it.
    assert!(
        allocations < entries + 64,
        "{allocations} allocations replaying {RECORDS} LOOKUPs of {entries} entries"
    );
}
