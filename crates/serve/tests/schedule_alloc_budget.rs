//! Allocation budget for answering a replay from its plan.
//!
//! A `ReplayService` keeps its reply schedule as call ordinals over the
//! plan — one list and one map — so building it takes the same handful
//! of allocations for 1 000 calls as for 2 000, and a few bytes per
//! call against the kilobytes each READ reply carries.
//! `ReplayService::borrowing` reads every reply in place from the plan;
//! `ReplayService::new` copies them all into one buffer, still a
//! constant number of allocations. `serve_roundtrip` serves from a
//! borrowed plan, so over a plan of 8 KiB replies its live heap never
//! comes near the plan's reply bytes: a schedule holding its own copy
//! would put all of them on the heap a second time. The allocation
//! counter is process-global, so this is the binary's only test.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_serve::{serve_roundtrip, ReplayOptions, ReplayPlan, ReplayService};
use nfstrace_telemetry::Registry;

struct CountingAlloc;

/// Allocations made, bytes asked for, bytes live now, and the most
/// bytes live at once since `PEAK` was last reset to `LIVE`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CALLS: usize = 2_000;
const REPLY_DATA: u32 = 8 << 10;
const SERVER_IP: u32 = 0x0a00_0001;

/// Call `i`: an 8 KiB READ from one of four clients. Each client reuses
/// its XIDs every 400 calls, far outside any in-flight window, and
/// every 50th reply was lost.
fn read(i: usize) -> TraceRecord {
    let mut r = TraceRecord::new(1_000 * i as u64, Op::Read, FileId(2 + (i % 16) as u64));
    r.client = 0x0a00_0010 + (i % 4) as u32;
    r.server = SERVER_IP;
    r.xid = 1 + ((i / 4) % 400) as u32;
    r.offset = u64::from(REPLY_DATA) * (i / 16) as u64;
    r.count = REPLY_DATA;
    r.ret_count = REPLY_DATA;
    r.post_size = Some(1 << 30);
    r.ftype = Some(1);
    if i % 50 == 49 {
        r.status = u32::MAX;
    } else {
        r.reply_micros = r.micros + 400;
    }
    r
}

/// The allocations and bytes `f` asks for, and what it returns: drop
/// that after the count.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (calls, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED.load(Ordering::Relaxed),
    );
    let out = f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - calls,
        ALLOCATED.load(Ordering::Relaxed) - bytes,
        out,
    )
}

#[test]
fn replies_are_served_from_the_plan_not_a_copy_of_it() {
    let records: Vec<TraceRecord> = (0..CALLS).map(read).collect();
    let half = ReplayPlan::from_records(&records[..CALLS / 2]);
    let plan = ReplayPlan::from_records(&records);
    let reply_bytes: usize = plan
        .calls
        .iter()
        .filter_map(|c| c.reply_bytes.as_ref())
        .map(Vec::len)
        .sum();
    assert!(reply_bytes > CALLS * REPLY_DATA as usize * 9 / 10);

    // The borrowing schedule: as many allocations for 1 000 calls as
    // for 2 000, and under 1 % of the reply bytes.
    let (half_allocs, _, service) = counted(|| ReplayService::borrowing(&half, SERVER_IP));
    drop(service);
    let (allocs, bytes, service) = counted(|| ReplayService::borrowing(&plan, SERVER_IP));
    drop(service);
    assert_eq!(
        allocs, half_allocs,
        "borrowing: {allocs} allocations for {CALLS} calls, {half_allocs} for half"
    );
    assert!(
        bytes * 100 < reply_bytes as u64,
        "borrowing: {bytes} bytes allocated beside {reply_bytes} reply bytes"
    );

    // The owning copy: one buffer, whatever the call count.
    let (half_allocs, _, service) = counted(|| ReplayService::new(&half, SERVER_IP));
    drop(service);
    let (allocs, _, service) = counted(|| ReplayService::new(&plan, SERVER_IP));
    drop(service);
    assert_eq!(
        allocs, half_allocs,
        "owning: {allocs} allocations for {CALLS} calls, {half_allocs} for half"
    );

    // The roundtrip's live heap stays far below the reply bytes.
    let dir = std::env::temp_dir().join(format!("nfstrace-schedule-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let outcome = serve_roundtrip(&plan, &ReplayOptions::default(), &Registry::new(), &dir)
        .expect("roundtrip");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(outcome.unplanned_calls, 0);
    assert_eq!(outcome.replay.retransmits, 0);
    assert_eq!(outcome.replay.calls_sent, CALLS as u64);
    assert!(
        peak * 4 < reply_bytes as u64,
        "serve_roundtrip peaked {peak} live bytes over a plan of {reply_bytes} reply bytes"
    );
}
