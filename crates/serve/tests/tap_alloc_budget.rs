//! Allocation budget for framing a tap.
//!
//! `tap_frames` writes every frame of a tap into one lent buffer, so a
//! consumer that observes each packet and drops it — the sniffer in
//! `serve_roundtrip` — frames the whole tap for a constant number of
//! allocations: the `(idx, dir)`-ordered event list and its sort
//! scratch, the lender and the growth of its one buffer, and the
//! encoder's flow table. This test frames a tap of 1 200 messages (1 320
//! frames: every tenth message is longer than a segment) and holds that
//! to at most 24 allocations (14 as written), where one allocation per
//! frame would be 1 320. `tap_to_packets`, which keeps every packet,
//! still pays one per frame, plus the growth of the list it collects.
//! The allocation counter is process-global, so this is the binary's
//! only test.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_serve::{tap_frames, tap_to_packets, TapEvent};
use nfstrace_sniffer::wire::Direction;

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

const CALLS: usize = 600;
/// Allocations `tap_frames` may make for the whole tap.
const LENT_BUDGET: u64 = 24;

/// Message `dir` of call `idx`; six clients share one server.
fn event(idx: usize, dir: Direction, bytes: &[u8]) -> TapEvent<'_> {
    TapEvent {
        idx,
        dir,
        micros: 1_000 * idx as u64 + u64::from(dir == Direction::Reply),
        client_ip: 0x0a00_0010 + (idx % 6) as u32,
        server_ip: 0x0a00_0001,
        bytes: Cow::Borrowed(bytes),
    }
}

#[test]
fn lent_tap_frames_allocate_a_constant_tap_to_packets_one_per_frame() {
    // Every fifth reply spans two jumbo segments, the rest fit one.
    let messages: Vec<(Vec<u8>, Vec<u8>)> = (0..CALLS)
        .map(|i| {
            let reply_len = if i % 5 == 0 { 12_000 } else { 100 + i % 700 };
            (vec![i as u8; 120 + i % 40], vec![!(i as u8); reply_len])
        })
        .collect();
    let tap: Vec<TapEvent> = messages
        .iter()
        .enumerate()
        // Out of order, as per-connection observation leaves it.
        .flat_map(|(idx, (call, reply))| {
            [
                event(idx, Direction::Reply, reply),
                event(idx, Direction::Call, call),
            ]
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut frames = 0usize;
    let mut bytes = 0usize;
    for p in tap_frames(&tap) {
        frames += 1;
        bytes += std::hint::black_box(p.data.len());
    }
    let lent = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let packets = tap_to_packets(&tap);
    let owned = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(frames, 2 * CALLS + CALLS / 5);
    assert_eq!(packets.len(), frames);
    assert_eq!(packets.iter().map(|p| p.data.len()).sum::<usize>(), bytes);
    assert!(
        lent <= LENT_BUDGET,
        "{lent} allocations to frame {frames} lent frames"
    );
    assert!(
        owned >= frames as u64 && owned <= frames as u64 + 2 * LENT_BUDGET,
        "{owned} allocations to collect {frames} frames"
    );
}
