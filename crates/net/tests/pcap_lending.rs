//! The pcap reader's lent frame buffer, from the outside.
//!
//! A packet the caller keeps must keep its bytes however many packets
//! are read after it, and a packet the caller drops must make the next
//! read free: no allocation at all, which a counting [`GlobalAlloc`]
//! wrapper observes directly (one test in this file, so nothing else
//! allocates inside the measured windows).
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_net::pcap::{CapturedPacket, PcapHeader, PcapReader, PcapWriter};

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The bytes packet `i` of the test file carries: a length and a fill
/// that both depend on `i`, the longest frame first so that the lent
/// buffer never has to grow after the first read.
fn frame(i: usize) -> Vec<u8> {
    vec![i as u8; 1500 - (i * 37) % 1400]
}

#[test]
fn kept_packets_keep_their_bytes_and_dropped_ones_cost_nothing() {
    const PACKETS: usize = 200;
    let mut file = Vec::new();
    {
        let mut w = PcapWriter::new(&mut file, PcapHeader::default()).unwrap();
        for i in 0..PACKETS {
            w.write_packet(&CapturedPacket::new(i as u64, frame(i)))
                .unwrap();
        }
    }

    // Streaming: every packet dropped before the next read. After the
    // first read has sized the buffer, nothing allocates.
    let mut r = PcapReader::new(&file[..]).unwrap();
    let first = r.read_packet().unwrap().unwrap();
    assert_eq!(first.data, frame(0));
    drop(first);
    let before = allocations();
    for i in 1..PACKETS {
        let p = r.read_packet().unwrap().unwrap();
        assert!(p.data.iter().all(|&b| b == i as u8));
        assert_eq!(p.data.len(), 1500 - (i * 37) % 1400);
    }
    assert!(r.read_packet().unwrap().is_none());
    assert_eq!(
        allocations() - before,
        0,
        "reading dropped packets allocated"
    );

    // Retaining: every third packet kept, across every later read.
    let mut r = PcapReader::new(&file[..]).unwrap();
    let mut kept: Vec<(usize, CapturedPacket)> = Vec::with_capacity(PACKETS);
    for i in 0..PACKETS {
        let p = r.read_packet().unwrap().unwrap();
        if i % 3 == 0 {
            kept.push((i, p));
        }
        for (j, k) in &kept {
            assert_eq!(k.timestamp_micros, *j as u64);
        }
    }
    for (i, p) in &kept {
        assert_eq!(p.data, frame(*i), "packet {i} changed under its holder");
    }

    // Letting go of everything returns the reader to the free path:
    // the iterator form, one packet alive at a time.
    drop(kept);
    let r = PcapReader::new(&file[..]).unwrap();
    let mut packets = r.packets();
    drop(packets.next());
    let before = allocations();
    let mut seen = 1;
    for p in &mut packets {
        assert_eq!(p.unwrap().timestamp_micros, seen as u64);
        seen += 1;
    }
    assert_eq!(seen, PACKETS);
    assert_eq!(allocations() - before, 0, "the iterator form allocated");
}
