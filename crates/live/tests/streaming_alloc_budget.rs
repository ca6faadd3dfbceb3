//! Allocation budget for the whole streaming capture path.
//!
//! `crates/sniffer/tests/alloc_budget.rs` holds `Sniffer::observe_frame`
//! to zero allocations on frames already in memory. This test holds the
//! path in front of it and around it to the same standard: a pcap file
//! read through [`PcapReader::packets`] into a [`SnifferSource`], TCP at
//! a standard MSS so that the large READs and WRITEs span segments. The
//! file holds the same session twice; once the first copy has sized
//! every buffer (the reader's lent frame, the per-flow stream buffers
//! and record scratch, the xid table, the record vectors), the second
//! may allocate only what a record owns — its name strings — plus the
//! scratch a stable sort takes per drain.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use nfstrace_client::{ClientConfig, ClientMachine};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::NfsServer;
use nfstrace_live::{RecordSource, SnifferSource};
use nfstrace_net::pcap::{PcapHeader, PcapReader, PcapWriter};
use nfstrace_sniffer::WireEncoder;

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

const PACKETS_PER_BATCH: usize = 128;
const ROUNDS: usize = 24;

/// One copy of the session: `ROUNDS` mailboxes created, written,
/// read back and removed over one connection. Returns the time it ends.
fn session(client: &mut ClientMachine, server: &mut NfsServer, mut t: u64) -> u64 {
    let root = server.root_fh();
    for round in 0..ROUNDS {
        let name = format!("mbox-{round}");
        let (fh, created) = client.create(server, t, &root, &name);
        let fh = fh.expect("create succeeds");
        t = client.write(server, created, &fh, 0, 150_000);
        t = client.read_file(server, t + 1_000_000, &fh);
        t = client.remove(server, t, &root, &name) + 1_000_000;
    }
    t
}

#[test]
fn second_pass_over_a_pcap_allocates_only_name_strings() {
    // The capture file: the session, then the session again.
    let mut server = NfsServer::new(0x0a00_0002);
    let mut client = ClientMachine::new(ClientConfig {
        nfsiods: 1,
        ..ClientConfig::default()
    });
    let t = session(&mut client, &mut server, 0);
    let first_copy = client.take_events();
    session(&mut client, &mut server, t);
    let second_copy = client.take_events();
    assert_eq!(first_copy.len(), second_copy.len());

    let mut enc = WireEncoder::tcp_standard();
    let mut file = Vec::new();
    let (mut first_packets, mut packets) = (0, 0);
    {
        let mut w = PcapWriter::new(&mut file, PcapHeader::default()).unwrap();
        for (i, e) in first_copy.iter().chain(&second_copy).enumerate() {
            if i == first_copy.len() {
                first_packets = packets;
            }
            for p in enc.encode_event(e) {
                w.write_packet(&p).unwrap();
                packets += 1;
            }
        }
    }
    drop((first_copy, second_copy, enc, client, server));

    // Stream it, one packet alive at a time, counting what has been
    // read so that the second copy's batches can be told apart.
    let read = Cell::new(0usize);
    let feed = PcapReader::new(&file[..])
        .unwrap()
        .packets()
        .map_while(Result::ok)
        .inspect(|_| read.set(read.get() + 1));
    let mut source = SnifferSource::new(feed, PACKETS_PER_BATCH);
    let mut batch: Vec<TraceRecord> = Vec::new();
    let mut names = 0u64; // name strings of the second pass's records
    let mut records = 0usize;
    let (mut allocated, mut drains) = (0u64, 0u64);
    loop {
        let second_pass = read.get() >= first_packets && read.get() < packets;
        batch.clear();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let more = source.next_batch(&mut batch);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        if second_pass {
            allocated += after - before;
            drains += 1;
            records += batch.len();
            for r in &batch {
                names += u64::from(r.name.is_some()) + u64::from(r.name2.is_some());
            }
        }
        if !more {
            break;
        }
    }
    let stats = source.stats().expect("the feed ran out");
    assert_eq!(stats.frames, packets as u64);
    assert_eq!((stats.decode_errors, stats.orphan_replies), (0, 0));
    assert!(stats.alloc_fallbacks > 0, "150 KB bodies span segments");
    assert!(
        names >= 2 * ROUNDS as u64 - 2,
        "a create and a remove a round"
    );
    assert!(
        records as u64 > 4 * (drains + 2),
        "{records} records in {drains} batches: one stray allocation per record must not fit \
         in the per-batch allowance"
    );

    // A call observed in the last batch of the first pass may pair in
    // the second (its name was allocated before the window, counted
    // inside it), and the reverse at the far end: one call in flight
    // at a time, two names at most.
    let budget = names + drains + 2;
    assert!(
        allocated <= budget,
        "second pass: {allocated} allocations over {records} records in {drains} batches, \
         {names} name strings among them (budget {budget})"
    );
}
