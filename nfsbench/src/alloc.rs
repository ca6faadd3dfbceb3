//! A counting `#[global_allocator]` that counts only while switched on.
//!
//! Every run's warm-up pass is its *counted pass*: the counters run
//! for that pass alone and its timings are discarded, so the timed
//! passes pay one relaxed load per allocation and nothing else. What
//! is counted: calls (`alloc`, `alloc_zeroed` and `realloc` each count
//! one), bytes requested, and the peak of live bytes — bytes allocated
//! minus bytes freed *since counting began*, so the corpus the harness
//! holds in memory is not part of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};

pub struct CountingAlloc;

const OFF: u8 = 0;
/// Count every thread: the workloads, whose worker threads belong to
/// the pass being counted.
const ALL_THREADS: u8 = 1;
/// Count only threads that called [`count_this_thread`]: tests, which
/// share the process with other tests' allocations.
#[cfg(test)]
const MARKED_THREADS: u8 = 2;

// Statistics only: nothing is published through these, so `Relaxed`.
static MODE: AtomicU8 = AtomicU8::new(OFF);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor can observe teardown.
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    match MODE.load(Ordering::Relaxed) {
        OFF => false,
        ALL_THREADS => true,
        _ => MARKED.try_with(Cell::get).unwrap_or(false),
    }
}

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counters never
// touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grew(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one counted window saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

fn start(mode: u8) {
    MODE.store(OFF, Ordering::Relaxed);
    for c in [&ALLOCS, &BYTES] {
        c.store(0, Ordering::Relaxed);
    }
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    MODE.store(mode, Ordering::Relaxed);
}

/// Zeroes the counters and counts every thread until [`stop`].
pub fn count_all_threads() {
    start(ALL_THREADS);
}

/// The counters are one per process: a test that switches them on —
/// directly or through a run — holds this while it does.
#[cfg(test)]
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Zeroes the counters and counts this thread alone until [`stop`].
#[cfg(test)]
pub fn count_this_thread() {
    MARKED.with(|m| m.set(true));
    start(MARKED_THREADS);
}

/// Stops counting and returns the window's counts.
pub fn stop() -> AllocCounts {
    MODE.store(OFF, Ordering::Relaxed);
    MARKED.with(|m| m.set(false));
    AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, System as Sys};
    use nfstrace_core::record::Op;
    use nfstrace_sniffer::Sniffer;

    #[test]
    fn counts_calls_bytes_and_the_live_peak() {
        let _guard = exclusive();
        count_this_thread();
        let a = vec![0u8; 1 << 20];
        drop(a);
        let mut b: Vec<u8> = Vec::with_capacity(1 << 10);
        b.reserve_exact(1 << 12);
        let counts = stop();
        drop(b);
        assert_eq!(counts.allocs, 3, "vec, with_capacity, one realloc");
        assert_eq!(counts.bytes, (1 << 20) + (1 << 10) + (1 << 12));
        assert_eq!(counts.peak_live_bytes, 1 << 20);
        let _uncounted: Vec<u8> = Vec::with_capacity(64);
        assert_eq!(stop().allocs, 3, "off means off");
    }

    /// The contract `crates/sniffer/tests/alloc_budget.rs` pins on
    /// hand-built frames, re-measured with this allocator on the
    /// benchmark's own capture-eecs packets: once a first pass has sized
    /// the sniffer's tables, observing the name-free operations (READ,
    /// WRITE, GETATTR, ACCESS, COMMIT — the bulk of a trace) performs no
    /// heap allocation inside the sniffer.
    #[test]
    fn steady_state_capture_of_name_free_ops_allocates_nothing_in_the_sniffer() {
        let _guard = exclusive();
        let records: Vec<_> = corpus::first_records(Sys::Eecs, 0.5, 5, 4_000)
            .into_iter()
            .filter(|r| {
                matches!(
                    r.op,
                    Op::Read | Op::Write | Op::Getattr | Op::Access | Op::Commit
                )
            })
            .collect();
        assert!(records.len() > 1_000);
        // The same traffic twice, the second time one trace-week later,
        // through one encoder: the TCP streams carry on where the first
        // pass left them (replayed sequence numbers would be dropped as
        // retransmissions and the second pass would measure nothing).
        let week_later = records.iter().map(|r| {
            let shift = 7 * nfstrace_core::time::DAY;
            nfstrace_core::record::TraceRecord {
                micros: r.micros + shift,
                reply_micros: r.reply_micros + shift,
                ..r.clone()
            }
        });
        let first_pass_packets = corpus::encode_packets(&records).len();
        let twice: Vec<_> = records.iter().cloned().chain(week_later).collect();
        let packets = corpus::encode_packets(&twice);
        let (warm_up, steady) = packets.split_at(first_pass_packets);

        let mut sniffer = Sniffer::new();
        let mut out = Vec::new();
        sniffer.observe_batch(warm_up);
        sniffer.drain_ready_into(&mut out);
        assert!(
            out.len() + 1 >= records.len(),
            "all but a watermark tie drain"
        );
        out.clear();

        count_this_thread();
        for p in steady {
            sniffer.observe_frame(p.timestamp_micros, &p.data);
        }
        let counts = stop();
        assert_eq!(
            counts.allocs,
            0,
            "steady-state capture allocated {} times over {} records",
            counts.allocs,
            records.len()
        );
        sniffer.drain_ready_into(&mut out);
        assert!(
            out.len() + 1 >= records.len(),
            "the second pass was captured too"
        );
        assert_eq!(sniffer.stats().rpc_messages, 4 * records.len() as u64);
        assert_eq!(sniffer.stats().decode_errors, 0);
    }
}
