//! Generating a trace into a sink holds one slice of records, not the
//! trace.
//!
//! `generate_into` streams into any `RecordSink`; a sink that drops
//! every record leaves the generator's own state as the only heap. That
//! state is each user's resident simulation plus one slice of records,
//! so quadrupling the simulated days must leave the peak where it was.
//! A driver that simulates every user's whole trace before merging
//! peaks in proportion to the trace instead.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::{into_ok, RecordSink};
use nfstrace_core::time::DAY;
use nfstrace_workload::{CampusConfig, CampusWorkload, EecsConfig, EecsWorkload};

/// Tallies the bytes currently allocated and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is `System`'s; the tallies only
// read sizes from the layouts.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `alloc`; `ptr` came from this allocator, which
        // is `System`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The tallies are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// Counts the records it is handed and drops them.
#[derive(Default)]
struct Discard(u64);

impl RecordSink for Discard {
    type Err = std::convert::Infallible;

    fn push_record(&mut self, _record: TraceRecord) -> Result<(), Self::Err> {
        self.0 += 1;
        Ok(())
    }
}

/// Runs `generate` into a [`Discard`] sink three times; returns the
/// records it produced and the lowest heap it peaked at above where it
/// started, in MiB.
///
/// The two workers' transient buffers (one simulated event's calls,
/// data included) overlap differently from run to run; the lowest of a
/// few peaks leaves the part that depends on what is resident.
fn peak_mib(generate: impl Fn(&mut Discard)) -> (u64, f64) {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = (0..3).map(|_| {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let mut sink = Discard::default();
        generate(&mut sink);
        (sink.0, PEAK.load(Ordering::Relaxed) - base)
    });
    let (records, first) = runs.next().expect("three runs");
    let lowest = runs.fold(first, |low, (again, peak)| {
        assert_eq!(again, records, "generation is deterministic");
        low.min(peak)
    });
    (records, lowest as f64 / (1 << 20) as f64)
}

fn assert_flat(system: &str, short: (u64, f64), long: (u64, f64)) {
    let ((short_records, short_mib), (long_records, long_mib)) = (short, long);
    eprintln!(
        "{system}: 2 days {short_records} records, peak {short_mib:.1} MiB; \
         8 days {long_records} records, peak {long_mib:.1} MiB"
    );
    assert!(
        long_records > 3 * short_records,
        "{system}: 8 days gave {long_records} records against {short_records} for 2"
    );
    assert!(
        long_mib <= 1.25 * short_mib,
        "{system}: peak heap grew from {short_mib:.1} MiB (2 days) to {long_mib:.1} MiB (8 days)"
    );
}

#[test]
fn campus_generation_heap_does_not_grow_with_the_trace() {
    let run = |days: u64| {
        let workload = CampusWorkload::new(CampusConfig {
            users: 4,
            duration_micros: days * DAY,
            ..CampusConfig::default()
        });
        peak_mib(|sink| into_ok(workload.generate_into(2, sink)))
    };
    assert_flat("CAMPUS", run(2), run(8));
}

#[test]
fn eecs_generation_heap_does_not_grow_with_the_trace() {
    let run = |days: u64| {
        let workload = EecsWorkload::new(EecsConfig {
            users: 3,
            duration_micros: days * DAY,
            ..EecsConfig::default()
        });
        peak_mib(|sink| into_ok(workload.generate_into(2, sink)))
    };
    assert_flat("EECS", run(2), run(8));
}
