//! Time-sliced generation: the one driver of both simulated workloads.
//!
//! Every user's simulation (its filesystem replica, client machines,
//! RNG and event queue) stays resident and is advanced one bounded
//! time slice at a time; after each slice the users' final records are
//! k-way merged — by `(timestamp, user index)` — into the sink and
//! dropped. Peak resident record memory is O(records per slice), not
//! O(trace length). The workloads'
//! `generate`, `generate_with_threads` and `generate_into` are this
//! driver run at [`SLICE_MICROS`].
//!
//! # Bit-identity
//!
//! The record sequence reaching the sink is the one each user's
//! simulation would emit if run to the end in one go, concatenated in
//! user order and stable-sorted by timestamp — for any slice length and
//! any worker count. Two facts make that hold:
//!
//! 1. Slicing never perturbs a simulation. The event queue is peeked,
//!    not popped, at a slice boundary, so event order, RNG draw order,
//!    and client cache state are exactly those of an unsliced run.
//! 2. An event at time `t` only emits records stamped `>= t`, so once
//!    every user has advanced past a boundary `B`, records stamped
//!    `< B` are *final* — no future event can emit among them. Each
//!    slice emits exactly the final records, carrying the rest (an
//!    event near a boundary can emit a few records beyond it) into the
//!    next slice.
//!
//! # Examples
//!
//! ```
//! use nfstrace_core::sink::into_ok;
//! use nfstrace_core::time::HOUR;
//! use nfstrace_workload::{CampusConfig, SlicedWorkload};
//!
//! let config = CampusConfig {
//!     users: 2,
//!     duration_micros: 6 * HOUR,
//!     ..CampusConfig::default()
//! };
//! // Pump one hour at a time, as a live ingest does (`run_into` drains
//! // every slice at once).
//! let mut sliced = SlicedWorkload::campus(config, HOUR, 1);
//! let mut trace = Vec::new();
//! let mut slices = 0;
//! while into_ok(sliced.next_slice_into(&mut trace)) {
//!     slices += 1;
//!     assert_eq!(sliced.emitted_to(), slices * HOUR);
//! }
//! assert_eq!(slices, 6);
//! assert!(trace.windows(2).all(|w| w[0].micros <= w[1].micros));
//! assert!(sliced.peak_resident_records() <= trace.len());
//! ```

use crate::campus::{CampusConfig, CampusWorkload};
use crate::driver::merge_user_records_into;
use crate::eecs::{EecsConfig, EecsWorkload};
use nfstrace_core::parallel;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::RecordSink;
use nfstrace_core::time::HOUR;

/// Simulated time per slice when a workload generates its whole trace
/// (`generate`, `generate_into`) and on the live paths.
pub const SLICE_MICROS: u64 = 6 * HOUR;

/// A resident, sliceable user simulation. Implemented by both
/// workloads' per-user simulators so [`SlicedWorkload`] can drive a
/// mixed population behind one interface.
pub(crate) trait UserSim: Send {
    /// Runs every pending event strictly before `end_micros`, appending
    /// emitted records (stamped `>=` the event time) to `out` in
    /// emission order.
    fn advance_until(&mut self, end_micros: u64, out: &mut Vec<TraceRecord>);
}

/// One user's resident simulation plus the records it emitted that are
/// not yet final (stamped at or beyond the last slice boundary).
struct UserSlot {
    sim: Box<dyn UserSim>,
    carry: Vec<TraceRecord>,
}

/// A workload generator that produces the merged trace slice by slice.
///
/// See the [module docs](self) for the memory bound and the
/// bit-identity argument. Construct with [`SlicedWorkload::campus`] or
/// [`SlicedWorkload::eecs`], then either pump slices yourself with
/// [`SlicedWorkload::next_slice_into`] (checking progress between
/// slices — this is what a live ingest does) or drain everything with
/// [`SlicedWorkload::run_into`].
pub struct SlicedWorkload {
    slots: Vec<UserSlot>,
    duration_micros: u64,
    slice_micros: u64,
    /// Records stamped before this boundary have been emitted.
    emitted_to: u64,
    threads: usize,
    finished: bool,
    peak_resident_records: usize,
}

impl std::fmt::Debug for SlicedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlicedWorkload")
            .field("users", &self.slots.len())
            .field("duration_micros", &self.duration_micros)
            .field("slice_micros", &self.slice_micros)
            .field("emitted_to", &self.emitted_to)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl SlicedWorkload {
    /// A sliced CAMPUS generator over `config`, producing
    /// `slice_micros` of simulated time at a time across `threads`
    /// workers. The stream is [`CampusWorkload::generate`]'s for any
    /// slice length and worker count.
    pub fn campus(config: CampusConfig, slice_micros: u64, threads: usize) -> Self {
        let wl = CampusWorkload::new(config);
        let duration = wl.config.duration_micros;
        let sims = parallel::run_sharded(wl.config.users, threads, |u| {
            Box::new(wl.user_sim(u)) as Box<dyn UserSim>
        });
        Self::new(sims, duration, slice_micros, threads)
    }

    /// A sliced EECS generator over `config`; the stream is
    /// [`EecsWorkload::generate`]'s.
    pub fn eecs(config: EecsConfig, slice_micros: u64, threads: usize) -> Self {
        let wl = EecsWorkload::new(config);
        let duration = wl.config.duration_micros;
        let seed = wl.sim_seed();
        let sims = parallel::run_sharded(wl.config.users, threads, |u| {
            Box::new(wl.user_sim(u, &seed)) as Box<dyn UserSim>
        });
        Self::new(sims, duration, slice_micros, threads)
    }

    fn new(
        sims: Vec<Box<dyn UserSim>>,
        duration_micros: u64,
        slice_micros: u64,
        threads: usize,
    ) -> Self {
        SlicedWorkload {
            slots: sims
                .into_iter()
                .map(|sim| UserSlot {
                    sim,
                    carry: Vec::new(),
                })
                .collect(),
            duration_micros,
            slice_micros: slice_micros.max(1),
            emitted_to: 0,
            threads,
            finished: duration_micros == 0,
            peak_resident_records: 0,
        }
    }

    /// Advances every user one slice and streams the slice's final
    /// records, k-way merged across users, into `sink`. Returns `false`
    /// once the stream is exhausted (nothing was pushed).
    ///
    /// # Errors
    ///
    /// Propagates the sink's error (infallible for `Vec<TraceRecord>`).
    pub fn next_slice_into<S: RecordSink>(&mut self, sink: &mut S) -> Result<bool, S::Err> {
        if self.finished {
            return Ok(false);
        }
        let watermark = self.emitted_to;
        let boundary = watermark.saturating_add(self.slice_micros);
        let last = boundary >= self.duration_micros;
        // Each user appends its fresh records (in emission order) to its
        // carry, then splits out the final ones: everything stamped
        // before the boundary (on the last slice: everything — events
        // before the duration cap can legally emit a short tail beyond
        // it, and the trace keeps that tail too). The sort is stable,
        // so equal timestamps keep their emission order.
        let advance = |slot: &mut UserSlot| {
            slot.sim.advance_until(boundary, &mut slot.carry);
            slot.carry.sort_by_key(|r| r.micros);
            debug_assert!(
                slot.carry.first().is_none_or(|r| r.micros >= watermark),
                "record before the watermark"
            );
            if last {
                return std::mem::take(&mut slot.carry);
            }
            let rest = slot
                .carry
                .split_off(slot.carry.partition_point(|r| r.micros < boundary));
            std::mem::replace(&mut slot.carry, rest)
        };
        let run_len = parallel::run_len(self.slots.len(), self.threads);
        let ready: Vec<Vec<TraceRecord>> =
            parallel::fork_join(self.slots.chunks_mut(run_len), |run| {
                run.iter_mut().map(&advance).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let resident: usize = ready.iter().map(Vec::len).sum::<usize>()
            + self.slots.iter().map(|s| s.carry.len()).sum::<usize>();
        self.peak_resident_records = self.peak_resident_records.max(resident);
        merge_user_records_into(ready, sink)?;
        self.emitted_to = boundary;
        self.finished = last;
        Ok(true)
    }

    /// Pumps [`SlicedWorkload::next_slice_into`] until exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates the sink's error.
    pub fn run_into<S: RecordSink>(&mut self, sink: &mut S) -> Result<(), S::Err> {
        while self.next_slice_into(sink)? {}
        Ok(())
    }

    /// The boundary below which every record has been emitted.
    pub fn emitted_to(&self) -> u64 {
        self.emitted_to
    }

    /// Whether the stream is exhausted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The largest number of generated-but-unsunk records ever resident
    /// at once — the write path's memory observable. Bounded by the
    /// records one slice produces (plus each user's short carry tail),
    /// independent of the trace length.
    pub fn peak_resident_records(&self) -> usize {
        self.peak_resident_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::merge_user_records;
    use nfstrace_core::sink::into_ok;
    use nfstrace_core::time::DAY;

    fn campus_cfg() -> CampusConfig {
        CampusConfig {
            users: 4,
            duration_micros: DAY,
            seed: 9,
            ..CampusConfig::default()
        }
    }

    fn eecs_cfg() -> EecsConfig {
        EecsConfig {
            users: 3,
            duration_micros: DAY,
            seed: 17,
            ..EecsConfig::default()
        }
    }

    /// The reference trace: every user's simulation run to the end in
    /// one step, the streams concatenated in user order and
    /// stable-sorted by timestamp.
    fn whole_run(sims: impl Iterator<Item = Box<dyn UserSim>>) -> Vec<TraceRecord> {
        merge_user_records(
            sims.map(|mut sim| {
                let mut out = Vec::new();
                sim.advance_until(u64::MAX, &mut out);
                out
            })
            .collect(),
        )
    }

    fn campus_reference() -> Vec<TraceRecord> {
        let wl = CampusWorkload::new(campus_cfg());
        whole_run((0..wl.config.users).map(|u| Box::new(wl.user_sim(u)) as Box<dyn UserSim>))
    }

    fn eecs_reference() -> Vec<TraceRecord> {
        let wl = EecsWorkload::new(eecs_cfg());
        let seed = wl.sim_seed();
        whole_run((0..wl.config.users).map(|u| Box::new(wl.user_sim(u, &seed)) as Box<dyn UserSim>))
    }

    #[test]
    fn campus_sliced_equals_batch_for_any_slice_and_threads() {
        let reference = campus_reference();
        for (slice, threads) in [(HOUR, 1), (3 * HOUR, 2), (7 * HOUR + 1234, 3), (2 * DAY, 1)] {
            let mut sliced = SlicedWorkload::campus(campus_cfg(), slice, threads);
            let mut out: Vec<TraceRecord> = Vec::new();
            into_ok(sliced.run_into(&mut out));
            assert_eq!(out, reference, "slice={slice} threads={threads}");
            assert!(sliced.is_finished());
        }
        assert_eq!(
            CampusWorkload::new(campus_cfg()).generate_with_threads(2),
            reference
        );
    }

    #[test]
    fn eecs_sliced_equals_batch_for_any_slice_and_threads() {
        let reference = eecs_reference();
        for (slice, threads) in [(2 * HOUR, 1), (5 * HOUR, 2)] {
            let mut sliced = SlicedWorkload::eecs(eecs_cfg(), slice, threads);
            let mut out: Vec<TraceRecord> = Vec::new();
            into_ok(sliced.run_into(&mut out));
            assert_eq!(out, reference, "slice={slice} threads={threads}");
        }
        assert_eq!(
            EecsWorkload::new(eecs_cfg()).generate_with_threads(2),
            reference
        );
    }

    #[test]
    fn small_slices_bound_resident_records() {
        let reference = campus_reference();
        let mut sliced = SlicedWorkload::campus(campus_cfg(), HOUR, 1);
        let mut out: Vec<TraceRecord> = Vec::new();
        into_ok(sliced.run_into(&mut out));
        assert_eq!(out, reference);
        assert!(
            sliced.peak_resident_records() < reference.len() / 2,
            "peak {} of {} total records — slicing should bound the write path",
            sliced.peak_resident_records(),
            reference.len()
        );
    }

    #[test]
    fn slice_stream_is_monotone_and_stops() {
        let mut sliced = SlicedWorkload::campus(campus_cfg(), 6 * HOUR, 2);
        let mut all: Vec<TraceRecord> = Vec::new();
        let mut boundaries = Vec::new();
        while {
            let more = into_ok(sliced.next_slice_into(&mut all));
            boundaries.push(sliced.emitted_to());
            more
        } {}
        assert!(all.windows(2).all(|w| w[0].micros <= w[1].micros));
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        // Exhausted: further pumping is a no-op.
        let before = all.len();
        assert!(!into_ok(sliced.next_slice_into(&mut all)));
        assert_eq!(all.len(), before);
    }

    #[test]
    fn zero_duration_is_empty() {
        let mut sliced = SlicedWorkload::campus(
            CampusConfig {
                users: 2,
                duration_micros: 0,
                ..CampusConfig::default()
            },
            HOUR,
            1,
        );
        let mut out: Vec<TraceRecord> = Vec::new();
        into_ok(sliced.run_into(&mut out));
        assert!(out.is_empty());
    }
}
