//! The standard simulated scenario every artifact is rendered from:
//! one eight-day CAMPUS/EECS pair — and the five paths that pair can
//! take to the suite, each a function returning what the suite renders
//! over: [`eight_day_index_pair`] (in memory), [`eight_day_store_pair`]
//! (out of core), [`eight_day_live_pair`] and
//! [`eight_day_sharded_pair`] (the live ingest daemons),
//! [`eight_day_served_pair`] (the socket loop). Same seeds, same
//! configurations, bit-identical record streams: the suite prints the
//! same bytes whichever path produced its input. `repro --via` picks
//! one; `crates/bench/tests/paths.rs` holds the first four to one
//! another byte for byte, and the CI smoke all five.

use nfstrace_core::index::TraceIndex;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::DAY;
use nfstrace_live::{LiveConfig, LiveIngest, ShardedLiveIngest};
use nfstrace_serve::{serve_roundtrip, ReplayOptions, ReplayPlan};
use nfstrace_store::{CompactionPolicy, Result, StoreConfig, StoreIndex, StoreWriter};
use nfstrace_telemetry::Registry;
use nfstrace_workload::{
    CampusConfig, CampusWorkload, EecsConfig, EecsWorkload, SlicedWorkload, SLICE_MICROS,
};
use std::path::Path;

/// Base CAMPUS population at scale 1.0.
pub const CAMPUS_BASE_USERS: usize = 40;
/// Base EECS population at scale 1.0.
pub const EECS_BASE_USERS: usize = 24;

/// The canonical analysis week: Sunday through Saturday (the paper used
/// 10/21–10/27/2001), expressed in simulation days.
pub const WEEK_DAYS: u64 = 7;

/// Generates a CAMPUS trace of `days` days at the given scale.
pub fn campus(days: u64, scale: f64, seed: u64) -> Vec<TraceRecord> {
    CampusWorkload::new(campus_config(days, scale, seed)).generate()
}

/// Generates an EECS trace of `days` days at the given scale.
pub fn eecs(days: u64, scale: f64, seed: u64) -> Vec<TraceRecord> {
    EecsWorkload::new(eecs_config(days, scale, seed)).generate()
}

/// Eight-day traces (the lifetime analyses need a full end margin after
/// the Friday window), indexed. The canonical analysis week is the
/// first seven days of these same traces — `idx.time_window(0, 7 * DAY)`
/// — so `repro` generates each system exactly once.
pub fn eight_day_index_pair(scale: f64) -> (TraceIndex, TraceIndex) {
    (
        TraceIndex::new(campus(8, scale, CAMPUS_SEED)),
        TraceIndex::new(eecs(8, scale, EECS_SEED)),
    )
}

/// The canonical CAMPUS configuration at a given length/scale/seed —
/// what every batch, store, and live path of the suite generates from,
/// so their record streams are bit-identical.
pub fn campus_config(days: u64, scale: f64, seed: u64) -> CampusConfig {
    CampusConfig {
        users: ((CAMPUS_BASE_USERS as f64 * scale) as usize).max(4),
        duration_micros: days * DAY,
        seed,
        ..CampusConfig::default()
    }
}

/// See [`campus_config`].
pub fn eecs_config(days: u64, scale: f64, seed: u64) -> EecsConfig {
    EecsConfig {
        users: ((EECS_BASE_USERS as f64 * scale) as usize).max(3),
        duration_micros: days * DAY,
        seed,
        ..EecsConfig::default()
    }
}

/// The canonical seeds of the suite's two systems (CAMPUS, EECS).
pub const CAMPUS_SEED: u64 = 42;
/// See [`CAMPUS_SEED`].
pub const EECS_SEED: u64 = 1789;

/// The out-of-core twin of [`eight_day_index_pair`]: generates the same
/// eight-day traces (same seeds, bit-identical record streams) directly
/// into chunked store files under `dir` — one generation slice of
/// records resident at a time, never the trace — then opens
/// chunk-parallel [`StoreIndex`]es over them.
///
/// # Errors
///
/// Propagates store write/read failures.
pub fn eight_day_store_pair(
    scale: f64,
    dir: &Path,
    config: StoreConfig,
) -> Result<(StoreIndex, StoreIndex)> {
    std::fs::create_dir_all(dir).map_err(nfstrace_store::StoreError::Io)?;
    let threads = nfstrace_core::parallel::threads();

    let campus_path = dir.join("campus.nfstore");
    let mut w = StoreWriter::create(&campus_path, config)?;
    CampusWorkload::new(campus_config(8, scale, CAMPUS_SEED)).generate_into(threads, &mut w)?;
    w.finish()?;

    let eecs_path = dir.join("eecs.nfstore");
    let mut w = StoreWriter::create(&eecs_path, config)?;
    EecsWorkload::new(eecs_config(8, scale, EECS_SEED)).generate_into(threads, &mut w)?;
    w.finish()?;

    Ok((
        StoreIndex::open(&campus_path)?,
        StoreIndex::open(&eecs_path)?,
    ))
}

/// The eight-day CAMPUS trace as a time-sliced generator — a
/// [`nfstrace_live::RecordSource`] whose slices, concatenated, are
/// [`campus`]'s stream bit for bit (it is the driver `campus` runs),
/// with only one [`SLICE_MICROS`] slice of records ever resident.
pub fn campus_slices(scale: f64) -> SlicedWorkload {
    SlicedWorkload::campus(
        campus_config(8, scale, CAMPUS_SEED),
        SLICE_MICROS,
        nfstrace_core::parallel::threads(),
    )
}

/// See [`campus_slices`].
pub fn eecs_slices(scale: f64) -> SlicedWorkload {
    SlicedWorkload::eecs(
        eecs_config(8, scale, EECS_SEED),
        SLICE_MICROS,
        nfstrace_core::parallel::threads(),
    )
}

/// The live paths' daemon configuration: seal the hot segment daily or
/// at half a million records, compact in line if a policy is given,
/// report into `registry`.
pub fn live_config(
    dir: &Path,
    compaction: Option<CompactionPolicy>,
    registry: &Registry,
) -> LiveConfig {
    LiveConfig {
        rotate_records: 500_000,
        rotate_micros: DAY,
        compaction,
        ..LiveConfig::new(dir)
    }
    .with_registry(registry)
}

/// The *live* path: each system's [`campus_slices`] / [`eecs_slices`]
/// pumped through a single-writer [`LiveIngest`] under [`live_config`]
/// into `dir/campus-segments` and `dir/eecs-segments`, finished, and
/// the segment directories opened as [`StoreIndex`]es. With a
/// `compaction` policy the daemons merge ripe runs of sealed segments
/// as they rotate; the record stream, and so the suite, is unchanged.
///
/// The path checks nothing itself — its contract is the suite's bytes,
/// and `crates/bench/tests/paths.rs` holds it (mid-ingest views,
/// compaction by relocation, the pruning planner, the bounded resident
/// peak).
///
/// # Errors
///
/// Propagates ingest and store failures.
pub fn eight_day_live_pair(
    scale: f64,
    dir: &Path,
    compaction: Option<CompactionPolicy>,
    registry: &Registry,
) -> Result<(StoreIndex, StoreIndex)> {
    let ingest = |segments: &str, mut slices: SlicedWorkload| {
        let dir = dir.join(segments);
        let mut ingest = LiveIngest::create(live_config(&dir, compaction, registry))?;
        ingest.run(&mut slices)?;
        ingest.finish()?;
        StoreIndex::open_dir_with_registry(&dir, registry)
    };
    Ok((
        ingest("campus-segments", campus_slices(scale))?,
        ingest("eecs-segments", eecs_slices(scale))?,
    ))
}

/// The *sharded live* path: the same slices through a
/// [`ShardedLiveIngest`] of `shards` writers per system (records split
/// by client hash, stamped with a global arrival sequence), rooted at
/// `dir/campus-segments` and `dir/eecs-segments`. The daemons come
/// back **still open**: the suite renders over their merged mid-ingest
/// [`ShardedLiveIngest::view`]s — sealed segments plus every shard's
/// hot segment, k-way merged on arrival sequence — and the caller
/// finishes them after the render.
///
/// # Errors
///
/// Propagates ingest and store failures.
pub fn eight_day_sharded_pair(
    scale: f64,
    dir: &Path,
    shards: usize,
    compaction: Option<CompactionPolicy>,
    registry: &Registry,
) -> Result<(ShardedLiveIngest, ShardedLiveIngest)> {
    let ingest = |segments: &str, mut slices: SlicedWorkload| -> Result<ShardedLiveIngest> {
        let config = live_config(&dir.join(segments), compaction, registry);
        let mut ingest = ShardedLiveIngest::create(config, shards)?;
        ingest.run(&mut slices)?;
        Ok(ingest)
    };
    Ok((
        ingest("campus-segments", campus_slices(scale))?,
        ingest("eecs-segments", eecs_slices(scale))?,
    ))
}

/// The *served* path, the closed loop over real sockets: the
/// [`eight_day_store_pair`] under `dir/batch`, each system compiled to
/// wire RPC ([`ReplayPlan::from_stream`]), served by the record-marked
/// loopback TCP server and replayed at [`ReplayOptions::default`],
/// every exchanged byte tapped into the sniffer and live-ingested
/// ([`serve_roundtrip`]) into `dir/campus-served` and
/// `dir/eecs-served`, which are opened as [`StoreIndex`]es. The loop is
/// a section of the sniffer's flattening (`nfstrace_serve::reverse`),
/// so the captured stores re-print the suite byte for byte.
///
/// # Errors
///
/// Propagates store, socket and ingest failures.
///
/// # Panics
///
/// If the loop broke one of the contracts it can read off its own
/// counters, per system: a call the plan did not cover reached the
/// server, the client retransmitted on loopback, calls sent ≠ planned,
/// the server dispatched (`serve.calls`) ≠ planned, the lossless mirror
/// dropped a frame, or the sniffer saw an orphan reply, a decode error,
/// or a record count other than the plan's.
pub fn eight_day_served_pair(
    scale: f64,
    dir: &Path,
    registry: &Registry,
) -> Result<(StoreIndex, StoreIndex)> {
    let (campus, eecs) = eight_day_store_pair(scale, &dir.join("batch"), StoreConfig::default())?;
    let dispatched = registry.counter("serve.calls");
    let serve = |name: &str, trace: &StoreIndex| {
        let dir = dir.join(name);
        let plan = ReplayPlan::from_stream(trace);
        let planned = plan.calls.len() as u64;
        let dispatched_before = dispatched.value();
        let outcome = serve_roundtrip(&plan, &ReplayOptions::default(), registry, &dir)?;
        assert_eq!(outcome.unplanned_calls, 0, "{name}: unplanned calls");
        assert_eq!(outcome.replay.retransmits, 0, "{name}: retransmits");
        assert_eq!(outcome.replay.calls_sent, planned, "{name}: calls sent");
        assert_eq!(
            dispatched.value() - dispatched_before,
            planned,
            "{name}: serve.calls"
        );
        assert_eq!(outcome.mirror.dropped, 0, "{name}: mirror drops");
        let sniffed = outcome.sniffer.expect("sniffer stats after exhaustion");
        assert_eq!(sniffed.calls, planned, "{name}: sniffed calls");
        assert_eq!(sniffed.orphan_replies, 0, "{name}: orphan replies");
        assert_eq!(sniffed.decode_errors, 0, "{name}: decode errors");
        assert_eq!(outcome.summary.total_records, planned, "{name}: records");
        StoreIndex::open_dir_with_registry(&dir, registry)
    };
    Ok((
        serve("campus-served", &campus)?,
        serve("eecs-served", &eecs)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_still_generates() {
        let c = campus(1, 0.1, 1);
        let e = eecs(1, 0.1, 1);
        assert!(c.len() > 100);
        assert!(e.len() > 100);
    }
}
