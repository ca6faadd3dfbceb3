//! The standard simulated scenario every artifact is rendered from:
//! one eight-day CAMPUS/EECS pair, in memory or in chunked stores.

use nfstrace_core::index::TraceIndex;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::DAY;
use nfstrace_store::{StoreConfig, StoreIndex, StoreWriter};
use nfstrace_workload::{CampusConfig, CampusWorkload, EecsConfig, EecsWorkload};
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
/// into chunked store files under `dir` — the merged record vectors are
/// never materialized — then opens chunk-parallel [`StoreIndex`]es over
/// them.
///
/// # Errors
///
/// Propagates store write/read failures.
pub fn eight_day_store_pair(
    scale: f64,
    dir: &Path,
    config: StoreConfig,
) -> nfstrace_store::Result<(StoreIndex, StoreIndex)> {
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
