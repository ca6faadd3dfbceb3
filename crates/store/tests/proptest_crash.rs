//! Crash-recovery property tests for the segment lifecycle protocols.
//!
//! Every filesystem step of seal → compact runs under a
//! [`FaultInjector`] budget of *n* steps, for **every** possible *n*:
//! each induced crash is followed by a sweeping reopen
//! ([`SegmentCatalog::open_and_sweep`]), which must always resolve the
//! directory to exactly the old or the new catalog state — never a
//! mix — with the full record stream intact either way.

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::compact::{seal_segment, tmp_path, Compactor, FaultInjector};
use nfstrace_store::{
    stream_records, CompactionPolicy, SegmentCatalog, SegmentId, StoreConfig, StoreError,
    StoreReader, StoreWriter,
};
use nfstrace_telemetry::Registry;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nfstrace-crash-proptests")
        .join(format!("{tag}-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn record(i: u64) -> TraceRecord {
    let mut r = TraceRecord::new(
        i * 997,
        Op::ALL[(i % Op::ALL.len() as u64) as usize],
        FileId(i % 7),
    );
    r.offset = i * 4096;
    r.count = 4096;
    r
}

/// Seals `seg_count` base segments of `per_seg` records each into
/// `dir`.
fn seed(dir: &Path, seg_count: u64, per_seg: u64) -> SegmentCatalog {
    let mut cat = SegmentCatalog::open(dir).expect("open");
    for s in 0..seg_count {
        let ordinal = cat.next_ordinal();
        let dest = cat.path_for(ordinal);
        let tmp = tmp_path(&dest);
        let mut w = StoreWriter::create(
            &tmp,
            StoreConfig {
                target_chunk_bytes: 256,
            },
        )
        .expect("create");
        let base = s * per_seg;
        for i in base..base + per_seg {
            w.push(&record(i)).expect("push");
        }
        w.finish().expect("finish");
        seal_segment(&tmp, &dest, &mut FaultInjector::none()).expect("seal");
        cat.note_sealed(ordinal);
    }
    cat
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

fn catalog_records(cat: &SegmentCatalog) -> Vec<TraceRecord> {
    let readers: Vec<Arc<StoreReader>> = cat
        .paths()
        .iter()
        .map(|p| Arc::new(StoreReader::open(p).expect("open segment")))
        .collect();
    let mut out = Vec::new();
    stream_records(&readers, 0, u64::MAX, &mut |r| out.push(r.clone()));
    out
}

/// No crash leftovers survive a sweep.
fn assert_no_leftovers(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "sweep must remove temp files, found {name}"
        );
    }
}

fn is_simulated_crash(e: &StoreError) -> bool {
    matches!(e, StoreError::Format(msg) if msg.contains("simulated crash"))
}

proptest! {
    /// Sealing a new segment killed between every filesystem step:
    /// reopen yields the catalog without the segment (crash anywhere
    /// before the final rename) or with it (completion) — never a
    /// half-sealed state — and sweeps all debris.
    #[test]
    fn seal_crashes_resolve_to_old_or_new(
        seg_count in 1u64..4,
        per_seg in 1u64..12,
        case in 0u64..1_000_000,
    ) {
        let pristine = tmpdir("seal-pristine", case);
        seed(&pristine, seg_count, per_seg);
        let old_ids: Vec<SegmentId> = (0..seg_count).map(SegmentId::base).collect();
        let old_total = seg_count * per_seg;

        let mut completed = false;
        let mut crashes = 0u64;
        for budget in 0u64.. {
            let work = tmpdir("seal-work", case);
            copy_dir(&pristine, &work);
            let mut cat = SegmentCatalog::open_and_sweep(&work).expect("open work");
            prop_assert_eq!(cat.ids(), old_ids.as_slice());

            // Stage the next segment exactly as a rotation would.
            let ordinal = cat.next_ordinal();
            let dest = cat.path_for(ordinal);
            let tmp = tmp_path(&dest);
            let mut w = StoreWriter::create(&tmp, StoreConfig::default()).expect("create");
            let base = old_total;
            for i in base..base + per_seg {
                w.push(&record(i)).expect("push");
            }
            w.finish().expect("finish");

            let mut fault = FaultInjector::after(budget);
            match seal_segment(&tmp, &dest, &mut fault) {
                Ok(()) => {
                    cat.note_sealed(ordinal);
                    let swept = SegmentCatalog::open_and_sweep(&work).expect("reopen");
                    let mut new_ids = old_ids.clone();
                    new_ids.push(SegmentId::base(ordinal));
                    prop_assert_eq!(swept.ids(), new_ids.as_slice());
                    prop_assert_eq!(
                        catalog_records(&swept).len() as u64,
                        old_total + per_seg
                    );
                    assert_no_leftovers(&work);
                    completed = true;
                }
                Err(e) => {
                    prop_assert!(is_simulated_crash(&e), "{e}");
                    crashes += 1;
                    let swept = SegmentCatalog::open_and_sweep(&work).expect("reopen after crash");
                    // The seal never published: exactly the old state.
                    prop_assert_eq!(swept.ids(), old_ids.as_slice());
                    prop_assert_eq!(catalog_records(&swept).len() as u64, old_total);
                    assert_no_leftovers(&work);
                }
            }
            std::fs::remove_dir_all(&work).ok();
            if completed {
                break;
            }
        }
        // Every step had its kill: a seal has one.
        prop_assert_eq!(crashes, 1);
        std::fs::remove_dir_all(&pristine).ok();
    }

    /// Compaction killed between every filesystem step: reopen yields
    /// exactly the pre-compaction catalog (kill before the output
    /// rename) or the post-compaction one (kill after — roll-forward
    /// via supersession), never a mix; the record stream survives
    /// every outcome.
    #[test]
    fn compact_crashes_resolve_to_old_or_new(
        fan_in in 2u64..5,
        tail_segs in 0u64..2,
        per_seg in 1u64..10,
        case in 0u64..1_000_000,
    ) {
        let seg_count = fan_in + tail_segs;
        let pristine = tmpdir("compact-pristine", case);
        seed(&pristine, seg_count, per_seg);
        let old_ids: Vec<SegmentId> = (0..seg_count).map(SegmentId::base).collect();
        let output = SegmentId { lo: 0, hi: fan_in - 1, generation: 1 };
        let mut new_ids = vec![output];
        new_ids.extend((fan_in..seg_count).map(SegmentId::base));
        let total = seg_count * per_seg;

        let mut rollbacks = 0u64;
        let mut rollforwards = 0u64;
        let mut completed = false;
        for budget in 0u64.. {
            let work = tmpdir("compact-work", case);
            copy_dir(&pristine, &work);
            let mut cat = SegmentCatalog::open_and_sweep(&work).expect("open work");
            let registry = Registry::new();
            let compactor = Compactor::new(
                CompactionPolicy { fan_in: fan_in as usize },
                StoreConfig { target_chunk_bytes: 256 },
                &registry,
            );
            let planned = compactor.policy().plan(cat.ids()).expect("run is ripe");
            prop_assert_eq!(planned, output);

            let mut fault = FaultInjector::after(budget);
            let result = compactor.compact(&mut cat, planned, &mut fault);
            let swept = SegmentCatalog::open_and_sweep(&work).expect("reopen");
            match result {
                Ok(outcome) => {
                    prop_assert_eq!(outcome.output, output);
                    prop_assert_eq!(swept.ids(), new_ids.as_slice());
                    completed = true;
                }
                Err(e) => {
                    prop_assert!(is_simulated_crash(&e), "{e}");
                    // Old or new — and nothing else.
                    if swept.ids() == old_ids.as_slice() {
                        rollbacks += 1;
                    } else if swept.ids() == new_ids.as_slice() {
                        rollforwards += 1;
                    } else {
                        prop_assert!(
                            false,
                            "mixed state after crash at budget {budget}: {:?}",
                            swept.ids()
                        );
                    }
                }
            }
            // Whatever state won, it is the complete trace.
            let back = catalog_records(&swept);
            prop_assert_eq!(back.len() as u64, total);
            let expect: Vec<TraceRecord> = (0..total).map(record).collect();
            prop_assert_eq!(back, expect);
            assert_no_leftovers(&work);
            std::fs::remove_dir_all(&work).ok();
            if completed {
                break;
            }
        }
        // The kill-point sweep saw the directory roll back before the
        // commit point and roll forward after it.
        prop_assert!(rollbacks > 0, "no crash before the commit point");
        prop_assert!(rollforwards > 0, "no crash after the commit point");
        std::fs::remove_dir_all(&pristine).ok();
    }
}
