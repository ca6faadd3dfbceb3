//! The sealing thread behind the sink: a rotation hands the hot segment
//! off, and the calls that settle — the next rotation, a view,
//! `finish`, dropping the ingest — join it. These tests pin what the
//! caller sees at those settles: the chain an inline seal would have
//! left, a seal's error, and a poisoned ingest after one.

use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{LiveConfig, LiveIngest};
use nfstrace_store::{CompactionPolicy, Result, StoreConfig, StoreError};
use nfstrace_workload::{CampusConfig, CampusWorkload};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-sealer-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn record(i: u64) -> TraceRecord {
    TraceRecord::new(i * 1000, Op::Read, FileId(i % 3))
}

/// Four records to a segment, rotated by count only.
fn four_per_segment(dir: &Path) -> LiveConfig {
    LiveConfig {
        rotate_records: 4,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(dir)
    }
}

fn is_not_found(outcome: &Result<()>) -> bool {
    matches!(outcome, Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound)
}

/// Runs `body` on a thread of its own, failing the test if it panics
/// or has not returned within a minute.
fn without_panic_or_hang<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        done_tx.send(outcome).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the ingest hung")
        .unwrap_or_else(|_| panic!("the ingest panicked"))
}

/// A segment whose seal fails — its directory vanished under it — used
/// to be dropped from the durable trace while the ingest carried on:
/// the next record opened a fresh writer at the same ordinal and
/// `finish` reported success over the records after the hole. Now the
/// failure reaches the caller as the I/O error it was, and every call
/// after it is refused with a typed error.
#[test]
fn a_failed_seal_poisons_the_ingest() {
    let dir = tmpdir("poison");
    let mut ingest = LiveIngest::create(four_per_segment(&dir)).expect("create");
    for i in 0..3 {
        ingest.ingest(&record(i)).expect("ingest");
    }
    std::fs::remove_dir_all(&dir).expect("remove the segment directory");
    // The fourth record rotates: the segment it completes cannot seal.
    let mut outcomes = vec![ingest.ingest(&record(3))];
    std::fs::create_dir_all(&dir).expect("recreate the segment directory");
    for i in 4..6 {
        outcomes.push(ingest.ingest(&record(i)));
    }
    outcomes.push(ingest.rotate());
    outcomes.push(ingest.ingest(&record(6)));
    outcomes.push(ingest.rotate());

    let first = outcomes
        .iter()
        .position(Result::is_err)
        .expect("the failed seal reaches the caller");
    assert!(is_not_found(&outcomes[first]), "{:?}", outcomes[first]);
    for (at, outcome) in outcomes.iter().enumerate().skip(first + 1) {
        assert!(
            matches!(outcome, Err(StoreError::Poisoned { .. })),
            "call {at} after the failure: {outcome:?}"
        );
    }
    let finished = ingest.finish();
    assert!(
        matches!(&finished, Err(StoreError::Poisoned { segment, .. })
            if segment.ends_with("seg-000000.nfseg")),
        "{finished:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An ingest whose fourth record rotated a segment that cannot seal:
/// the hand-off itself succeeds, and the directory is back for the
/// next segment, so only the seal in flight fails.
fn failing_seal_in_flight(tag: &str) -> (LiveIngest, PathBuf) {
    let dir = tmpdir(tag);
    let mut ingest = LiveIngest::create(four_per_segment(&dir)).expect("create");
    for i in 0..3 {
        ingest.ingest(&record(i)).expect("ingest");
    }
    std::fs::remove_dir_all(&dir).expect("remove the segment directory");
    ingest
        .ingest(&record(3))
        .expect("the rotation hands the segment off");
    std::fs::create_dir_all(&dir).expect("recreate the segment directory");
    (ingest, dir)
}

/// Whichever call settles next returns the seal's error — no panic, no
/// hang — and the ingest is poisoned after it.
#[test]
fn a_seal_error_in_flight_reaches_the_next_settle() {
    type Settle = fn(&mut LiveIngest) -> Result<()>;
    let settles: [(&str, Settle); 3] = [
        ("rotate", |ingest| ingest.rotate()),
        ("try_view", |ingest| ingest.try_view().map(drop)),
        ("an ingest that rotates", |ingest| {
            (4..8).try_for_each(|i| ingest.ingest(&record(i)))
        }),
    ];
    for (name, settle) in settles {
        let (outcome, after) = without_panic_or_hang(move || {
            let (mut ingest, dir) = failing_seal_in_flight("settle");
            let outcome = settle(&mut ingest);
            let after = ingest.finish().map(drop);
            std::fs::remove_dir_all(&dir).ok();
            (outcome, after)
        });
        assert!(is_not_found(&outcome), "{name}: {outcome:?}");
        assert!(
            matches!(after, Err(StoreError::Poisoned { .. })),
            "{name}, then finish: {after:?}"
        );
    }

    let finished = without_panic_or_hang(|| {
        let (ingest, dir) = failing_seal_in_flight("settle-finish");
        let finished = ingest.finish().map(drop);
        std::fs::remove_dir_all(&dir).ok();
        finished
    });
    assert!(is_not_found(&finished), "finish: {finished:?}");
}

/// Dropping an ingest joins its seal in flight: the directory then
/// holds the sealed segment, and nothing half-written.
#[test]
fn dropping_an_ingest_mid_seal_joins_the_seal() {
    let dir = tmpdir("drop");
    let config = LiveConfig {
        rotate_records: 5_000,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(&dir)
    };
    let mut ingest = LiveIngest::create(config).expect("create");
    for i in 0..5_000 {
        ingest.ingest(&record(i)).expect("ingest");
    }
    assert_eq!(
        ingest.hot_len(),
        0,
        "the last record handed the segment off"
    );
    drop(ingest);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["seg-000000.nfseg"]);
    let reopened = LiveIngest::open(LiveConfig::new(&dir)).expect("reopen");
    assert_eq!(reopened.total_records(), 5_000);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_views_agree<A: TraceView, B: TraceView>(a: &A, b: &B, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: len");
    assert_eq!(a.summary(), b.summary(), "{ctx}: summary");
    assert_eq!(a.hourly(), b.hourly(), "{ctx}: hourly");
    assert_eq!(
        a.accesses(10).as_ref(),
        b.accesses(10).as_ref(),
        "{ctx}: accesses"
    );
    assert_eq!(a.names(), b.names(), "{ctx}: names");
}

/// A view taken the moment a rotation has handed its segment off (and
/// the compaction it made ripe) sees exactly what a view over the
/// finished, reopened directory sees, record for record.
#[test]
fn a_view_right_after_a_rotation_equals_one_after_finish() {
    let dir = tmpdir("view");
    let batch = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1);
    let config = || LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 16 << 10,
        },
        rotate_records: 1_000,
        rotate_micros: 6 * HOUR,
        compaction: Some(CompactionPolicy { fan_in: 2 }),
        ..LiveConfig::new(&dir)
    };
    let mut ingest = LiveIngest::create(config()).expect("create");
    let mut taken = None;
    for (i, r) in batch.iter().enumerate() {
        ingest.ingest(r).expect("ingest");
        if ingest.hot_len() == 0 && i + 1 >= batch.len() / 2 {
            taken = Some((i + 1, ingest.view()));
            break;
        }
    }
    let (n, live) = taken.expect("a rotation past the middle of the trace");
    assert!(n >= 3_000, "only {n} records before the view");
    let summary = ingest.finish().expect("finish");
    assert_eq!(summary.total_records, n as u64);

    let mut reopened = LiveIngest::open(config()).expect("reopen");
    let finished = reopened.view();
    let oracle = TraceIndex::new(batch[..n].to_vec());
    assert_views_agree(&live, &finished, "after finish");
    assert_views_agree(&live, &oracle, "in memory");
    let replay = |view: &dyn RecordStream| {
        let mut out = Vec::new();
        view.for_each_record(&mut |r| out.push(r.clone()));
        out
    };
    assert_eq!(replay(&live), replay(&finished));
    assert_eq!(replay(&live), &batch[..n]);
    drop((live, finished, reopened));
    std::fs::remove_dir_all(&dir).ok();
}
