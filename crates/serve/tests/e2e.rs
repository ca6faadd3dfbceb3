//! The full loop over real sockets: generate → serve → replay →
//! capture → ingest, asserting the on-disk store reproduces the
//! original trace record for record — under concurrency, forced
//! retransmission, and trace-timestamp pacing.

use nfstrace_core::index::RecordStream;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::HOUR;
use nfstrace_serve::{serve_roundtrip, Pacing, ReplayOptions, ReplayPlan};
use nfstrace_store::StoreIndex;
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusConfig, CampusWorkload};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campus(users: usize, hours: u64) -> Vec<TraceRecord> {
    CampusWorkload::new(CampusConfig {
        users,
        duration_micros: hours * HOUR,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1)
}

fn expected(records: &[TraceRecord]) -> Vec<TraceRecord> {
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.vers = 3;
            r
        })
        .collect()
}

fn stored_records(dir: &std::path::Path) -> Vec<TraceRecord> {
    let index = StoreIndex::open_dir(dir).expect("open ingested store");
    let mut out = Vec::new();
    index.for_each_record(&mut |r| out.push(r.clone()));
    out
}

#[test]
fn served_and_captured_store_equals_the_trace() {
    let records = campus(4, 8);
    assert!(records.len() > 200);
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("e2e");

    let outcome =
        serve_roundtrip(&plan, &ReplayOptions::default(), &registry, &dir).expect("roundtrip");
    assert_eq!(outcome.unplanned_calls, 0, "every call was planned");
    assert_eq!(outcome.replay.retransmits, 0, "loopback needs no retries");
    assert_eq!(outcome.replay.calls_sent, records.len() as u64);
    assert_eq!(outcome.summary.total_records, records.len() as u64);
    assert_eq!(outcome.mirror.dropped, 0, "lossless mirror");
    let stats = outcome.sniffer.expect("sniffer stats after exhaustion");
    assert_eq!(stats.calls, records.len() as u64);
    assert_eq!(stats.orphan_replies, 0);

    assert_eq!(
        registry.counter("serve.calls").value(),
        records.len() as u64
    );
    assert_eq!(
        registry.counter("replay.calls_sent").value(),
        records.len() as u64
    );
    assert_eq!(registry.counter("replay.retransmits").value(), 0);

    assert_eq!(stored_records(&dir), expected(&records));
    std::fs::remove_dir_all(&dir).ok();
}

/// The capture stage of the loop counts into the registry it is
/// handed, like every other stage: one `sniffer.calls` per planned
/// call, one `sniffer.records_emitted` per stored record.
#[test]
fn the_roundtrip_exports_the_sniffer_counters() {
    let records = campus(2, 8);
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("sniffer-metrics");
    let outcome =
        serve_roundtrip(&plan, &ReplayOptions::default(), &registry, &dir).expect("roundtrip");
    assert!(outcome.summary.total_records > 0);
    assert_eq!(
        registry.counter("sniffer.calls").value(),
        plan.calls.len() as u64
    );
    assert_eq!(
        registry.counter("sniffer.records_emitted").value(),
        outcome.summary.total_records
    );
    assert_eq!(registry.counter("sniffer.orphan_replies").value(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_retransmissions_never_duplicate_records() {
    let records = campus(4, 6);
    assert!(records.len() > 100);
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("retrans");

    let options = ReplayOptions {
        connections: 3,
        forced_retransmit_every: Some(5),
        ..ReplayOptions::default()
    };
    let outcome = serve_roundtrip(&plan, &options, &registry, &dir).expect("roundtrip");
    assert!(
        outcome.replay.retransmits > 0,
        "the forcing hook must have fired"
    );
    assert_eq!(outcome.unplanned_calls, 0, "the DRC absorbed every dup");
    // Duplicate replies out of the DRC surface as sniffer orphans, not
    // as extra records.
    let stats = outcome.sniffer.expect("sniffer stats");
    assert!(stats.orphan_replies > 0, "DRC duplicates reach the tap");
    assert_eq!(stored_records(&dir), expected(&records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timescale_pacing_preserves_the_trace() {
    let records = campus(4, 6);
    assert!(!records.is_empty());
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("paced");

    // Six trace-hours in well under a wall-second, but through the
    // pacing arm rather than the as-fast-as-possible one.
    let options = ReplayOptions {
        connections: 2,
        pacing: Pacing::Timescale {
            speedup: 50_000_000.0,
        },
        ..ReplayOptions::default()
    };
    let outcome = serve_roundtrip(&plan, &options, &registry, &dir).expect("roundtrip");
    assert_eq!(outcome.replay.retransmits, 0);
    assert_eq!(stored_records(&dir), expected(&records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn window_of_one_sends_bursts_of_one() {
    let records = campus(4, 6);
    assert!(records.len() > 100);
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("window1");

    // One call in flight per connection: every burst is a single call,
    // answered before the next is sent.
    let options = ReplayOptions {
        connections: 2,
        window: 1,
        ..ReplayOptions::default()
    };
    let outcome = serve_roundtrip(&plan, &options, &registry, &dir).expect("roundtrip");
    assert_eq!(outcome.unplanned_calls, 0);
    assert_eq!(outcome.replay.retransmits, 0);
    assert_eq!(outcome.replay.calls_sent, records.len() as u64);
    assert!(
        outcome.replay.tap.is_empty(),
        "the tap is released once framed"
    );
    assert_eq!(stored_records(&dir), expected(&records));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_duplicates_travel_in_the_burst_of_their_original() {
    let records = campus(4, 6);
    assert!(records.len() > 100);
    let plan = ReplayPlan::from_records(&records);
    let registry = Registry::new();
    let dir = tmpdir("retrans-burst");

    let options = ReplayOptions {
        connections: 2,
        forced_retransmit_every: Some(3),
        ..ReplayOptions::default()
    };
    let outcome = serve_roundtrip(&plan, &options, &registry, &dir).expect("roundtrip");
    // Every third call of each connection goes out twice; clients are
    // dealt to connections round-robin in order of first appearance.
    let ips = plan.client_ips();
    let forced: u64 = (0..2)
        .map(|conn| {
            let on_conn = |ip| ips.iter().position(|known| *known == ip).unwrap() % 2 == conn;
            plan.calls.iter().filter(|c| on_conn(c.client_ip)).count() as u64 / 3
        })
        .sum();
    assert!(forced > 0);
    assert_eq!(outcome.replay.retransmits, forced);
    assert_eq!(registry.counter("replay.retransmits").value(), forced);
    assert_eq!(outcome.replay.calls_sent, records.len() as u64);
    assert_eq!(
        registry.counter("serve.calls").value(),
        records.len() as u64 + forced
    );
    assert_eq!(outcome.unplanned_calls, 0, "the DRC absorbed every dup");
    assert_eq!(stored_records(&dir), expected(&records));
    std::fs::remove_dir_all(&dir).ok();
}
