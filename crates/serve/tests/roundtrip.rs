//! The reverse lemma, end to end but in memory: every generated trace
//! record, reconstructed into wire messages ([`nfstrace_serve::reverse`]),
//! framed by the tap ([`nfstrace_serve::tap_to_packets`]), and sniffed
//! back ([`nfstrace_sniffer::Sniffer`]), reproduces the original
//! record — for both workload models, v2-tagged clients included (the
//! one normalized field is `vers`; see the `reverse` module docs).

use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_serve::{tap_to_packets, ReplayPlan, TapEvent};
use nfstrace_sniffer::wire::Direction;
use nfstrace_sniffer::Sniffer;
use nfstrace_workload::{CampusConfig, CampusWorkload, EecsConfig, EecsWorkload};
use std::borrow::Cow;

/// Expands a plan into the tap a loss-free, retransmission-free replay
/// would record: call then reply, per record, in trace order.
fn tap_of_plan(plan: &ReplayPlan) -> Vec<TapEvent<'_>> {
    let mut tap = Vec::new();
    for c in &plan.calls {
        tap.push(TapEvent {
            idx: c.idx,
            dir: Direction::Call,
            micros: c.micros,
            client_ip: c.client_ip,
            server_ip: c.server_ip,
            bytes: Cow::Borrowed(&c.call_bytes),
        });
        if let Some(reply) = &c.reply_bytes {
            tap.push(TapEvent {
                idx: c.idx,
                dir: Direction::Reply,
                micros: c.reply_micros,
                client_ip: c.client_ip,
                server_ip: c.server_ip,
                bytes: Cow::Borrowed(reply),
            });
        }
    }
    tap
}

/// Wire replay normalizes the protocol tag: every record goes out as
/// v3 (the canonical flattening *is* the v3 flattening), so v2-tagged
/// records come back tagged 3.
fn wire_normalized(records: &[TraceRecord]) -> Vec<TraceRecord> {
    records
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.vers = 3;
            r
        })
        .collect()
}

fn assert_reverse_lemma(records: Vec<TraceRecord>) {
    let plan = ReplayPlan::from_records(&records);
    let packets = tap_to_packets(&tap_of_plan(&plan));
    let mut sniffer = Sniffer::new();
    for p in &packets {
        sniffer.observe(p);
    }
    let (sniffed, stats) = sniffer.finish();
    assert_eq!(stats.calls, records.len() as u64);
    assert_eq!(stats.orphan_replies, 0, "every reply has its call");
    assert_eq!(stats.decode_errors, 0, "reconstructed RPC must decode");
    assert_eq!(sniffed, wire_normalized(&records));
}

#[test]
fn campus_trace_survives_the_wire_roundtrip() {
    let records = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1);
    assert!(records.len() > 1_000, "campus day too small to be a test");
    assert_reverse_lemma(records);
}

#[test]
fn eecs_trace_with_v2_clients_survives_the_wire_roundtrip() {
    let records = EecsWorkload::new(EecsConfig {
        users: 4,
        duration_micros: 6 * HOUR,
        seed: 1789,
        ..EecsConfig::default()
    })
    .generate_with_threads(1);
    assert!(
        records.iter().any(|r| r.vers == 2),
        "the point of this test is the v2-tagged share"
    );
    assert_reverse_lemma(records);
}
