//! The capture tap records what crossed the socket — borrowing the
//! plan's bytes only where they are what was sent or read — and frames
//! it through one lent buffer without changing a framed byte.

use nfstrace_core::index::RecordStream;
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::HOUR;
use nfstrace_live::{LiveConfig, LiveIngest, SnifferSource};
use nfstrace_net::pcap::{CapturedPacket, FrameLender};
use nfstrace_net::udp::NFS_PORT;
use nfstrace_serve::{
    replay, tap_frames, tap_to_packets, NfsService, NfsTcpServer, ReplayOptions, ReplayOutcome,
    ReplayPlan, ReplayService, TapEvent,
};
use nfstrace_sniffer::wire::Direction;
use nfstrace_sniffer::WireEncoder;
use nfstrace_store::StoreIndex;
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusConfig, CampusWorkload};
use proptest::prelude::*;
use std::borrow::Cow;
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-serve-tap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campus_plan() -> ReplayPlan {
    let records = CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: 6 * HOUR,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate_with_threads(1);
    assert!(records.len() > 100);
    ReplayPlan::from_records(&records)
}

/// Replays `replayed` against a server answering from `served`.
fn replay_against<'p>(
    served: &ReplayPlan,
    replayed: &'p ReplayPlan,
    options: &ReplayOptions,
) -> ReplayOutcome<'p> {
    let server_ip = served.calls[0].server_ip;
    let service: Arc<dyn NfsService> = Arc::new(ReplayService::new(served, server_ip));
    let mut server = NfsTcpServer::spawn(service, &Registry::new()).expect("spawn server");
    let outcome = replay(replayed, server.addr(), options, &Registry::new()).expect("replay");
    server.shutdown();
    outcome
}

/// The tap a loss-free, retransmission-free replay of `plan` records.
fn tap_of_plan(plan: &ReplayPlan) -> Vec<TapEvent<'_>> {
    let mut tap = Vec::new();
    for c in &plan.calls {
        let event = |dir, micros, bytes: &[u8]| TapEvent {
            idx: c.idx,
            dir,
            micros,
            client_ip: c.client_ip,
            server_ip: c.server_ip,
            bytes: Cow::Owned(bytes.to_vec()),
        };
        tap.push(event(Direction::Call, c.micros, &c.call_bytes));
        if let Some(reply) = &c.reply_bytes {
            tap.push(event(Direction::Reply, c.reply_micros, reply));
        }
    }
    tap
}

/// The records the capture path stores for `tap`: its frames streamed
/// through the sniffer into a live ingest, read back.
fn captured(tap: &[TapEvent], tag: &str) -> Vec<TraceRecord> {
    let dir = tmpdir(tag);
    let mut source = SnifferSource::new(tap_frames(tap), 512);
    let mut ingest = LiveIngest::create(LiveConfig::new(&dir)).expect("create ingest");
    ingest.run(&mut source).expect("ingest");
    ingest.finish().expect("finish");
    let mut out = Vec::new();
    StoreIndex::open_dir(&dir)
        .expect("open store")
        .for_each_record(&mut |r| out.push(r.clone()));
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// A faithful replay — duplicates from forced retransmissions included
/// — copies no message into its tap: every call is the plan's, and
/// every reply, read byte-equal to the planned one, is too.
#[test]
fn a_faithful_replay_borrows_every_tapped_message_from_the_plan() {
    let plan = campus_plan();
    let options = ReplayOptions {
        forced_retransmit_every: Some(7),
        ..ReplayOptions::default()
    };
    let outcome = replay_against(&plan, &plan, &options);
    assert!(outcome.retransmits > 0, "the forcing hook must have fired");
    let replies = outcome
        .tap
        .iter()
        .filter(|e| e.dir == Direction::Reply)
        .count();
    assert!(replies > plan.calls.len(), "DRC duplicates reach the tap");
    for e in &outcome.tap {
        assert!(
            matches!(e.bytes, Cow::Borrowed(_)),
            "event (idx {}, {:?}) holds a copy",
            e.idx,
            e.dir
        );
    }
}

/// The client's plan says one thing, the server sends another: the tap
/// keeps what was read, so the frames and the captured store carry the
/// server's bytes, not the client's planned ones.
#[test]
fn a_reply_that_differs_from_the_plan_is_tapped_as_read() {
    let served = campus_plan();
    let mut replayed = served.clone();
    let call = replayed
        .calls
        .iter_mut()
        .find(|c| c.reply_bytes.is_some())
        .expect("a call with a reply");
    let idx = call.idx;
    // The low byte of the xid: a reply framed from this copy pairs with
    // no call, so framing from the plan would lose the record.
    call.reply_bytes.as_mut().expect("a reply")[3] ^= 0xff;
    let server_reply = served.calls[idx].reply_bytes.as_deref().expect("a reply");

    let outcome = replay_against(&served, &replayed, &ReplayOptions::default());
    assert_eq!(outcome.retransmits, 0);
    for e in &outcome.tap {
        let differs = (e.idx, e.dir) == (idx, Direction::Reply);
        match &e.bytes {
            Cow::Owned(bytes) => {
                assert!(differs, "event (idx {}, {:?}) copied", e.idx, e.dir);
                assert_eq!(&bytes[..], server_reply, "the reply as the server sent it");
            }
            Cow::Borrowed(_) => assert!(!differs, "the differing reply was borrowed"),
        }
    }

    // Framed, it is the server's stream ...
    let packets = tap_to_packets(&outcome.tap);
    assert_eq!(packets, tap_to_packets(&tap_of_plan(&served)));
    assert_ne!(packets, tap_to_packets(&tap_of_plan(&replayed)));
    // ... and captured, the server's records.
    let store = captured(&outcome.tap, "as-read");
    assert_eq!(store, captured(&tap_of_plan(&served), "served"));
    assert_ne!(store, captured(&tap_of_plan(&replayed), "planned"));
}

/// A packet's observable parts.
fn parts(p: &CapturedPacket) -> (u64, u32, Vec<u8>) {
    (p.timestamp_micros, p.orig_len, p.data.to_vec())
}

/// A message of `len` bytes, its contents drawn from `seed`.
fn message(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Lengths around and beyond one jumbo segment (8 948 bytes with the
/// record mark's four), and small ones.
fn message_len() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..20_000).prop_map(|(pick, len)| match pick {
        0 => len % 64,
        1 => 8_940 + len % 16,
        _ => len,
    })
}

proptest! {
    /// Any tap, framed lazily while an arbitrary subset of the lent
    /// packets is kept alive: every packet, kept or dropped at once,
    /// equals the collected `tap_to_packets` and the `encode_message`
    /// concatenation over the `(idx, dir)`-ordered tap, byte for byte —
    /// the kept ones after the whole tap has been framed past them.
    #[test]
    fn lent_tap_frames_equal_the_encoded_messages(
        events in prop::collection::vec(
            (0usize..8, 0u8..2, 0u64..1_000_000, 0u32..3, message_len(), any::<u8>()),
            0..24,
        ),
        keep in any::<u64>(),
    ) {
        let tap: Vec<TapEvent> = events
            .iter()
            .map(|&(idx, reply, micros, client, len, seed)| TapEvent {
                idx,
                dir: if reply == 1 { Direction::Reply } else { Direction::Call },
                micros,
                client_ip: 0x0a00_0010 + client,
                server_ip: 0x0a00_0001,
                bytes: Cow::Owned(message(len, seed)),
            })
            .collect();

        let mut ordered: Vec<&TapEvent> = tap.iter().collect();
        ordered.sort_by_key(|e| (e.idx, e.dir));
        let mut enc = WireEncoder::tcp_jumbo();
        let mut expected = Vec::new();
        for e in ordered {
            let cport = WireEncoder::client_port(e.client_ip);
            expected.extend(if e.dir == Direction::Call {
                enc.encode_message(e.micros, e.client_ip, e.server_ip, cport, NFS_PORT, &e.bytes)
            } else {
                enc.encode_message(e.micros, e.server_ip, e.client_ip, NFS_PORT, cport, &e.bytes)
            });
        }
        prop_assert_eq!(&tap_to_packets(&tap), &expected);

        let mut kept = Vec::new();
        let mut framed = 0;
        for (i, p) in tap_frames(&tap).enumerate() {
            prop_assert!(i < expected.len());
            prop_assert_eq!(parts(&p), parts(&expected[i]));
            if keep >> (i % 64) & 1 == 1 {
                kept.push((i, p));
            }
            framed += 1;
        }
        prop_assert_eq!(framed, expected.len());
        for (i, p) in &kept {
            prop_assert_eq!(parts(p), parts(&expected[*i]));
        }
    }

    /// One encoder's frame cursor, lent and kept the same way, equals a
    /// twin encoder's `encode_message` per message — across the 32-bit
    /// sequence wrap, on both segment sizes and on UDP.
    #[test]
    fn lent_message_frames_equal_encode_message(
        k in 0u32..40_000,
        mode in 0usize..3,
        lens in prop::collection::vec((message_len(), any::<u8>(), 0u8..2), 1..12),
        keep in any::<u64>(),
    ) {
        let make = || {
            let enc = match mode {
                0 => WireEncoder::tcp_jumbo(),
                1 => WireEncoder::tcp_standard(),
                _ => WireEncoder::udp(),
            };
            enc.with_initial_seq(u32::MAX - k)
        };
        let (mut lent_enc, mut owned_enc) = (make(), make());
        let mut lender = FrameLender::new();
        let mut kept = Vec::new();
        let mut i = 0;
        for (m, &(len, seed, reply)) in lens.iter().enumerate() {
            let msg = message(len, seed);
            let (src, dst, sport, dport) = if reply == 0 {
                (0x0a00_0010, 0x0a00_0001, 700, NFS_PORT)
            } else {
                (0x0a00_0001, 0x0a00_0010, NFS_PORT, 700)
            };
            let ts = 1_000 * m as u64;
            let expected = owned_enc.encode_message(ts, src, dst, sport, dport, &msg);
            let mut frames = lent_enc.frames(ts, src, dst, sport, dport, &msg);
            prop_assert_eq!(frames.len(), expected.len());
            for want in &expected {
                let p = frames.lend_next(&mut lender).expect("a frame per packet");
                prop_assert_eq!(parts(&p), parts(want));
                if keep >> (i % 64) & 1 == 1 {
                    kept.push((p, want.clone()));
                }
                i += 1;
            }
            prop_assert!(frames.lend_next(&mut lender).is_none());
        }
        for (p, want) in &kept {
            prop_assert_eq!(parts(p), parts(want));
        }
    }
}
