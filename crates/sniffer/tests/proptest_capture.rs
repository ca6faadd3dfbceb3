//! End-to-end property tests for the zero-copy capture pipeline.
//!
//! A reference pipeline decodes every frame through the *owned* types
//! ([`RpcMessage`], [`Call3`]/[`Call2`], [`Reply3`]/[`Reply2`]) and
//! flattens with the canonical [`v3_to_record`]/[`v2_to_record`]; the
//! sniffer runs the borrowed fast path. Over arbitrary truncations and
//! corruptions of a valid capture the two must agree record-for-record
//! and counter-for-counter: a mangled frame may be dropped and counted
//! as a decode error, an orphan, or a lost reply, but it can never
//! flatten into a wrong record.
//!
//! Below that, the simulator's own framing: `WireEncoder::encode_event`
//! against the same exchange put on the wire by hand.

use std::collections::HashMap;
use std::sync::OnceLock;

use nfstrace_client::{ClientConfig, ClientMachine, EmittedCall};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::NfsServer;
use nfstrace_net::ethernet::MacAddr;
use nfstrace_net::ipv4::Ipv4Addr4;
use nfstrace_net::packet::PacketBuilder;
use nfstrace_nfs::v2::{Call2, Proc2, Reply2};
use nfstrace_nfs::v3::{Call3, Proc3, Reply3};
use nfstrace_rpc::{MsgBody, RpcMessage, PROG_NFS};
use nfstrace_sniffer::wire::{build_rpc_pair, DowngradeStats};
use nfstrace_sniffer::{v2_to_record, v3_to_record, CallMeta, Sniffer, WireEncoder};
use nfstrace_xdr::{Pack, Unpack};
use proptest::prelude::*;

const CLIENT_PORT: u16 = 921;
const CLIENT_IP: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 2);

/// One wire message: timestamp, direction, and its RPC record bytes.
type WireMsg = (u64, bool, Vec<u8>);

/// A short session's events: create, write, read back, remove.
fn session_events(vers: u8) -> Vec<EmittedCall> {
    let mut server = NfsServer::new(0x0a000002);
    let root = server.root_fh();
    let mut client = ClientMachine::new(ClientConfig {
        nfsiods: 1,
        vers,
        ..ClientConfig::default()
    });
    let (fh, t) = client.create(&mut server, 0, &root, "inbox");
    let fh = fh.unwrap();
    let t = client.write(&mut server, t, &fh, 0, 30_000);
    let t = client.read_file(&mut server, t + 1_000_000, &fh);
    client.remove(&mut server, t, &root, "inbox");
    client.take_events()
}

/// A short session's call/reply messages at the RPC-bytes level, built
/// once — the proptest mutates these per case.
fn session_messages(vers: u8) -> Vec<WireMsg> {
    let mut narrowed = DowngradeStats::default();
    let mut msgs = Vec::new();
    for e in session_events(vers) {
        let (call, reply) = build_rpc_pair(&e, &mut narrowed);
        msgs.push((e.wire_micros, true, call.to_xdr_bytes()));
        msgs.push((e.reply_micros, false, reply.to_xdr_bytes()));
    }
    msgs.sort_by_key(|(ts, _, _)| *ts);
    msgs
}

/// The session's events under NFSv3 and under NFSv2.
fn events() -> &'static [EmittedCall] {
    static EVENTS: OnceLock<Vec<EmittedCall>> = OnceLock::new();
    EVENTS.get_or_init(|| {
        let mut events = session_events(3);
        events.extend(session_events(2));
        events
    })
}

fn corpus() -> &'static [WireMsg] {
    static CORPUS: OnceLock<Vec<WireMsg>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut msgs = session_messages(3);
        msgs.extend(session_messages(2));
        msgs
    })
}

/// (kind, position, value): keep the bytes, truncate them, or flip a
/// byte — the three things a lossy mirror port does to a message.
type Mutation = (u8, u16, u8);

fn mutate(bytes: &[u8], (kind, pos, val): Mutation) -> Vec<u8> {
    let mut b = bytes.to_vec();
    match kind {
        0 => {}
        1 => b.truncate(usize::from(pos) % (b.len() + 1)),
        _ => {
            if !b.is_empty() {
                let at = usize::from(pos) % b.len();
                // `| 1` guarantees the xor really changes the byte.
                b[at] ^= val | 1;
            }
        }
    }
    b
}

#[derive(Debug, Default, PartialEq, Eq)]
struct RefCounts {
    rpc_messages: u64,
    calls: u64,
    retransmits: u64,
    matched_replies: u64,
    orphan_replies: u64,
    lost_replies: u64,
    decode_errors: u64,
}

enum RefKind {
    V3(Call3),
    V2(Call2),
}

struct RefPending {
    ts: u64,
    uid: u32,
    gid: u32,
    kind: RefKind,
}

/// The owned-decode oracle: exactly the sniffer's pairing logic, built
/// from the pre-existing owned decoders and canonical flatteners.
fn reference(frames: &[WireMsg]) -> (Vec<TraceRecord>, RefCounts) {
    type Key = (u32, u32, u16, u32);
    let mut pending: HashMap<Key, RefPending> = HashMap::new();
    let mut records = Vec::new();
    let mut c = RefCounts::default();
    for (ts, call_dir, payload) in frames {
        let (src_ip, dst_ip, src_port, dst_port) = if *call_dir {
            (CLIENT_IP.as_u32(), SERVER_IP.as_u32(), CLIENT_PORT, 2049)
        } else {
            (SERVER_IP.as_u32(), CLIENT_IP.as_u32(), 2049, CLIENT_PORT)
        };
        let Ok(msg) = RpcMessage::from_xdr_bytes(payload) else {
            c.decode_errors += 1;
            continue;
        };
        c.rpc_messages += 1;
        match msg.body {
            MsgBody::Call(call) => {
                if call.prog != PROG_NFS {
                    continue;
                }
                let (uid, gid) = call
                    .cred
                    .as_unix()
                    .and_then(|r| r.ok())
                    .map(|a| (a.uid, a.gid))
                    .unwrap_or((0, 0));
                let kind =
                    match call.vers {
                        3 => match Proc3::from_u32(call.proc)
                            .and_then(|p| Call3::decode(p, &call.args))
                        {
                            Ok(c3) => RefKind::V3(c3),
                            Err(_) => {
                                c.decode_errors += 1;
                                continue;
                            }
                        },
                        2 => match Proc2::from_u32(call.proc)
                            .and_then(|p| Call2::decode(p, &call.args))
                        {
                            Ok(c2) => RefKind::V2(c2),
                            Err(_) => {
                                c.decode_errors += 1;
                                continue;
                            }
                        },
                        _ => continue,
                    };
                // A call under a key still pending is that transaction
                // again, not a new one.
                let resent = pending
                    .insert(
                        (src_ip, dst_ip, src_port, msg.xid),
                        RefPending {
                            ts: *ts,
                            uid,
                            gid,
                            kind,
                        },
                    )
                    .is_some();
                if resent {
                    c.retransmits += 1;
                } else {
                    c.calls += 1;
                }
            }
            MsgBody::Reply(reply) => {
                let key = (dst_ip, src_ip, dst_port, msg.xid);
                let Some(p) = pending.remove(&key) else {
                    c.orphan_replies += 1;
                    continue;
                };
                c.matched_replies += 1;
                let meta = CallMeta {
                    wire_micros: p.ts,
                    reply_micros: *ts,
                    xid: msg.xid,
                    client: key.0,
                    server: key.1,
                    uid: p.uid,
                    gid: p.gid,
                    vers: match p.kind {
                        RefKind::V3(_) => 3,
                        RefKind::V2(_) => 2,
                    },
                };
                match p.kind {
                    RefKind::V3(call) => match Reply3::decode(call.proc(), &reply.results) {
                        Ok(r) => records.push(v3_to_record(&meta, &call, &r)),
                        Err(_) => c.decode_errors += 1,
                    },
                    RefKind::V2(call) => match Reply2::decode(call.proc(), &reply.results) {
                        Ok(r) => records.push(v2_to_record(&meta, &call, &r)),
                        Err(_) => c.decode_errors += 1,
                    },
                }
            }
        }
    }
    c.lost_replies = pending.len() as u64;
    records.sort_by_key(|r| r.micros);
    (records, c)
}

fn frame_for(call_dir: bool, payload: Vec<u8>) -> Vec<u8> {
    let (cmac, smac) = (MacAddr::new([2; 6]), MacAddr::new([4; 6]));
    if call_dir {
        PacketBuilder::udp(cmac, smac, CLIENT_IP, SERVER_IP, CLIENT_PORT, 2049, payload)
    } else {
        PacketBuilder::udp(smac, cmac, SERVER_IP, CLIENT_IP, 2049, CLIENT_PORT, payload)
    }
}

proptest! {
    /// Arbitrary per-message mutations: the borrowed pipeline and the
    /// owned oracle agree on every record and every counter.
    #[test]
    fn mutated_capture_matches_owned_oracle(
        muts in proptest::collection::vec(
            (0u8..3, any::<u16>(), any::<u8>()),
            corpus().len(),
        ),
    ) {
        let mutated: Vec<WireMsg> = corpus()
            .iter()
            .zip(&muts)
            .map(|((ts, dir, bytes), m)| (*ts, *dir, mutate(bytes, *m)))
            .collect();

        let (want, counts) = reference(&mutated);

        let mut s = Sniffer::new();
        for (ts, dir, payload) in &mutated {
            s.observe_frame(*ts, &frame_for(*dir, payload.clone()));
        }
        let (got, stats) = s.finish();

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(stats.rpc_messages, counts.rpc_messages);
        prop_assert_eq!(stats.calls, counts.calls);
        prop_assert_eq!(stats.retransmits, counts.retransmits);
        prop_assert_eq!(stats.matched_replies, counts.matched_replies);
        prop_assert_eq!(stats.orphan_replies, counts.orphan_replies);
        prop_assert_eq!(stats.lost_replies, counts.lost_replies);
        prop_assert_eq!(stats.decode_errors, counts.decode_errors);
        prop_assert_eq!(stats.records_emitted, got.len() as u64);
    }

    /// Pure-truncation runs: a cut message can only be dropped (decode
    /// error) or leave its partner unmatched — the surviving records
    /// are exactly the oracle's, never a record with mangled fields.
    #[test]
    fn truncation_never_yields_a_wrong_record(
        cuts in proptest::collection::vec(any::<u16>(), corpus().len()),
    ) {
        let mutated: Vec<WireMsg> = corpus()
            .iter()
            .zip(&cuts)
            .map(|((ts, dir, bytes), cut)| (*ts, *dir, mutate(bytes, (1, *cut, 0))))
            .collect();

        let (want, _) = reference(&mutated);
        let (intact, _) = reference(corpus());

        let mut s = Sniffer::new();
        for (ts, dir, payload) in &mutated {
            s.observe_frame(*ts, &frame_for(*dir, payload.clone()));
        }
        let (got, stats) = s.finish();

        prop_assert_eq!(&got, &want);
        // Every surviving record is byte-identical to a record of the
        // untouched capture: truncation can remove, never alter.
        for r in &got {
            prop_assert!(intact.contains(r));
        }
        let dropped = (intact.len() - got.len()) as u64;
        prop_assert!(
            stats.decode_errors + stats.orphan_replies + stats.lost_replies >= dropped
        );
    }

    /// `encode_event` is the event's call from the client's port to
    /// 2049, then its reply from 2049 back, each framed by a twin
    /// encoder's `encode_message` — for v2 and v3 events, on UDP and at
    /// both TCP segment sizes, from any initial sequence number.
    #[test]
    fn encode_event_is_the_call_then_the_reply_framed_by_hand(
        picks in proptest::collection::vec((any::<u16>(), 0u32..3), 1..16),
        vers in 2u8..4,
        kind in 0u8..3,
        isn in any::<u32>(),
    ) {
        let pool: Vec<&EmittedCall> = events().iter().filter(|e| e.vers == vers).collect();
        prop_assert!(!pool.is_empty());
        let encoder = || match kind {
            0 => WireEncoder::udp(),
            1 => WireEncoder::tcp_standard(),
            _ => WireEncoder::tcp_jumbo(),
        }
        .with_initial_seq(isn);
        let (mut enc, mut twin) = (encoder(), encoder());
        for (pick, client) in picks {
            let e = EmittedCall {
                client_ip: 0x0a00_0010 + client,
                ..pool[usize::from(pick) % pool.len()].clone()
            };
            let (call, reply) = build_rpc_pair(&e, &mut DowngradeStats::default());
            let (client, server) = (e.client_ip, e.server_ip);
            let cport = WireEncoder::client_port(client);
            let mut want =
                twin.encode_message(e.wire_micros, client, server, cport, 2049, &call.to_xdr_bytes());
            want.extend(twin.encode_message(
                e.reply_micros,
                server,
                client,
                2049,
                cport,
                &reply.to_xdr_bytes(),
            ));
            prop_assert_eq!(enc.encode_event(&e), want);
        }
    }
}
