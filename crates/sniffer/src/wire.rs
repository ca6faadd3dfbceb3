//! Encoding simulated call/reply events into real packets.
//!
//! The workload simulator produces decoded [`EmittedCall`]s; this module
//! puts them on the simulated wire as actual Ethernet/IPv4/UDP-or-TCP
//! frames carrying XDR-encoded RPC, so the sniffer exercises the same
//! decoding work the paper's tracer did. NFSv2-tagged clients (a share
//! of EECS workstations) are encoded with genuine NFSv2 wire messages,
//! narrowed by [`Call2::from_v3`] / [`Reply2::from_v3`]: v3-only
//! procedures fall back to their closest v2 equivalent (ACCESS →
//! GETATTR, READDIRPLUS → READDIR), mirroring how v2 clients actually
//! behaved.

use nfstrace_client::EmittedCall;
use nfstrace_net::ethernet::MacAddr;
use nfstrace_net::ipv4::Ipv4Addr4;
use nfstrace_net::packet::PacketBuilder;
use nfstrace_net::pcap::{CapturedPacket, FrameLender};
use nfstrace_net::udp::NFS_PORT;
pub use nfstrace_nfs::v2::DowngradeStats;
use nfstrace_nfs::v2::{Call2, Reply2};
use nfstrace_rpc::auth::{AuthUnix, OpaqueAuth};
use nfstrace_rpc::record::record_mark;
use nfstrace_rpc::{RpcMessage, PROG_NFS};
use nfstrace_telemetry::{Counter, Registry};
use nfstrace_xdr::Pack;
use std::collections::HashMap;
use std::convert::Infallible;

/// Which transport a flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// One datagram per RPC message (EECS).
    Udp,
    /// Record-marked stream segments (CAMPUS), with the given MSS.
    Tcp {
        /// Maximum segment payload size (8948 with jumbo frames).
        mss: usize,
    },
}

/// The registry-backed accumulator behind [`DowngradeStats`] — the
/// tally [`Call2::from_v3`] / [`Reply2::from_v3`] keep of 64-bit
/// cookies and file ids saturated into v2's 32 bits — as the
/// `wire.downgrade.*` counters. `Default` counts into a private
/// registry; [`DowngradeCounters::with_registry`] joins a shared one.
#[derive(Debug, Clone)]
pub struct DowngradeCounters {
    saturated_cookies: Counter,
    saturated_fileids: Counter,
}

impl Default for DowngradeCounters {
    fn default() -> Self {
        Self::with_registry(&Registry::new())
    }
}

impl DowngradeCounters {
    /// Counters registered as `wire.downgrade.saturated_cookies` /
    /// `wire.downgrade.saturated_fileids` in `registry`.
    pub fn with_registry(registry: &Registry) -> Self {
        DowngradeCounters {
            saturated_cookies: registry.counter("wire.downgrade.saturated_cookies"),
            saturated_fileids: registry.counter("wire.downgrade.saturated_fileids"),
        }
    }

    /// Adds one message pair's narrowings to the counters.
    fn add(&self, narrowed: DowngradeStats) {
        self.saturated_cookies.add(narrowed.saturated_cookies);
        self.saturated_fileids.add(narrowed.saturated_fileids);
    }

    /// Point-in-time read of the counters.
    pub fn snapshot(&self) -> DowngradeStats {
        DowngradeStats {
            saturated_cookies: self.saturated_cookies.value(),
            saturated_fileids: self.saturated_fileids.value(),
        }
    }
}

/// Encodes events into captured packets.
#[derive(Debug)]
pub struct WireEncoder {
    mode: TransportMode,
    /// Next TCP sequence number per directed flow.
    seq: HashMap<(u32, u32, u16, u16), u32>,
    /// First sequence number of each new flow. Real stacks pick an
    /// arbitrary 32-bit ISN, so a long flow *will* wrap past `u32::MAX`;
    /// seeding this near the top exercises that in a short capture.
    initial_seq: u32,
    /// Lossy v3→v2 narrowings observed while encoding.
    downgrade: DowngradeCounters,
}

impl WireEncoder {
    /// A UDP encoder (the EECS configuration).
    pub fn udp() -> Self {
        WireEncoder {
            mode: TransportMode::Udp,
            seq: HashMap::new(),
            initial_seq: 1,
            downgrade: DowngradeCounters::default(),
        }
    }

    /// A TCP encoder with jumbo-frame MSS (the CAMPUS configuration).
    pub fn tcp_jumbo() -> Self {
        WireEncoder {
            mode: TransportMode::Tcp { mss: 8948 },
            seq: HashMap::new(),
            initial_seq: 1,
            downgrade: DowngradeCounters::default(),
        }
    }

    /// A TCP encoder with standard-Ethernet MSS.
    pub fn tcp_standard() -> Self {
        WireEncoder {
            mode: TransportMode::Tcp { mss: 1448 },
            seq: HashMap::new(),
            initial_seq: 1,
            downgrade: DowngradeCounters::default(),
        }
    }

    /// Starts every new flow at `seq` instead of 1. A value just below
    /// `u32::MAX` makes even a short capture cross the sequence-number
    /// wraparound, as any sufficiently long-lived real flow does.
    pub fn with_initial_seq(mut self, seq: u32) -> Self {
        self.initial_seq = seq;
        self
    }

    /// Counts the `wire.downgrade.*` narrowings into `registry`
    /// instead of this encoder's private one.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.downgrade = DowngradeCounters::with_registry(registry);
        self
    }

    /// Stable client port derived from the client address.
    pub fn client_port(client_ip: u32) -> u16 {
        700 + (client_ip % 251) as u16
    }

    fn mac_of(ip: u32) -> MacAddr {
        let o = ip.to_be_bytes();
        MacAddr::new([0x02, 0x00, o[0], o[1], o[2], o[3]])
    }

    /// Encodes one event into its call and reply packets, in capture
    /// order (call first even if timestamps tie).
    pub fn encode_event(&mut self, e: &EmittedCall) -> Vec<CapturedPacket> {
        let (call_msg, reply_msg) = build_rpc_pair(e, &self.downgrade);
        let cport = Self::client_port(e.client_ip);
        let mut out = Vec::new();
        out.extend(self.encode_message(
            e.wire_micros,
            e.client_ip,
            e.server_ip,
            cport,
            NFS_PORT,
            &call_msg.to_xdr_bytes(),
        ));
        out.extend(self.encode_message(
            e.reply_micros,
            e.server_ip,
            e.client_ip,
            NFS_PORT,
            cport,
            &reply_msg.to_xdr_bytes(),
        ));
        out
    }

    /// Puts one already-encoded RPC message on the wire as captured
    /// frames: UDP datagram or record-marked, MSS-chunked TCP segments
    /// with per-flow sequence numbers. This is the frame-synthesis
    /// primitive behind [`WireEncoder::encode_event`]: the
    /// [`WireEncoder::frames`] cursor collected, each frame one exactly
    /// sized allocation of its own. A caller that observes each frame
    /// and lets it go frames through the cursor instead.
    pub fn encode_message(
        &mut self,
        ts: u64,
        src_ip: u32,
        dst_ip: u32,
        sport: u16,
        dport: u16,
        msg: &[u8],
    ) -> Vec<CapturedPacket> {
        self.frames(ts, src_ip, dst_ip, sport, dport, msg).collect()
    }

    /// A cursor over the frames that put `msg` on the wire, one at a
    /// time: lent from a caller's buffer ([`MessageFrames::lend_next`])
    /// or as owned packets (its `Iterator` impl). The flow's sequence number advances past the
    /// whole message now, so the cursor borrows only `msg`; frames of
    /// one flow must be taken in the order their cursors were made.
    ///
    /// Under TCP the marked stream `mark ‖ msg` is cut at every `mss`
    /// bytes without ever being materialized: each frame is its
    /// headers, then its share of the record mark and of `msg`. Segment
    /// `i` is stamped `ts + i`, so the segments of one message share
    /// the capture tick but stay ordered.
    pub fn frames<'m>(
        &mut self,
        ts: u64,
        src_ip: u32,
        dst_ip: u32,
        sport: u16,
        dport: u16,
        msg: &'m [u8],
    ) -> MessageFrames<'m> {
        let (seq, count) = match self.mode {
            TransportMode::Udp => (0, 1),
            TransportMode::Tcp { mss } => {
                let stream_len = 4 + msg.len();
                let next = self
                    .seq
                    .entry((src_ip, dst_ip, sport, dport))
                    .or_insert(self.initial_seq);
                let seq = *next;
                *next = next.wrapping_add(stream_len as u32);
                (seq, stream_len.div_ceil(mss))
            }
        };
        MessageFrames {
            mode: self.mode,
            ts,
            smac: Self::mac_of(src_ip),
            dmac: Self::mac_of(dst_ip),
            src: Ipv4Addr4::from_u32(src_ip),
            dst: Ipv4Addr4::from_u32(dst_ip),
            sport,
            dport,
            seq,
            msg,
            next: 0,
            count,
        }
    }
}

/// The frames of one message, in wire order: what
/// [`WireEncoder::frames`] returns. One segmentation loop writes every
/// frame; the owned and lent forms differ only in whose buffer it lands
/// in.
#[derive(Debug)]
pub struct MessageFrames<'m> {
    mode: TransportMode,
    ts: u64,
    smac: MacAddr,
    dmac: MacAddr,
    src: Ipv4Addr4,
    dst: Ipv4Addr4,
    sport: u16,
    dport: u16,
    /// TCP: sequence number of the first byte of the marked stream.
    seq: u32,
    msg: &'m [u8],
    /// Index of the next frame.
    next: usize,
    /// Frames in all.
    count: usize,
}

impl MessageFrames<'_> {
    /// Appends the next frame to `out` and returns its capture time, or
    /// `None` once every frame has been written.
    fn write_next(&mut self, out: &mut Vec<u8>) -> Option<u64> {
        if self.next == self.count {
            return None;
        }
        let i = self.next;
        self.next += 1;
        match self.mode {
            TransportMode::Udp => {
                PacketBuilder::write_udp_headers(
                    self.smac,
                    self.dmac,
                    self.src,
                    self.dst,
                    self.sport,
                    self.dport,
                    self.msg.len(),
                    out,
                );
                out.extend_from_slice(self.msg);
            }
            TransportMode::Tcp { mss } => {
                // Segment bounds in the marked stream; the mark is its
                // first four bytes, `msg` the rest.
                let mark = record_mark(self.msg.len());
                let lo = i * mss;
                let hi = (lo + mss).min(mark.len() + self.msg.len());
                PacketBuilder::write_tcp_headers(
                    self.smac,
                    self.dmac,
                    self.src,
                    self.dst,
                    self.sport,
                    self.dport,
                    self.seq.wrapping_add(lo as u32),
                    hi - lo,
                    out,
                );
                out.extend_from_slice(&mark[lo.min(mark.len())..hi.min(mark.len())]);
                out.extend_from_slice(
                    &self.msg[lo.saturating_sub(mark.len())..hi.saturating_sub(mark.len())],
                );
            }
        }
        Some(self.ts + i as u64)
    }

    /// The next frame, written into `lender`'s buffer: no allocation
    /// when the frame lent before it is gone (see [`FrameLender`]).
    pub fn lend_next(&mut self, lender: &mut FrameLender) -> Option<CapturedPacket> {
        if self.next == self.count {
            return None;
        }
        let mut ts = 0;
        let Ok(data) = lender.lend(|buf| {
            buf.clear();
            ts = self.write_next(buf).expect("a frame remains");
            Ok::<_, Infallible>(buf.len())
        });
        Some(CapturedPacket {
            timestamp_micros: ts,
            orig_len: data.len() as u32,
            data,
        })
    }
}

impl Iterator for MessageFrames<'_> {
    type Item = CapturedPacket;

    /// The next frame as a packet owning its bytes.
    fn next(&mut self) -> Option<CapturedPacket> {
        let mut frame = Vec::new();
        let ts = self.write_next(&mut frame)?;
        Some(CapturedPacket::new(ts, frame))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MessageFrames<'_> {}

/// Builds the RPC call and reply messages for an event, choosing the
/// protocol version by the event's tag.
pub fn build_rpc_pair(e: &EmittedCall, downgrade: &DowngradeCounters) -> (RpcMessage, RpcMessage) {
    let cred = OpaqueAuth::unix(&AuthUnix::new(
        format!("client{:x}", e.client_ip),
        e.uid,
        e.gid,
    ));
    if e.vers == 2 {
        let mut narrowed = DowngradeStats::default();
        let call2 = Call2::from_v3(&e.call, &mut narrowed);
        let reply2 = Reply2::from_v3(&e.reply, &mut narrowed);
        downgrade.add(narrowed);
        let call_msg = RpcMessage::call(
            e.xid,
            PROG_NFS,
            2,
            call2.proc().as_u32(),
            cred,
            call2.encode_args(),
        );
        let reply_msg = RpcMessage::reply_success(e.xid, reply2.encode_results());
        (call_msg, reply_msg)
    } else {
        let call_msg = RpcMessage::call(
            e.xid,
            PROG_NFS,
            3,
            e.call.proc().as_u32(),
            cred,
            e.call.encode_args(),
        );
        let reply_msg = RpcMessage::reply_success(e.xid, e.reply.encode_results());
        (call_msg, reply_msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_net::packet::DecodedPacket;
    use nfstrace_nfs::fh::FileHandle;
    use nfstrace_nfs::types::NfsStat3;
    use nfstrace_nfs::v3::{Call3, Read3Args, Read3Res, Reply3, Reply3Body};
    use nfstrace_rpc::record::mark_record;
    use nfstrace_xdr::Unpack;

    fn event(vers: u8) -> EmittedCall {
        EmittedCall {
            wire_micros: 1000,
            reply_micros: 1400,
            xid: 0x55,
            client_ip: 0x0a000001,
            server_ip: 0x0a000002,
            uid: 10,
            gid: 20,
            vers,
            call: Call3::Read(Read3Args {
                file: FileHandle::from_u64(3),
                offset: 0,
                count: 4096,
            }),
            reply: Reply3 {
                status: NfsStat3::Ok,
                body: Reply3Body::Read(Read3Res {
                    file_attributes: None,
                    count: 4096,
                    eof: false,
                    data: vec![0; 4096],
                }),
            },
        }
    }

    #[test]
    fn udp_event_roundtrips_through_rpc_decode() {
        let mut enc = WireEncoder::udp();
        let pkts = enc.encode_event(&event(3));
        assert_eq!(pkts.len(), 2);
        let call_pkt = DecodedPacket::parse(&pkts[0].data).unwrap();
        assert_eq!(call_pkt.dst_port, 2049);
        let msg = RpcMessage::from_xdr_bytes(&call_pkt.payload).unwrap();
        let body = msg.as_call().unwrap();
        assert_eq!(body.prog, PROG_NFS);
        assert_eq!(body.vers, 3);
        let call = Call3::decode(
            nfstrace_nfs::v3::Proc3::from_u32(body.proc).unwrap(),
            &body.args,
        )
        .unwrap();
        assert!(matches!(call, Call3::Read(_)));
        // Credential carries uid/gid.
        let auth = body.cred.as_unix().unwrap().unwrap();
        assert_eq!((auth.uid, auth.gid), (10, 20));
    }

    #[test]
    fn tcp_event_segments_with_record_marking() {
        let mut enc = WireEncoder::tcp_standard();
        let pkts = enc.encode_event(&event(3));
        // Reply carries ~4 KB data over MSS 1448: several segments.
        assert!(pkts.len() >= 4, "packets = {}", pkts.len());
        // Sequence numbers advance within a direction.
        let decoded: Vec<DecodedPacket> = pkts
            .iter()
            .map(|p| DecodedPacket::parse(&p.data).unwrap())
            .collect();
        let server_to_client: Vec<&DecodedPacket> =
            decoded.iter().filter(|d| d.src_port == 2049).collect();
        assert!(server_to_client.len() >= 3);
    }

    /// The frames `encode_message` builds in place against the marked
    /// stream they replace, at every message length where the mark or
    /// the message's end meets a segment boundary.
    #[test]
    fn tcp_message_segments_are_the_marked_stream_cut_at_mss() {
        use nfstrace_net::packet::Transport;
        const ISN: u32 = u32::MAX - 100;
        for (mss, make) in [
            (1448, WireEncoder::tcp_standard as fn() -> WireEncoder),
            (8948, WireEncoder::tcp_jumbo),
        ] {
            let mut enc = make().with_initial_seq(ISN);
            let mut next_seq = ISN;
            let lens = [0, 1, mss - 5, mss - 4, mss - 3, 2 * mss - 4, 2 * mss - 3];
            for (m, len) in lens.into_iter().enumerate() {
                let msg: Vec<u8> = (0..len).map(|i| (i * 7 + m) as u8).collect();
                let stream = mark_record(&msg);
                let ts = 1_000 * m as u64;
                let pkts = enc.encode_message(ts, 0x0a00_0001, 0x0a00_0002, 700, 2049, &msg);
                assert_eq!(
                    pkts.len(),
                    stream.len().div_ceil(mss),
                    "mss {mss} len {len}"
                );
                let mut payloads = Vec::new();
                for (i, p) in pkts.iter().enumerate() {
                    assert_eq!(p.timestamp_micros, ts + i as u64);
                    let d = DecodedPacket::parse(&p.data).unwrap();
                    let want = (stream.len() - i * mss).min(mss);
                    assert_eq!(d.payload.len(), want, "mss {mss} len {len} segment {i}");
                    let Transport::Tcp { seq, .. } = d.transport else {
                        panic!("expected tcp, got {:?}", d.transport);
                    };
                    // One flow throughout: continuous across messages
                    // and across the 32-bit wrap.
                    assert_eq!(seq, next_seq, "mss {mss} len {len} segment {i}");
                    next_seq = next_seq.wrapping_add(want as u32);
                    payloads.extend_from_slice(&d.payload);
                }
                assert_eq!(payloads, stream, "mss {mss} len {len}");
            }
            assert!(next_seq < ISN, "the flow must have wrapped");
        }
    }

    #[test]
    fn v2_event_encodes_nfsv2_wire_format() {
        let mut enc = WireEncoder::udp();
        let pkts = enc.encode_event(&event(2));
        let call_pkt = DecodedPacket::parse(&pkts[0].data).unwrap();
        let msg = RpcMessage::from_xdr_bytes(&call_pkt.payload).unwrap();
        let body = msg.as_call().unwrap();
        assert_eq!(body.vers, 2);
        let call = Call2::decode(
            nfstrace_nfs::v2::Proc2::from_u32(body.proc).unwrap(),
            &body.args,
        )
        .unwrap();
        assert!(matches!(call, Call2::Read { .. }));
    }

    /// A v2-tagged exchange as `build_rpc_pair` puts it on the wire:
    /// the call decoded under the call message's procedure number, the
    /// reply decoded under that same procedure.
    fn v2_pair(call: Call3, reply: Reply3, counters: &DowngradeCounters) -> (Call2, Reply2) {
        let e = EmittedCall {
            call,
            reply,
            ..event(2)
        };
        let (call_msg, reply_msg) = build_rpc_pair(&e, counters);
        let body = call_msg.as_call().unwrap();
        assert_eq!(body.vers, 2);
        let proc = nfstrace_nfs::v2::Proc2::from_u32(body.proc).unwrap();
        (
            Call2::decode(proc, &body.args).unwrap(),
            Reply2::decode(proc, &reply_msg.as_reply().unwrap().results).unwrap(),
        )
    }

    #[test]
    fn v2_downgrade_covers_all_ops() {
        use nfstrace_nfs::v3::*;
        let fh = FileHandle::from_u64(1);
        let dir = DirOpArgs {
            dir: fh.clone(),
            name: "n".into(),
        };
        let calls = vec![
            Call3::Null,
            Call3::Getattr(FhArgs { object: fh.clone() }),
            Call3::Access(Access3Args {
                object: fh.clone(),
                access: 1,
            }),
            Call3::Readlink(FhArgs { object: fh.clone() }),
            Call3::Lookup(dir),
            Call3::Readdirplus(Readdirplus3Args {
                dir: fh.clone(),
                cookie: 0,
                cookieverf: [0; 8],
                dircount: 100,
                maxcount: 200,
            }),
            Call3::Commit(Commit3Args {
                file: fh,
                offset: 0,
                count: 0,
            }),
        ];
        let counters = DowngradeCounters::default();
        for c in calls {
            // The pair decodes under one v2 procedure, and it is the
            // narrowing `nfs::v2` defines.
            let reply = Reply3::error(c.proc(), NfsStat3::Stale);
            let mut narrowed = DowngradeStats::default();
            let want = (
                Call2::from_v3(&c, &mut narrowed),
                Reply2::from_v3(&reply, &mut narrowed),
            );
            assert_eq!(v2_pair(c, reply, &counters), want);
        }
        assert_eq!(counters.snapshot().total(), 0);
    }

    /// Regression: 64-bit cookies and file ids past `u32::MAX` must
    /// saturate, never wrap into small valid-looking v2 values —
    /// `0x1_0000_0005 as u32` used to come out as `5` — and every one
    /// the encoder saturates lands in the `wire.downgrade.*` counters.
    #[test]
    fn v2_downgrade_saturates_wide_cookies_and_fileids() {
        use nfstrace_nfs::v3::*;
        let registry = Registry::new();
        let counters = DowngradeCounters::with_registry(&registry);
        let call = Call3::Readdir(Readdir3Args {
            dir: FileHandle::from_u64(1),
            cookie: u64::from(u32::MAX) + 6, // would truncate to 5
            cookieverf: [0; 8],
            count: 512,
        });
        let reply = Reply3::ok(Reply3Body::Readdir(Readdir3Res {
            dir_attributes: None,
            cookieverf: [0; 8],
            entries: vec![
                DirEntry3 {
                    fileid: u64::from(u32::MAX) + 2,
                    name: "wide".into(),
                    cookie: u64::from(u32::MAX) + 3,
                },
                DirEntry3 {
                    fileid: 42,
                    name: "narrow".into(),
                    cookie: 43,
                },
            ],
            eof: true,
        }));
        let (call2, reply2) = v2_pair(call, reply, &counters);
        assert!(matches!(
            call2,
            Call2::Readdir {
                cookie: u32::MAX,
                ..
            }
        ));
        match reply2 {
            Reply2::Readdir { entries, .. } => {
                assert_eq!((entries[0].fileid, entries[0].cookie), (u32::MAX, u32::MAX));
                assert_eq!((entries[1].fileid, entries[1].cookie), (42, 43));
            }
            other => panic!("unexpected downgrade: {other:?}"),
        }
        let stats = counters.snapshot();
        assert_eq!(stats.saturated_fileids, 1);
        assert_eq!(stats.saturated_cookies, 2);
        assert_eq!(stats.total(), 3);
        assert_eq!(
            registry.counter("wire.downgrade.saturated_cookies").value(),
            2
        );
    }
}
