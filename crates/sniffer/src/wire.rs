//! How a simulated client's NFS exchange looks on the wire — decided
//! here only, for every traffic generator: the addresses and ports of
//! each [`Direction`]; the client's AUTH_UNIX identity
//! ([`client_cred`]) and its inverse; the RPC [`Envelope`]; and the
//! framing of each message as one [`MessageFrames`] cursor
//! ([`WireEncoder::exchange_frames`]).
//!
//! [`WireEncoder::encode_event`] puts the simulator's [`EmittedCall`]s
//! on the wire, so the sniffer does the decoding work the paper's
//! tracer did. NFSv2-tagged clients get genuine NFSv2 messages,
//! narrowed by [`Call2::from_v3`] / [`Reply2::from_v3`] (ACCESS →
//! GETATTR, READDIRPLUS → READDIR), as v2 clients behaved.

use nfstrace_client::EmittedCall;
use nfstrace_net::ethernet::MacAddr;
use nfstrace_net::ipv4::Ipv4Addr4;
use nfstrace_net::packet::PacketBuilder;
use nfstrace_net::pcap::{CapturedPacket, FrameLender};
use nfstrace_net::udp::{self, NFS_PORT};
pub use nfstrace_nfs::v2::DowngradeStats;
use nfstrace_nfs::v2::{Call2, Reply2};
use nfstrace_rpc::auth::{AuthUnix, OpaqueAuth};
use nfstrace_rpc::record::record_mark;
use nfstrace_rpc::{RpcMessage, PROG_NFS};
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

/// Which way a message of an exchange travels: a call from the
/// client's port to [`NFS_PORT`], a reply back. Calls order first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// Client to server.
    Call,
    /// Server to client.
    Reply,
}

/// The AUTH_UNIX credential a simulated client stamps on its calls:
/// machine name `client<hex address>`, so the sniffer recovers `uid`
/// and `gid` and a server recovers the address
/// ([`client_ip_of_machine_name`]).
pub fn client_cred(client_ip: u32, uid: u32, gid: u32) -> OpaqueAuth {
    OpaqueAuth::unix(&AuthUnix::new(format!("client{client_ip:x}"), uid, gid))
}

/// The client address in a machine name [`client_cred`] wrote, or
/// `None` for any other name.
pub fn client_ip_of_machine_name(name: &str) -> Option<u32> {
    u32::from_str_radix(name.strip_prefix("client")?, 16).ok()
}

/// The RPC envelope of one NFS exchange: transaction and client
/// identity around the call's arguments and the reply's results.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// RPC transaction id.
    pub xid: u32,
    /// Client address, named in the credential.
    pub client_ip: u32,
    /// Caller's uid.
    pub uid: u32,
    /// Caller's gid.
    pub gid: u32,
}

impl Envelope {
    /// The call: `args` for NFS version `vers`, procedure `proc`, under
    /// the client's [`client_cred`].
    pub fn call(&self, vers: u32, proc: u32, args: Vec<u8>) -> RpcMessage {
        let cred = client_cred(self.client_ip, self.uid, self.gid);
        RpcMessage::call(self.xid, PROG_NFS, vers, proc, cred, args)
    }

    /// The accepted, successful reply carrying `results`.
    pub fn reply(&self, results: Vec<u8>) -> RpcMessage {
        RpcMessage::reply_success(self.xid, results)
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
}

impl WireEncoder {
    fn new(mode: TransportMode) -> Self {
        WireEncoder {
            mode,
            seq: HashMap::new(),
            initial_seq: 1,
        }
    }

    /// A UDP encoder (the EECS configuration).
    pub fn udp() -> Self {
        Self::new(TransportMode::Udp)
    }

    /// A TCP encoder with jumbo-frame MSS (the CAMPUS configuration).
    pub fn tcp_jumbo() -> Self {
        Self::new(TransportMode::Tcp { mss: 8948 })
    }

    /// A TCP encoder with standard-Ethernet MSS.
    pub fn tcp_standard() -> Self {
        Self::new(TransportMode::Tcp { mss: 1448 })
    }

    /// Starts every new flow at `seq` instead of 1. A value just below
    /// `u32::MAX` makes even a short capture cross the sequence-number
    /// wraparound, as any sufficiently long-lived real flow does.
    pub fn with_initial_seq(mut self, seq: u32) -> Self {
        self.initial_seq = seq;
        self
    }

    /// The one port a client's flows use, derived from its address.
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
        let (call, reply) = build_rpc_pair(e, &mut DowngradeStats::default());
        let (call, reply) = (call.to_xdr_bytes(), reply.to_xdr_bytes());
        let (client, server) = (e.client_ip, e.server_ip);
        let mut out: Vec<_> = self
            .exchange_frames(e.wire_micros, client, server, Direction::Call, &call)
            .collect();
        out.extend(self.exchange_frames(e.reply_micros, client, server, Direction::Reply, &reply));
        out
    }

    /// The frames that put one message of `client_ip`'s exchange with
    /// `server_ip` on the wire: a call from the client's port to
    /// [`NFS_PORT`], a reply back. Every framer of a simulated exchange
    /// goes through here.
    pub fn exchange_frames<'m>(
        &mut self,
        ts: u64,
        client_ip: u32,
        server_ip: u32,
        dir: Direction,
        msg: &'m [u8],
    ) -> MessageFrames<'m> {
        let cport = Self::client_port(client_ip);
        match dir {
            Direction::Call => self.frames(ts, client_ip, server_ip, cport, NFS_PORT, msg),
            Direction::Reply => self.frames(ts, server_ip, client_ip, NFS_PORT, cport, msg),
        }
    }

    /// Puts one already-encoded RPC message on the wire as captured
    /// frames: UDP datagram or record-marked, MSS-chunked TCP segments
    /// with per-flow sequence numbers: the [`WireEncoder::frames`]
    /// cursor collected, each frame one exactly sized allocation of its
    /// own. A caller that observes each frame and lets it go frames
    /// through the cursor instead.
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
    /// the capture tick but stay ordered. Under UDP, panics if `msg`
    /// does not fit one datagram ([`udp::MAX_PAYLOAD_LEN`]).
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
            TransportMode::Udp => {
                let limit = udp::MAX_PAYLOAD_LEN;
                assert!(msg.len() <= limit, "UDP message over {limit} bytes");
                (0, 1)
            }
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
/// protocol version by the event's tag; a v2 event adds what its
/// narrowing saturated to `narrowed`.
pub fn build_rpc_pair(e: &EmittedCall, narrowed: &mut DowngradeStats) -> (RpcMessage, RpcMessage) {
    let env = Envelope {
        xid: e.xid,
        client_ip: e.client_ip,
        uid: e.uid,
        gid: e.gid,
    };
    if e.vers == 2 {
        let call = Call2::from_v3(&e.call, narrowed);
        let reply = Reply2::from_v3(&e.reply, narrowed);
        let proc = call.proc().as_u32();
        (
            env.call(2, proc, call.encode_args()),
            env.reply(reply.encode_results()),
        )
    } else {
        let proc = e.call.proc().as_u32();
        (
            env.call(3, proc, e.call.encode_args()),
            env.reply(e.reply.encode_results()),
        )
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
    fn v2_pair(call: Call3, reply: Reply3, narrowed: &mut DowngradeStats) -> (Call2, Reply2) {
        let e = EmittedCall {
            call,
            reply,
            ..event(2)
        };
        let (call_msg, reply_msg) = build_rpc_pair(&e, narrowed);
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
        let mut tally = DowngradeStats::default();
        for c in calls {
            // The pair decodes under one v2 procedure, and it is the
            // narrowing `nfs::v2` defines.
            let reply = Reply3::error(c.proc(), NfsStat3::Stale);
            let mut narrowed = DowngradeStats::default();
            let want = (
                Call2::from_v3(&c, &mut narrowed),
                Reply2::from_v3(&reply, &mut narrowed),
            );
            assert_eq!(v2_pair(c, reply, &mut tally), want);
        }
        assert_eq!(tally.total(), 0);
    }

    /// Regression: 64-bit cookies and file ids past `u32::MAX` must
    /// saturate, never wrap into small valid-looking v2 values —
    /// `0x1_0000_0005 as u32` used to come out as `5` — and every one
    /// the encoder saturates lands in the tally it is handed.
    #[test]
    fn v2_downgrade_saturates_wide_cookies_and_fileids() {
        use nfstrace_nfs::v3::*;
        let mut tally = DowngradeStats::default();
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
        let (call2, reply2) = v2_pair(call, reply, &mut tally);
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
        assert_eq!(tally.saturated_fileids, 1);
        assert_eq!(tally.saturated_cookies, 2);
        assert_eq!(tally.total(), 3);
    }

    /// The machine name parses back only from what `client_cred`
    /// writes.
    #[test]
    fn machine_name_parses_back_to_the_client() {
        for ip in [0u32, 1, 0x0a00_0001, u32::MAX] {
            let unix = client_cred(ip, 5, 6).as_unix().unwrap().unwrap();
            assert_eq!((unix.uid, unix.gid), (5, 6));
            assert_eq!(client_ip_of_machine_name(&unix.machine_name), Some(ip));
        }
        assert_eq!(client_ip_of_machine_name("host12"), None);
        assert_eq!(client_ip_of_machine_name("clientzz"), None);
    }

    /// One datagram carries at most 65 507 bytes of message over
    /// IPv4; a longer one is refused before any frame is written, not
    /// sent with wrapped length fields.
    #[test]
    #[should_panic(expected = "UDP message over 65507 bytes")]
    fn udp_refuses_a_message_over_one_datagram() {
        let msg = vec![0; 70_000];
        WireEncoder::udp().encode_message(0, 0x0a00_0001, 0x0a00_0002, 700, 2049, &msg);
    }

    #[test]
    fn udp_carries_a_message_of_exactly_one_datagram() {
        let msg = vec![7; udp::MAX_PAYLOAD_LEN];
        let pkts = WireEncoder::udp().encode_message(0, 0x0a00_0001, 0x0a00_0002, 700, 2049, &msg);
        assert_eq!(DecodedPacket::parse(&pkts[0].data).unwrap().payload, msg);
    }
}
