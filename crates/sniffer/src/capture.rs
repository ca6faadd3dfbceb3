//! The sniffer: packets in, paired trace records out.
//!
//! Mirrors the paper's tool: parse each frame down to its transport
//! payload; for UDP every datagram is one RPC message; for TCP,
//! reassemble the byte stream per directed flow and split RPC records
//! out of it (tolerating coalescing and out-of-order segments); decode
//! the RPC envelope; decode NFS call arguments by program/version/
//! procedure; hold calls in an XID table; and on each reply, pair and
//! flatten into a [`TraceRecord`]. Packet loss surfaces as unmatched
//! calls and orphan replies, which are counted exactly as §4.1.4
//! describes.
//!
//! # Zero-copy wire path
//!
//! Every stage between the captured frame and the final record works
//! on borrowed bytes: [`PacketView`] peels headers without copying the
//! payload, an in-order TCP payload passes through the
//! [`StreamReassembler`] as the frame's own slice
//! ([`StreamReassembler::push_read`]), the per-flow [`RecordReader`]
//! hands out records as slices of the stream, the RPC envelope is read
//! through [`RpcMessageView`], and NFS calls and replies decode through
//! the borrowed view / streamed-facts types. Owned data is materialized
//! exactly once, at the [`TraceRecord`] itself: file names at call
//! time, and nothing at reply time.
//!
//! A payload byte is copied once on its way from the frame to the
//! decoder, into one of the record reader's two buffers: the stream
//! buffer, when the record lies inside one segment (then decoded in
//! place), or the record scratch, when the record spans segments or
//! fragments — the bytes after the first segment go there directly, so
//! a large READ or WRITE is assembled once, not staged and re-copied.
//! [`SnifferStats::alloc_fallbacks`] counts the records assembled that
//! way. In steady state a frame costs no heap allocation and no atomic
//! operation here: buffers are reused, the record's name strings are
//! the only allocations, and the statistics are plain adds on a struct
//! the sniffer owns, carried to the registry once per drain.

use crate::convert::{v2_apply_facts, v2_call_record, v3_apply_facts, v3_call_record, CallMeta};
use nfstrace_core::record::TraceRecord;
use nfstrace_net::packet::{PacketView, Transport};
use nfstrace_net::pcap::CapturedPacket;
use nfstrace_net::reassembly::StreamReassembler;
use nfstrace_net::udp::NFS_PORT;
use nfstrace_nfs::v2::{Call2View, Proc2, ReplyFacts2};
use nfstrace_nfs::v3::{Call3View, Proc3, ReplyFacts3};
use nfstrace_rpc::record::RecordReader;
use nfstrace_rpc::xid::{FlowXid, XidMatcher};
use nfstrace_rpc::{MsgBodyView, RpcMessageView, PROG_NFS};
use nfstrace_telemetry::{Counter, Gauge, Registry};
use std::collections::HashMap;

/// How long a call waits for its reply before being counted lost.
const CALL_TIMEOUT_MICROS: u64 = 120 * 1_000_000;

/// Bytes parked behind a TCP gap before the gap is declared a real
/// loss and abandoned.
const GAP_SKIP_THRESHOLD: u64 = 32 * 1024;

/// Finds the first plausible RPC record boundary in post-gap stream
/// bytes: a record mark with a sane length followed by an RPC header
/// whose message type is CALL or REPLY. The paper's tools resynchronize
/// the same way after losing packets through the mirror port.
///
/// The mark's last-fragment bit may be *clear*: a record large enough to
/// be split into fragments (RFC 1831 §10) opens with a non-final mark,
/// and demanding the bit would skip every such record — landing inside
/// it instead and losing it. With the bit no longer discriminating, the
/// fourth word doubles as a check: a CALL's rpcvers is 2 and a REPLY's
/// reply_stat is 0 or 1, so anything above 2 there is mid-record data.
fn resync_offset(bytes: &[u8]) -> usize {
    let take4 = |at: usize| -> Option<u32> {
        bytes
            .get(at..at + 4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    };
    let mut at = 0;
    while at + 16 <= bytes.len() {
        if let (Some(mark), Some(mtype), Some(vers_or_stat)) =
            (take4(at), take4(at + 8), take4(at + 12))
        {
            let len = (mark & 0x7fff_ffff) as usize;
            if (16..1 << 20).contains(&len) && mtype <= 1 && vers_or_stat <= 2 {
                return at;
            }
        }
        at += 4; // records are XDR-aligned in our streams
    }
    bytes.len()
}

/// The counters describing one sniffer's capture session — the one
/// tally of the §4.1.4 completeness estimate.
///
/// This struct is the tally itself: the sniffer owns one and bumps its
/// fields with plain adds as frames go by ([`Sniffer::stats`] returns a
/// copy). The `sniffer.*` counters of the sniffer's [`Registry`]
/// ([`Sniffer::with_registry`]) receive the difference since the last
/// hand-over at every [`Sniffer::drain_ready_into`] and at
/// [`Sniffer::finish`], so the exported values trail the tally by at
/// most one batch and equal it after each drain — and, on a registry
/// several sniffers share, sum over them.
///
/// Accounting rules for the XID table (the matcher itself counts
/// nothing; these fields are what its return values add up to):
///
/// - Every *distinct* transaction bumps `calls` exactly once. A
///   retransmission — the same flow and XID seen again while the call
///   is still outstanding — bumps `retransmits` instead: it is the same
///   transaction on the wire twice, and counting it as fresh would
///   inflate the loss-rate denominator.
/// - A transaction then resolves exactly one way: its reply pairs
///   (`matched_replies`), or it outwaits the 120 s reply timeout or the
///   end of the capture (`lost_replies`).
/// - A reply with no outstanding call bumps `orphan_replies`; its call
///   was never captured, so it never appears in `calls`.
///
/// Expiry order is deterministic (call time, then flow key), so loss
/// reports are bit-stable across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnifferStats {
    /// Frames observed.
    pub frames: u64,
    /// Frames that failed to parse (non-IP, truncated, non-NFS port).
    pub ignored_frames: u64,
    /// RPC messages decoded.
    pub rpc_messages: u64,
    /// RPC decode failures (corrupt or partial messages).
    pub decode_errors: u64,
    /// Distinct NFS call transactions seen (retransmissions excluded).
    pub calls: u64,
    /// Calls seen again under a flow and XID still awaiting its reply;
    /// these do **not** count in `calls`.
    pub retransmits: u64,
    /// Replies paired with calls.
    pub matched_replies: u64,
    /// Replies whose call was never captured (call lost).
    pub orphan_replies: u64,
    /// Calls that never saw a reply (reply lost).
    pub lost_replies: u64,
    /// Bytes skipped over TCP stream gaps.
    pub tcp_bytes_lost: u64,
    /// Frames that parsed down to an NFS-port transport payload
    /// (`frames` minus `ignored_frames`).
    pub frames_decoded: u64,
    /// RPC record bytes handed to the envelope decoder, whether or not
    /// they decoded.
    pub bytes_decoded: u64,
    /// Trace records produced from paired call/reply messages.
    pub records_emitted: u64,
    /// RPC records that did not lie whole inside one segment and were
    /// assembled — once — in the reader's scratch buffer instead
    /// (multi-fragment records, or records split across segment
    /// boundaries). Zero on a well-behaved single-segment feed; against
    /// `rpc_messages`, the share of messages larger than a segment.
    pub alloc_fallbacks: u64,
}

impl SnifferStats {
    /// The §4.1.4 loss estimate: unmatched messages over all messages,
    /// `(orphan_replies + lost_replies) / (calls + matched_replies +
    /// orphan_replies)`. A lost call surfaces as an orphan reply, a lost
    /// reply as a lost reply; `retransmits` feeds neither side.
    ///
    /// This is what the *sniffer* failed to pair, not what the tap
    /// failed to deliver: over TCP a lost segment also costs the pairs
    /// behind it in the stream. `repro --only loss`, 16.7 % of frames
    /// dropped: of 19 415 pairs 13 089 arrive whole and 3 205 are
    /// paired over TCP (estimate 80.0 %, true pair loss 32.6 %); over
    /// UDP 13 149 whole, 13 149 paired (estimate 18.8 %, true 32.3 %).
    pub fn estimated_loss_rate(&self) -> f64 {
        let total = self.calls + self.matched_replies + self.orphan_replies;
        if total == 0 {
            0.0
        } else {
            (self.orphan_replies + self.lost_replies) as f64 / total as f64
        }
    }
}

/// Which protocol version a pending call used, for decoding its reply.
#[derive(Debug, Clone, Copy)]
enum ProcKind {
    V3(Proc3),
    V2(Proc2),
}

/// A call awaiting its reply. The trace record is already built from
/// the borrowed call view — names materialized, reply-side fields at
/// their defaults — so pairing a reply only patches scalar fields in.
#[derive(Debug)]
struct Pending {
    proc: ProcKind,
    record: TraceRecord,
}

type FlowKey = (u32, u32, u16, u16);

/// The transport addresses of one frame: the only per-packet state the
/// RPC layer needs, small enough to copy past the payload borrow.
#[derive(Debug, Clone, Copy)]
struct FlowAddrs {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
}

/// Everything downstream of TCP reassembly: RPC envelope decode, the
/// XID table, record building, and counters. Split from the per-flow
/// stream state so a record slice borrowed from a [`RecordReader`] can
/// be decoded in place while this half is mutated.
#[derive(Debug)]
struct Engine {
    matcher: XidMatcher<Pending>,
    records: Vec<TraceRecord>,
    /// The running tally, bumped per frame and per message.
    stats: SnifferStats,
    metrics: SnifferMetrics,
    /// Latest frame timestamp observed (capture feeds are in time
    /// order), half of the [`Sniffer::drain_ready`] watermark.
    last_frame_micros: u64,
}

/// Registry handles for the `sniffer.*` metrics, resolved once at
/// construction and touched once per drain, never per frame.
#[derive(Debug)]
struct SnifferMetrics {
    frames: Counter,
    ignored_frames: Counter,
    rpc_messages: Counter,
    decode_errors: Counter,
    calls: Counter,
    retransmits: Counter,
    matched_replies: Counter,
    orphan_replies: Counter,
    lost_replies: Counter,
    tcp_bytes_lost: Counter,
    frames_decoded: Counter,
    bytes_decoded: Counter,
    records_emitted: Counter,
    alloc_fallbacks: Counter,
    loss_rate: Gauge,
    /// The part of the sniffer's tally the counters have received.
    published: SnifferStats,
}

impl SnifferMetrics {
    fn register(registry: &Registry) -> Self {
        SnifferMetrics {
            frames: registry.counter("sniffer.frames"),
            ignored_frames: registry.counter("sniffer.ignored_frames"),
            rpc_messages: registry.counter("sniffer.rpc_messages"),
            decode_errors: registry.counter("sniffer.decode_errors"),
            calls: registry.counter("sniffer.calls"),
            retransmits: registry.counter("sniffer.retransmits"),
            matched_replies: registry.counter("sniffer.matched_replies"),
            orphan_replies: registry.counter("sniffer.orphan_replies"),
            lost_replies: registry.counter("sniffer.lost_replies"),
            tcp_bytes_lost: registry.counter("sniffer.tcp_bytes_lost"),
            frames_decoded: registry.counter("sniffer.frames_decoded"),
            bytes_decoded: registry.counter("sniffer.bytes_decoded"),
            records_emitted: registry.counter("sniffer.records_emitted"),
            alloc_fallbacks: registry.counter("sniffer.alloc_fallbacks"),
            loss_rate: registry.gauge("sniffer.estimated_loss_rate"),
            published: SnifferStats::default(),
        }
    }

    /// Adds what the tally `now` has gained since the last call to the
    /// counters and refreshes the `sniffer.estimated_loss_rate` gauge
    /// from their new values (everything counted into this registry,
    /// whichever sniffer counted it).
    fn publish(&mut self, now: &SnifferStats) {
        let was = std::mem::replace(&mut self.published, *now);
        // The handles are named after the tally's fields.
        macro_rules! carry {
            ($($field:ident),*) => {
                $(self.$field.add(now.$field - was.$field);)*
            };
        }
        carry!(
            frames,
            ignored_frames,
            rpc_messages,
            decode_errors,
            calls,
            retransmits,
            matched_replies,
            orphan_replies,
            lost_replies,
            tcp_bytes_lost,
            frames_decoded,
            bytes_decoded,
            records_emitted,
            alloc_fallbacks
        );
        let registered = SnifferStats {
            calls: self.calls.value(),
            matched_replies: self.matched_replies.value(),
            orphan_replies: self.orphan_replies.value(),
            lost_replies: self.lost_replies.value(),
            ..SnifferStats::default()
        };
        self.loss_rate.set(registered.estimated_loss_rate());
    }
}

/// The passive tracer.
#[derive(Debug)]
pub struct Sniffer {
    streams: HashMap<FlowKey, (StreamReassembler, RecordReader)>,
    engine: Engine,
}

impl Default for Sniffer {
    fn default() -> Self {
        Self::new()
    }
}

impl Sniffer {
    /// Creates a sniffer counting into a private registry.
    pub fn new() -> Self {
        Self::with_registry(&Registry::new())
    }

    /// Like [`Sniffer::new`], but publishes into `registry`: the
    /// `sniffer.*` metrics, carried over from the sniffer's own
    /// [`SnifferStats`] at every drain and at `finish`, never per frame.
    /// A daemon passes its shared registry here so the capture layer
    /// shows up in the unified export.
    pub fn with_registry(registry: &Registry) -> Self {
        Sniffer {
            streams: HashMap::new(),
            engine: Engine {
                matcher: XidMatcher::new(CALL_TIMEOUT_MICROS),
                records: Vec::new(),
                stats: SnifferStats::default(),
                metrics: SnifferMetrics::register(registry),
                last_frame_micros: 0,
            },
        }
    }

    /// Observes one captured packet.
    pub fn observe(&mut self, pkt: &CapturedPacket) {
        self.observe_frame(pkt.timestamp_micros, &pkt.data);
    }

    /// Observes a batch of captured packets.
    ///
    /// Equivalent to calling [`Sniffer::observe`] on each in order;
    /// batching keeps the per-flow stream state and the decode tables
    /// hot across packets, which is how the live capture path hands
    /// frames over.
    pub fn observe_batch(&mut self, packets: &[CapturedPacket]) {
        for p in packets {
            self.observe_frame(p.timestamp_micros, &p.data);
        }
    }

    /// Observes one raw frame at `ts` microseconds.
    pub fn observe_frame(&mut self, ts: u64, frame: &[u8]) {
        self.engine.stats.frames += 1;
        self.engine.last_frame_micros = self.engine.last_frame_micros.max(ts);
        let Ok(pkt) = PacketView::parse(frame) else {
            self.engine.stats.ignored_frames += 1;
            return;
        };
        // Only NFS traffic is interesting.
        if pkt.src_port != NFS_PORT && pkt.dst_port != NFS_PORT {
            self.engine.stats.ignored_frames += 1;
            return;
        }
        self.engine.stats.frames_decoded += 1;
        let addrs = FlowAddrs {
            src_ip: pkt.src_ip.as_u32(),
            dst_ip: pkt.dst_ip.as_u32(),
            src_port: pkt.src_port,
            dst_port: pkt.dst_port,
        };
        match pkt.transport {
            Transport::Udp => {
                // One datagram is one RPC message, decoded straight out
                // of the frame.
                self.engine.on_rpc_bytes(addrs, ts, pkt.payload, false);
            }
            Transport::Tcp { seq, .. } => {
                let key: FlowKey = (addrs.src_ip, addrs.dst_ip, addrs.src_port, addrs.dst_port);
                let (reasm, reader) = self
                    .streams
                    .entry(key)
                    .or_insert_with(|| (StreamReassembler::new(seq), RecordReader::new()));
                let engine = &mut self.engine;
                // An in-order payload reaches the record reader as the
                // frame's own slice; anything else through the
                // reassembler's drain buffer.
                reader.push(reasm.push_read(seq, pkt.payload));
                loop {
                    // Drain every complete record first, decoding each
                    // in place as a slice of the reader's buffers.
                    loop {
                        match reader.next_record_ref() {
                            Ok(Some(rec)) => {
                                engine.on_rpc_bytes(addrs, ts, rec.bytes, rec.assembled)
                            }
                            Ok(None) => break,
                            Err(_) => {
                                engine.stats.decode_errors += 1;
                                reader.reset();
                                break;
                            }
                        }
                    }
                    // A gap with substantial data parked behind it means
                    // the mirror port really dropped segments: abandon
                    // the gap (losing the record that spanned it) and
                    // resynchronize on the next plausible record mark.
                    if reasm.has_gap() && reasm.pending_bytes() > GAP_SKIP_THRESHOLD {
                        engine.stats.tcp_bytes_lost += reasm.skip_gap();
                        reader.reset();
                        let more = reasm.read_available();
                        let at = resync_offset(more);
                        engine.stats.tcp_bytes_lost += at as u64;
                        reader.push(&more[at..]);
                        continue;
                    }
                    break;
                }
            }
        }
    }

    /// Current statistics: this sniffer's own tally, up to the last
    /// frame observed.
    pub fn stats(&self) -> SnifferStats {
        self.engine.stats
    }

    /// Drains the records that are *final*: no frame observed from now
    /// on can produce a record that sorts before (or ties with) them.
    ///
    /// A record is stamped with its **call's** capture time, so the
    /// watermark is the minimum of the oldest still-outstanding call
    /// and the latest frame timestamp; records strictly below it are
    /// returned time-sorted, the rest stay buffered. Calls that have
    /// outwaited the reply timeout are expired first (counted as lost,
    /// exactly as `finish` counts them) — otherwise one lost reply
    /// would pin the watermark forever and a months-long live capture
    /// would silently buffer everything after it. Interleaving any
    /// number of `drain_ready` calls with [`Sniffer::finish`] yields —
    /// concatenated — exactly the record sequence a single `finish`
    /// would have returned (a reply arriving beyond the 120 s call
    /// timeout pairs in a one-shot capture but counts lost here, as it
    /// would in any capture whose drains run on time), which is what
    /// lets a live ingest consume a capture incrementally instead of
    /// buffering it whole. Frames
    /// must be observed in nondecreasing timestamp order (capture
    /// feeds are).
    pub fn drain_ready(&mut self) -> Vec<TraceRecord> {
        let mut ready = Vec::new();
        self.drain_ready_into(&mut ready);
        ready
    }

    /// [`Sniffer::drain_ready`] into a caller-owned buffer, appending —
    /// the batched hand-off: a live ingest loop reuses one buffer
    /// across drains instead of allocating a fresh `Vec` per poll. The
    /// drain is also where the registry's `sniffer.*` counters catch up
    /// with [`Sniffer::stats`].
    pub fn drain_ready_into(&mut self, out: &mut Vec<TraceRecord>) {
        // An expired call's late reply is rejected as an orphan, so no
        // record can ever be produced from it: the watermark may move
        // past it.
        let expired = self.engine.matcher.expire();
        self.engine.stats.lost_replies += expired.len() as u64;
        let watermark = self
            .engine
            .matcher
            .oldest_pending_micros()
            .unwrap_or(u64::MAX)
            .min(self.engine.last_frame_micros);
        // Stable: equal timestamps keep pairing order, exactly as the
        // whole-capture sort in `finish` orders them. Sorting the kept
        // tail too is harmless — a stable re-sort of sorted data is the
        // identity — and makes the ready prefix a single drain.
        self.engine.records.sort_by_key(|r| r.micros);
        let cut = self
            .engine
            .records
            .partition_point(|r| r.micros < watermark);
        out.extend(self.engine.records.drain(..cut));
        self.engine.metrics.publish(&self.engine.stats);
    }

    /// Ends the capture: expires outstanding calls (counted as lost
    /// replies) and returns the time-sorted records plus statistics.
    ///
    /// After [`Sniffer::drain_ready`] calls, this returns only the
    /// not-yet-drained tail — `finish` is the final drain.
    pub fn finish(self) -> (Vec<TraceRecord>, SnifferStats) {
        let mut engine = self.engine;
        let lost = engine.matcher.drain();
        engine.stats.lost_replies += lost.len() as u64;
        engine.records.sort_by_key(|r| r.micros);
        engine.metrics.publish(&engine.stats);
        (engine.records, engine.stats)
    }
}

impl Engine {
    /// Decodes one RPC record (a UDP datagram's payload or one record
    /// split out of a TCP stream), borrowed from the capture buffers.
    ///
    /// `assembled` marks bytes that had to be copied into the record
    /// reader's scratch buffer first; it only feeds the
    /// [`SnifferStats::alloc_fallbacks`] counter.
    fn on_rpc_bytes(&mut self, addrs: FlowAddrs, ts: u64, bytes: &[u8], assembled: bool) {
        self.stats.bytes_decoded += bytes.len() as u64;
        self.stats.alloc_fallbacks += u64::from(assembled);
        let Ok(msg) = RpcMessageView::decode(bytes) else {
            self.stats.decode_errors += 1;
            return;
        };
        self.stats.rpc_messages += 1;
        match msg.body {
            MsgBodyView::Call(call) => {
                if call.prog != PROG_NFS {
                    return;
                }
                let (uid, gid) = call.cred.unix_uid_gid().unwrap_or((0, 0));
                let meta = CallMeta {
                    wire_micros: ts,
                    reply_micros: 0,
                    xid: msg.xid,
                    client: addrs.src_ip,
                    server: addrs.dst_ip,
                    uid,
                    gid,
                    vers: call.vers as u8,
                };
                let pending = match call.vers {
                    3 => {
                        let decoded = Proc3::from_u32(call.proc)
                            .and_then(|p| Call3View::decode(p, call.args).map(|v| (p, v)));
                        match decoded {
                            Ok((proc, view)) => Pending {
                                proc: ProcKind::V3(proc),
                                record: v3_call_record(&meta, &view),
                            },
                            Err(_) => {
                                self.stats.decode_errors += 1;
                                return;
                            }
                        }
                    }
                    2 => {
                        let decoded = Proc2::from_u32(call.proc)
                            .and_then(|p| Call2View::decode(p, call.args).map(|v| (p, v)));
                        match decoded {
                            Ok((proc, view)) => Pending {
                                proc: ProcKind::V2(proc),
                                record: v2_call_record(&meta, &view),
                            },
                            Err(_) => {
                                self.stats.decode_errors += 1;
                                return;
                            }
                        }
                    }
                    _ => return,
                };
                let key = FlowXid {
                    client_ip: addrs.src_ip,
                    server_ip: addrs.dst_ip,
                    client_port: addrs.src_port,
                    xid: msg.xid,
                };
                if self.matcher.insert_call(key, ts, pending) {
                    self.stats.retransmits += 1;
                } else {
                    self.stats.calls += 1;
                }
            }
            MsgBodyView::Reply(reply) => {
                let key = FlowXid {
                    client_ip: addrs.dst_ip,
                    server_ip: addrs.src_ip,
                    client_port: addrs.dst_port,
                    xid: msg.xid,
                };
                let Some(pending) = self.matcher.match_reply(key, ts) else {
                    // "It is impossible to decode an NFS response without
                    // seeing the call."
                    self.stats.orphan_replies += 1;
                    return;
                };
                self.stats.matched_replies += 1;
                let mut record = pending.data.record;
                let decoded = match pending.data.proc {
                    ProcKind::V3(proc) => ReplyFacts3::decode(proc, reply.results)
                        .map(|facts| v3_apply_facts(&mut record, ts, &facts)),
                    ProcKind::V2(proc) => ReplyFacts2::decode(proc, reply.results)
                        .map(|facts| v2_apply_facts(&mut record, ts, &facts)),
                };
                match decoded {
                    Ok(()) => {
                        self.records.push(record);
                        self.stats.records_emitted += 1;
                    }
                    Err(_) => self.stats.decode_errors += 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::v3_to_record;
    use crate::wire::WireEncoder;
    use nfstrace_client::{ClientConfig, ClientMachine, EmittedCall};
    use nfstrace_fssim::NfsServer;
    use nfstrace_net::packet::DecodedPacket;
    use nfstrace_rpc::RpcMessage;
    use nfstrace_xdr::Pack;

    /// A short client session's events.
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
        let t = client.write(&mut server, t, &fh, 0, 100_000);
        server
            .fs_mut()
            .write(fh.as_u64().unwrap(), 100_000, 5_000, t + 1)
            .unwrap();
        let t = client.read_file(&mut server, t + 40_000_000, &fh);
        client.remove(&mut server, t, &root, "inbox");
        client.take_events()
    }

    fn sniff(packets: &[CapturedPacket]) -> (Vec<TraceRecord>, SnifferStats) {
        let mut s = Sniffer::new();
        for p in packets {
            s.observe(p);
        }
        s.finish()
    }

    #[test]
    fn udp_pipeline_reproduces_direct_records() {
        let events = session_events(3);
        let mut enc = WireEncoder::udp();
        let mut packets = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        let (records, stats) = sniff(&packets);
        assert_eq!(stats.calls, events.len() as u64);
        assert_eq!(stats.matched_replies, events.len() as u64);
        assert_eq!(stats.orphan_replies, 0);
        assert_eq!(records.len(), events.len());

        // Compare against the direct (fast-path) conversion.
        let direct: Vec<TraceRecord> = {
            let mut v: Vec<TraceRecord> = events
                .iter()
                .map(|e| {
                    let meta = CallMeta {
                        wire_micros: e.wire_micros,
                        reply_micros: e.reply_micros,
                        xid: e.xid,
                        client: e.client_ip,
                        server: e.server_ip,
                        uid: e.uid,
                        gid: e.gid,
                        vers: e.vers,
                    };
                    v3_to_record(&meta, &e.call, &e.reply)
                })
                .collect();
            v.sort_by_key(|r| r.micros);
            v
        };
        assert_eq!(records, direct);
    }

    #[test]
    fn tcp_pipeline_with_coalescing_and_reordering() {
        let events = session_events(3);
        let mut enc = WireEncoder::tcp_jumbo();
        let mut packets = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        // Swap adjacent same-direction segments to exercise reassembly
        // (a reply can never precede its call at a single capture point,
        // so only like-direction swaps are physical).
        let mut i = 2;
        while i + 1 < packets.len() {
            let a = DecodedPacket::parse(&packets[i].data).unwrap().src_port;
            let b = DecodedPacket::parse(&packets[i + 1].data).unwrap().src_port;
            if i % 5 == 0 && a == b {
                packets.swap(i, i + 1);
            }
            i += 1;
        }
        let (records, stats) = sniff(&packets);
        assert_eq!(records.len(), events.len());
        assert_eq!(stats.orphan_replies, 0);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn v2_pipeline_produces_v2_records() {
        let events = session_events(2);
        let mut enc = WireEncoder::udp();
        let mut packets = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        let (records, stats) = sniff(&packets);
        assert!(stats.decode_errors == 0);
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.vers == 2));
        // The write and read still carry their byte ranges.
        assert!(records.iter().any(|r| r.op.is_write() && r.count > 0));
    }

    #[test]
    fn dropped_call_counts_orphan_reply() {
        let events = session_events(3);
        let mut enc = WireEncoder::udp();
        let mut packets = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        // Drop the first call packet (even index = call in UDP mode).
        packets.remove(0);
        let (records, stats) = sniff(&packets);
        assert_eq!(stats.orphan_replies, 1);
        assert_eq!(records.len(), events.len() - 1);
        assert!(stats.estimated_loss_rate() > 0.0);
    }

    #[test]
    fn dropped_reply_counts_lost_reply() {
        let events = session_events(3);
        let mut enc = WireEncoder::udp();
        let mut packets = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        packets.remove(1); // first reply
        let (records, stats) = sniff(&packets);
        assert_eq!(stats.lost_replies, 1);
        assert_eq!(records.len(), events.len() - 1);
    }

    /// A call retransmitted on the same flow and XID is one transaction:
    /// when no reply ever comes, it is one call with a lost reply, and
    /// the capture lost everything it saw of that transaction.
    #[test]
    fn retransmitted_call_without_reply_is_one_lost_transaction() {
        let events = session_events(3);
        let call = WireEncoder::udp().encode_event(&events[0]).remove(0);
        let mut again = call.clone();
        again.timestamp_micros += 1_000_000;
        let (records, stats) = sniff(&[call, again]);
        assert!(records.is_empty());
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.retransmits, 1);
        assert_eq!(stats.lost_replies, 1);
        assert_eq!(stats.estimated_loss_rate(), 1.0);
    }

    #[test]
    fn incremental_drain_equals_one_shot_finish() {
        let events = session_events(3);
        let mut enc = WireEncoder::tcp_jumbo();
        let packets: Vec<CapturedPacket> =
            events.iter().flat_map(|e| enc.encode_event(e)).collect();
        let (full, full_stats) = sniff(&packets);

        // Drain after every few packets instead of buffering the whole
        // capture; the concatenation must be identical.
        for stride in [1usize, 3, 7, packets.len()] {
            let mut s = Sniffer::new();
            let mut streamed: Vec<TraceRecord> = Vec::new();
            for (i, p) in packets.iter().enumerate() {
                s.observe(p);
                if (i + 1) % stride == 0 {
                    streamed.extend(s.drain_ready());
                }
            }
            let (tail, stats) = s.finish();
            streamed.extend(tail);
            assert_eq!(streamed, full, "stride={stride}");
            assert_eq!(stats, full_stats, "stride={stride}");
        }
    }

    /// What `registry` holds under the `sniffer.*` names.
    fn registered(registry: &Registry) -> SnifferStats {
        let snapshot = registry.snapshot();
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        SnifferStats {
            frames: c("sniffer.frames"),
            ignored_frames: c("sniffer.ignored_frames"),
            rpc_messages: c("sniffer.rpc_messages"),
            decode_errors: c("sniffer.decode_errors"),
            calls: c("sniffer.calls"),
            retransmits: c("sniffer.retransmits"),
            matched_replies: c("sniffer.matched_replies"),
            orphan_replies: c("sniffer.orphan_replies"),
            lost_replies: c("sniffer.lost_replies"),
            tcp_bytes_lost: c("sniffer.tcp_bytes_lost"),
            frames_decoded: c("sniffer.frames_decoded"),
            bytes_decoded: c("sniffer.bytes_decoded"),
            records_emitted: c("sniffer.records_emitted"),
            alloc_fallbacks: c("sniffer.alloc_fallbacks"),
        }
    }

    /// The tally is the sniffer's own; the registry catches up with it
    /// at every drain and at `finish`, and adds up the sniffers that
    /// share it.
    #[test]
    fn registry_counters_equal_the_tally_after_every_drain() {
        let events = session_events(3);
        let mut enc = WireEncoder::tcp_standard();
        let mut packets: Vec<CapturedPacket> =
            events.iter().flat_map(|e| enc.encode_event(e)).collect();
        // Something for every counter: a lost call (orphan reply), a
        // lost reply, a frame that is not NFS.
        packets.remove(0);
        packets.pop();
        packets.push(CapturedPacket::new(u64::MAX / 2, b"not a frame".to_vec()));

        let registry = Registry::new();
        let mut s = Sniffer::with_registry(&registry);
        let mut out = Vec::new();
        for batch in packets.chunks(7) {
            s.observe_batch(batch);
            assert_eq!(
                registered(&registry).frames + batch.len() as u64,
                s.stats().frames,
                "the registry advances at the drain, not per frame"
            );
            s.drain_ready_into(&mut out);
            assert_eq!(registered(&registry), s.stats());
            let gauge = registry.snapshot().gauge("sniffer.estimated_loss_rate");
            assert_eq!(gauge, Some(s.stats().estimated_loss_rate()));
        }
        let (tail, stats) = s.finish();
        assert_eq!(registered(&registry), stats);
        assert!(stats.orphan_replies > 0 && stats.lost_replies > 0 && stats.ignored_frames > 0);
        assert!(stats.alloc_fallbacks > 0, "100 KB writes span segments");
        assert_eq!(out.len() + tail.len(), stats.records_emitted as usize);
        let (_, private) = sniff(&packets);
        assert_eq!(stats, private, "a shared registry changes no count");

        // A second sniffer on the same registry: its own tally starts
        // at zero, the registry holds the sum.
        let mut second = Sniffer::with_registry(&registry);
        second.observe_batch(&packets[..20]);
        assert_eq!(second.stats().frames, 20);
        assert_eq!(registered(&registry), stats);
        second.drain_ready();
        let both = registered(&registry);
        assert_eq!(both.frames, stats.frames + 20);
        assert_eq!(both.calls, stats.calls + second.stats().calls);
        assert_eq!(
            both.bytes_decoded,
            stats.bytes_decoded + second.stats().bytes_decoded
        );
        assert_eq!(
            registry.snapshot().gauge("sniffer.estimated_loss_rate"),
            Some(both.estimated_loss_rate()),
            "the gauge describes everything counted into the registry"
        );
    }

    #[test]
    fn drain_ready_holds_records_that_could_still_be_preceded() {
        let events = session_events(3);
        let mut enc = WireEncoder::udp();
        let mut packets: Vec<CapturedPacket> = Vec::new();
        for e in &events {
            packets.extend(enc.encode_event(e));
        }
        let mut s = Sniffer::new();
        // Feed every call/reply except the final reply: that last call
        // stays outstanding, pinning the watermark at its call time.
        for p in &packets[..packets.len() - 1] {
            s.observe(p);
        }
        let pinned = s.drain_ready();
        let drained_max = pinned.iter().map(|r| r.micros).max().unwrap_or(0);
        // Nothing at or beyond the outstanding call's stamp was drained.
        let last = events.last().expect("events");
        assert!(drained_max < last.wire_micros);
        // The rest arrives once the capture completes.
        s.observe(&packets[packets.len() - 1]);
        let mut all = pinned;
        all.extend(s.drain_ready());
        let (tail, _) = s.finish();
        all.extend(tail);
        assert_eq!(all.len(), events.len());
        assert!(all.windows(2).all(|w| w[0].micros <= w[1].micros));
    }

    #[test]
    fn lost_reply_does_not_pin_the_drain_watermark() {
        let events = session_events(3);
        assert!(events.len() >= 3);
        let mut enc = WireEncoder::udp();
        // Per event, UDP encodes [call, reply].
        let pairs: Vec<Vec<CapturedPacket>> = events.iter().map(|e| enc.encode_event(e)).collect();
        let mut s = Sniffer::new();
        // Event 0 at t=0 loses its reply forever.
        let mut p = pairs[0][0].clone();
        p.timestamp_micros = 0;
        s.observe(&p);
        // Event 1 completes far beyond the 120 s call timeout.
        for (i, pkt) in pairs[1].iter().enumerate() {
            let mut p = pkt.clone();
            p.timestamp_micros = 200_000_000 + i as u64;
            s.observe(&p);
        }
        // Event 2's call (still awaiting its reply) holds the watermark
        // at 400 s.
        let mut p = pairs[2][0].clone();
        p.timestamp_micros = 400_000_000;
        s.observe(&p);

        let drained = s.drain_ready();
        assert_eq!(
            drained.len(),
            1,
            "the completed pair must drain — a lost reply must not pin the watermark at its call"
        );
        assert_eq!(drained[0].micros, 200_000_000);
        assert_eq!(s.stats().lost_replies, 1, "the expired call counts lost");
    }

    /// A long-lived TCP flow eventually wraps its 32-bit sequence space;
    /// both stream directions here cross `u32::MAX` mid-session and must
    /// reassemble without a gap, producing the same records as a flow
    /// that started at sequence 1.
    #[test]
    fn tcp_sequence_wraparound_reassembles_without_gap() {
        let events = session_events(3);
        let mut enc = WireEncoder::tcp_standard();
        let packets: Vec<CapturedPacket> =
            events.iter().flat_map(|e| enc.encode_event(e)).collect();
        let (reference, _) = sniff(&packets);

        // ~100 KB flows each way; starting 9 KB below the top forces the
        // wrap a few records in.
        let mut enc = WireEncoder::tcp_standard().with_initial_seq(u32::MAX - 9_000);
        let packets: Vec<CapturedPacket> =
            events.iter().flat_map(|e| enc.encode_event(e)).collect();
        let (records, stats) = sniff(&packets);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.tcp_bytes_lost, 0, "wrap must not look like a gap");
        assert_eq!(stats.orphan_replies, 0);
        assert_eq!(stats.lost_replies, 0);
        assert_eq!(records.len(), events.len());
        assert_eq!(records, reference);
    }

    #[test]
    fn resync_accepts_non_final_fragment_marks() {
        use crate::wire::{build_rpc_pair, DowngradeStats};
        use nfstrace_rpc::record::mark_record_fragmented;
        let events = session_events(3);
        let (call_msg, _) = build_rpc_pair(&events[0], &mut DowngradeStats::default());
        let call_bytes = call_msg.to_xdr_bytes();
        assert!(call_bytes.len() > 40, "need a multi-fragment record");

        // Garbage that can never look like a boundary, then a record
        // whose *first* mark is a non-final fragment.
        let mut stream = vec![0xff_u8; 8];
        stream.extend_from_slice(&mark_record_fragmented(&call_bytes, 40));
        assert_eq!(resync_offset(&stream), 8);
    }

    /// A dropped segment ages out the reassembly gap; the stream resumes
    /// exactly at a record that opens with a *non-final* fragment mark.
    /// Resync must land on it — the old heuristic demanded the
    /// last-fragment bit and skipped into the record instead, losing it.
    #[test]
    fn gap_resync_lands_on_fragmented_record() {
        use crate::wire::{build_rpc_pair, DowngradeStats};
        use nfstrace_net::ethernet::MacAddr;
        use nfstrace_net::ipv4::Ipv4Addr4;
        use nfstrace_net::packet::PacketBuilder;
        use nfstrace_rpc::record::{mark_record, mark_record_fragmented};

        let events = session_events(3);
        assert!(events.len() >= 4);
        let mut narrowings = DowngradeStats::default();
        let pairs: Vec<(RpcMessage, RpcMessage)> = events
            .iter()
            .map(|e| build_rpc_pair(e, &mut narrowings))
            .collect();
        let call_bytes: Vec<Vec<u8>> = pairs.iter().map(|(c, _)| c.to_xdr_bytes()).collect();

        // Client→server stream: record 0 intact; record 1 entirely inside
        // the dropped segment; record 2 fragmented; the rest plain —
        // enough parked bytes to age the gap out mid-stream.
        let r0 = mark_record(&call_bytes[0]);
        let lost = mark_record(&call_bytes[1]);
        let mut tail = mark_record_fragmented(&call_bytes[2], 1000);
        for cb in &call_bytes[3..] {
            tail.extend_from_slice(&mark_record(cb));
        }
        assert!(
            tail.len() as u64 > GAP_SKIP_THRESHOLD,
            "the post-gap stream must be big enough to trigger the skip"
        );

        let client = Ipv4Addr4::new(10, 0, 0, 1);
        let server = Ipv4Addr4::new(10, 0, 0, 2);
        let (cmac, smac) = (MacAddr::new([2; 6]), MacAddr::new([4; 6]));
        let sport = 777_u16;
        let mut s = Sniffer::new();
        let mut ts = 0_u64;
        let frame = PacketBuilder::tcp(cmac, smac, client, server, sport, 2049, 1, r0.clone());
        s.observe_frame(ts, &frame);
        // The `lost` record's segment is never observed; everything after
        // it arrives in order and parks behind the gap.
        let mut seq = 1_u32 + (r0.len() + lost.len()) as u32;
        for chunk in tail.chunks(1448) {
            ts += 1;
            let frame =
                PacketBuilder::tcp(cmac, smac, client, server, sport, 2049, seq, chunk.to_vec());
            s.observe_frame(ts, &frame);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        // All replies (including the lost call's, now an orphan) as UDP.
        for (i, (_, reply)) in pairs.iter().enumerate() {
            let frame = PacketBuilder::udp(
                smac,
                cmac,
                server,
                client,
                2049,
                sport,
                reply.to_xdr_bytes(),
            );
            s.observe_frame(10_000 + i as u64, &frame);
        }

        let (records, stats) = s.finish();
        assert_eq!(stats.decode_errors, 0, "the fragmented record must decode");
        assert_eq!(stats.calls, events.len() as u64 - 1);
        assert_eq!(stats.matched_replies, events.len() as u64 - 1);
        assert_eq!(stats.orphan_replies, 1);
        assert_eq!(records.len(), events.len() - 1);
        // Exactly the dropped record's bytes were lost: the resync found
        // the very first post-gap byte (the non-final fragment mark).
        assert_eq!(stats.tcp_bytes_lost, lost.len() as u64);
    }

    #[test]
    fn non_nfs_traffic_ignored() {
        use nfstrace_net::ethernet::MacAddr;
        use nfstrace_net::ipv4::Ipv4Addr4;
        use nfstrace_net::packet::PacketBuilder;
        let frame = PacketBuilder::udp(
            MacAddr::new([0; 6]),
            MacAddr::new([1; 6]),
            Ipv4Addr4::new(1, 1, 1, 1),
            Ipv4Addr4::new(2, 2, 2, 2),
            53,
            53,
            b"dns".to_vec(),
        );
        let mut s = Sniffer::new();
        s.observe_frame(0, &frame);
        s.observe_frame(1, b"garbage");
        let (records, stats) = s.finish();
        assert!(records.is_empty());
        assert_eq!(stats.ignored_frames, 2);
    }
}
