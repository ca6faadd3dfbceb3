//! The capture corpus replayed stage by stage (`--trace 1`): each
//! stage is a loop of calls into one layer's public function over the
//! previous stage's materialised output, timed in fixed units under
//! the same floor estimator as the fused pass, with one span per stage
//! and pass.
//!
//! The packets are generated in order and without loss, so what each
//! stage must produce is known: the first pass (whose timings the floor
//! discards whenever a later pass is faster) checks it.

use crate::capture::{self, store_err, Corpus, FusedFloors, TimedSource, PACKETS_PER_BATCH};
use crate::corpus::{self, IO_BUFFER};
use crate::floors::Floors;
use crate::spans::Tracer;
use crate::spec::Metrics;
use crate::timing::Stamp;
use crate::Budget;
use nfstrace_core::index::PartialIndex;
use nfstrace_core::record::TraceRecord;
use nfstrace_live::{LiveConfig, LiveIngest, RecordSource, ShardedLiveIngest};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort};
use nfstrace_net::packet::{PacketView, Transport};
use nfstrace_net::pcap::{CapturedPacket, PcapReader};
use nfstrace_net::reassembly::StreamReassembler;
use nfstrace_nfs::v3::{Call3, Call3View, Proc3, ReplyFacts3};
use nfstrace_rpc::record::RecordReader;
use nfstrace_rpc::xid::{FlowXid, XidMatcher};
use nfstrace_rpc::RpcMessageView;
use nfstrace_serve::ReplayPlan;
use nfstrace_sniffer::convert::{v3_apply_facts, v3_call_record};
use nfstrace_sniffer::{CallMeta, Sniffer};
use nfstrace_store::codec::{encode_record, write_varint, NameTable};
use nfstrace_store::compact::FaultInjector;
use nfstrace_store::{compress, Compactor, SegmentCatalog, StoreConfig, StoreReader, StoreWriter};
use nfstrace_telemetry::{Exporter, ExporterConfig, Registry};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// Items per unit of a per-item stage.
const ITEMS_PER_UNIT: usize = 1_024;
/// The sniffer's own reply timeout.
const CALL_TIMEOUT_MICROS: u64 = 120_000_000;

/// Per-stage floors, by stage name.
#[derive(Debug, Default)]
pub struct StageSet {
    floors: BTreeMap<&'static str, Floors>,
}

impl StageSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn floors(&mut self, name: &'static str) -> &mut Floors {
        self.floors.entry(name).or_default()
    }

    /// Declares stage `name` before it first runs, with `units` valued
    /// by their medians (see `floors.rs`).
    pub fn with_medians(&mut self, name: &'static str, units: std::ops::Range<usize>) {
        self.floors.insert(name, Floors::new().medians_for(units));
    }

    /// Runs `f(i)` for `i in 0..n`, one unit per `per_unit` items, under
    /// one span.
    pub fn over(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        n: usize,
        per_unit: usize,
        mut f: impl FnMut(usize),
    ) {
        let floors = self.floors.entry(name).or_default();
        tracer.enter(name);
        for (unit, lo) in (0..n).step_by(per_unit).enumerate() {
            let t = Instant::now();
            for i in lo..(lo + per_unit).min(n) {
                f(i);
            }
            floors.observe(unit, t.elapsed().as_nanos() as u64, 0);
        }
        tracer.exit();
    }

    /// Runs `f` as unit `unit` of stage `name`, under its own span.
    pub fn once<R>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        unit: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        tracer.enter(name);
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_nanos() as u64;
        tracer.exit();
        self.floors.entry(name).or_default().observe(unit, wall, 0);
        out
    }

    /// Closes the pass on every stage.
    pub fn end_pass(&mut self) -> std::io::Result<()> {
        for (name, f) in &mut self.floors {
            f.end_pass()
                .map_err(|e| std::io::Error::other(format!("stage {name}: {e}")))?;
        }
        Ok(())
    }

    /// Sum of floors of stage `name`, nanoseconds (0 if it never ran).
    pub fn sum(&self, name: &str) -> f64 {
        self.floors.get(name).map_or(0.0, Floors::sum_wall)
    }

    pub fn get(&self, name: &str) -> &Floors {
        &self.floors[name]
    }
}

/// One call and its reply as the wire carried them, decoded just far
/// enough (untimed, once) that each later stage has its exact input.
struct Exchange<'p> {
    call_bytes: &'p [u8],
    reply_bytes: &'p [u8],
    proc: Proc3,
    args: &'p [u8],
    results: &'p [u8],
    meta: CallMeta,
    key: FlowXid,
    reply_micros: u64,
}

fn exchanges(plan: &ReplayPlan) -> std::io::Result<Vec<Exchange<'_>>> {
    let bad = |what: &str| std::io::Error::other(format!("staged replay: {what}"));
    plan.calls
        .iter()
        .map(|c| {
            let reply_bytes = c
                .reply_bytes
                .as_deref()
                .ok_or_else(|| bad("a record has no reply"))?;
            let call_view =
                RpcMessageView::decode(&c.call_bytes).map_err(|_| bad("undecodable call"))?;
            let call = call_view
                .as_call()
                .ok_or_else(|| bad("call is not a call"))?;
            let reply_view =
                RpcMessageView::decode(reply_bytes).map_err(|_| bad("undecodable reply"))?;
            let reply = reply_view
                .as_reply()
                .ok_or_else(|| bad("reply is not a reply"))?;
            let (uid, gid) = call.cred.unix_uid_gid().unwrap_or((0, 0));
            Ok(Exchange {
                call_bytes: &c.call_bytes,
                reply_bytes,
                proc: Proc3::from_u32(call.proc).map_err(|_| bad("unknown procedure"))?,
                args: call.args,
                results: reply.results,
                meta: CallMeta {
                    wire_micros: c.micros,
                    reply_micros: 0,
                    xid: c.xid,
                    client: c.client_ip,
                    server: c.server_ip,
                    uid,
                    gid,
                    vers: 3,
                },
                key: FlowXid {
                    client_ip: c.client_ip,
                    server_ip: c.server_ip,
                    client_port: nfstrace_sniffer::WireEncoder::client_port(c.client_ip),
                    xid: c.xid,
                },
                reply_micros: c.reply_micros,
            })
        })
        .collect()
}

/// A parsed TCP segment of the corpus: its flow, sequence number and
/// where in its packet the payload lies.
struct Segment {
    flow: (u32, u32, u16, u16),
    seq: u32,
    packet: usize,
    payload: std::ops::Range<usize>,
}

/// Replays already-flattened records in the batches the sniffer
/// produced them in.
struct BatchedRecords<'a> {
    records: &'a [TraceRecord],
    sizes: std::slice::Iter<'a, usize>,
}

impl RecordSource for BatchedRecords<'_> {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        let Some(&n) = self.sizes.next() else {
            return false;
        };
        let (batch, rest) = self.records.split_at(n);
        self.records = rest;
        out.extend_from_slice(batch);
        true
    }
}

/// What `SnifferSource` does, over packets in memory and a sniffer the
/// caller built (so it can count into a shared registry).
struct PacketSource<'a> {
    sniffer: Option<Sniffer>,
    batches: std::slice::Chunks<'a, CapturedPacket>,
}

impl RecordSource for PacketSource<'_> {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        let Some(sniffer) = self.sniffer.as_mut() else {
            return false;
        };
        match self.batches.next() {
            Some(batch) => {
                sniffer.observe_batch(batch);
                sniffer.drain_ready_into(out);
                true
            }
            None => {
                let (tail, _) = self.sniffer.take().expect("still live").finish();
                out.extend(tail);
                !out.is_empty()
            }
        }
    }
}

/// Stages that partition the fused pass. The finer stages between
/// `net.pcap_read` and `sniffer.drain` take `sniffer.observe` apart; each
/// hands its output to the next in memory, so their sum pays copies and
/// cache misses the fused form does not and is no part of the residual.
const CRITICAL_PATH: [&str; 4] = [
    "net.pcap_read",
    "sniffer.observe",
    "sniffer.drain",
    "live.sink",
];

/// What the capture group hands back besides the metrics it set.
pub struct CaptureGroup {
    /// Sum of the critical-path stage floors, nanoseconds.
    pub critical_path_ns: f64,
    pub passes: usize,
}

/// Replays `corpus` stage by stage until `budget` runs out and sets
/// every capture-side per-layer metric.
pub fn capture_group(
    corpus: &Corpus,
    dir: &Path,
    budget: &Budget,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<CaptureGroup> {
    let plan = ReplayPlan::from_records(&corpus.records);
    let xs = exchanges(&plan)?;
    let expected = corpus::as_captured(&corpus.records);
    let sniffed = corpus::as_sniffed(&corpus.records);
    let n = xs.len();
    let rotate = corpus.spec.rotate as usize;
    std::fs::create_dir_all(dir)?;

    // The packets, held in memory for the stages after the first; the
    // first itself streams the file as the fused pass does.
    let open_pcap = || -> std::io::Result<PcapReader<BufReader<std::fs::File>>> {
        let file = BufReader::with_capacity(IO_BUFFER, std::fs::File::open(&corpus.pcap)?);
        PcapReader::new(file).map_err(|e| std::io::Error::other(e.to_string()))
    };
    let packets: Vec<CapturedPacket> = open_pcap()?
        .packets()
        .collect::<Result<_, _>>()
        .map_err(|e| std::io::Error::other(e.to_string()))?;

    let mut st = StageSet::new();
    let mut segments: Vec<Segment> = Vec::new();
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut batch_sizes: Vec<usize> = Vec::new();
    let mut scratch_records = 0u64;
    let mut stats = None;
    let mut peak_hot = 0usize;
    let mut store_sizes = (0u64, 0u64, 0u64, 0u64); // raw, compressed, file, chunk bytes
    let mut rewritten_segments = 0u64; // base segments the compaction cascade rewrote, with repeats
    let mut telemetry = (FusedFloors::default(), FusedFloors::default());
    let mut passes = 0;

    while budget.more(passes) {
        let first = passes == 0;
        tracer.enter("staged_pass");

        // net: frame → addresses, ports, sequence number, payload.
        segments.clear();
        st.over(
            tracer,
            "net.packet_parse",
            packets.len(),
            ITEMS_PER_UNIT,
            |i| {
                let frame = &packets[i].data;
                let view = PacketView::parse(frame).expect("generated frames parse");
                let Transport::Tcp { seq, .. } = view.transport else {
                    panic!("the capture corpus is TCP");
                };
                let lo = view.payload.as_ptr() as usize - frame.as_ptr() as usize;
                segments.push(Segment {
                    flow: (
                        view.src_ip.as_u32(),
                        view.dst_ip.as_u32(),
                        view.src_port,
                        view.dst_port,
                    ),
                    seq,
                    packet: i,
                    payload: lo..lo + view.payload.len(),
                });
            },
        );

        // net: the mirror port every tapped packet is offered to.
        let mut mirror = MirrorPort::new(MirrorConfig::lossless());
        st.over(
            tracer,
            "net.mirror_offer",
            packets.len(),
            ITEMS_PER_UNIT,
            |i| {
                black_box(mirror.offer(packets[i].timestamp_micros, packets[i].data.len()));
            },
        );

        // net: segments → in-order stream bytes. In order and lossless,
        // each push makes exactly its own payload available, so the
        // next stage reads those bytes where they already lie.
        let mut flows: HashMap<(u32, u32, u16, u16), StreamReassembler> = HashMap::new();
        st.over(
            tracer,
            "net.reassembly",
            segments.len(),
            ITEMS_PER_UNIT,
            |i| {
                let s = &segments[i];
                let reasm = flows
                    .entry(s.flow)
                    .or_insert_with(|| StreamReassembler::new(s.seq));
                reasm.push(s.seq, &packets[s.packet].data[s.payload.clone()]);
                let available = reasm.read_available().len();
                assert_eq!(available, s.payload.len(), "the corpus is in order");
            },
        );

        // rpc: stream bytes → record-marked messages.
        let mut readers: HashMap<(u32, u32, u16, u16), RecordReader> = HashMap::new();
        let (mut split, mut scratch) = (0usize, 0u64);
        st.over(
            tracer,
            "rpc.record_split",
            segments.len(),
            ITEMS_PER_UNIT,
            |i| {
                let s = &segments[i];
                let reader = readers.entry(s.flow).or_default();
                reader.push(&packets[s.packet].data[s.payload.clone()]);
                while let Some(rec) = reader
                    .next_record_ref()
                    .expect("generated streams are well marked")
                {
                    if first {
                        let x = &xs[split / 2];
                        let want = if split % 2 == 0 {
                            x.call_bytes
                        } else {
                            x.reply_bytes
                        };
                        assert!(rec.bytes == want, "message {split} differs from the plan");
                    }
                    scratch += u64::from(rec.assembled);
                    split += 1;
                }
            },
        );
        assert_eq!(split, 2 * n, "every message split out");
        scratch_records = scratch;

        // rpc: message bytes → borrowed envelope view.
        st.over(tracer, "rpc.msg_view", 2 * n, ITEMS_PER_UNIT, |i| {
            let x = &xs[i / 2];
            let bytes = if i % 2 == 0 {
                x.call_bytes
            } else {
                x.reply_bytes
            };
            black_box(
                RpcMessageView::decode(bytes)
                    .expect("planned messages decode")
                    .xid,
            );
        });

        // nfs: argument bytes → borrowed call view; owned decode beside it.
        let mut views: Vec<Call3View<'_>> = Vec::with_capacity(n);
        st.over(tracer, "nfs.call_view", n, ITEMS_PER_UNIT, |i| {
            views.push(Call3View::decode(xs[i].proc, xs[i].args).expect("planned calls decode"));
        });
        st.over(tracer, "nfs.owned_decode", n, ITEMS_PER_UNIT, |i| {
            black_box(Call3::decode(xs[i].proc, xs[i].args).expect("planned calls decode"));
        });

        // nfs: result bytes → the facts a record needs.
        let mut facts: Vec<ReplyFacts3> = Vec::with_capacity(n);
        st.over(tracer, "nfs.reply_facts", n, ITEMS_PER_UNIT, |i| {
            facts.push(
                ReplyFacts3::decode(xs[i].proc, xs[i].results).expect("planned replies decode"),
            );
        });

        // rpc: call/reply pairing by (flow, xid).
        let mut matcher: XidMatcher<usize> = XidMatcher::new(CALL_TIMEOUT_MICROS);
        st.over(tracer, "rpc.xid_pair", n, ITEMS_PER_UNIT, |i| {
            matcher.insert_call(xs[i].key, xs[i].meta.wire_micros, i);
            let hit = matcher.match_reply(xs[i].key, xs[i].reply_micros);
            assert_eq!(hit.map(|p| p.data), Some(i));
        });

        // sniffer: views + facts → flat trace records.
        records.clear();
        st.over(tracer, "sniffer.convert", n, ITEMS_PER_UNIT, |i| {
            let mut r = v3_call_record(&xs[i].meta, &views[i]);
            v3_apply_facts(&mut r, xs[i].reply_micros, &facts[i]);
            records.push(r);
        });
        if first {
            assert!(records == expected, "staged records differ from the source");
        }
        drop((views, facts));

        // net + sniffer, streamed as the fused pass streams them: a
        // batch read from the file, observed while it is still in cache,
        // then the drain that sorts and hands over what is final. (Fed
        // from `packets` instead, `sniffer.observe` would pay a trip to
        // memory per packet that the tracer never makes; and keeping
        // what `net.pcap_read` reads would time the allocator growing
        // by the size of the file.)
        {
            tracer.enter("capture.streamed");
            let mut reader = open_pcap()?;
            let mut sniffer = Sniffer::new();
            let mut out: Vec<TraceRecord> = Vec::new();
            let mut batch: Vec<CapturedPacket> = Vec::with_capacity(PACKETS_PER_BATCH);
            batch_sizes.clear();
            let mut unit = 0;
            for expected in packets.chunks(PACKETS_PER_BATCH) {
                let t = Instant::now();
                batch.clear();
                while batch.len() < expected.len() {
                    let packet = reader
                        .read_packet()
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    batch.push(packet.ok_or_else(|| {
                        std::io::Error::other("the pcap file shrank under the run")
                    })?);
                }
                let read = Instant::now();
                st.floors("net.pcap_read")
                    .observe(unit, (read - t).as_nanos() as u64, 0);
                tracer.record("net.pcap_read", t, read);
                sniffer.observe_batch(&batch);
                let observed = Instant::now();
                st.floors("sniffer.observe")
                    .observe(unit, (observed - read).as_nanos() as u64, 0);
                tracer.record("sniffer.observe", read, observed);
                let before = out.len();
                sniffer.drain_ready_into(&mut out);
                let drained = Instant::now();
                st.floors("sniffer.drain")
                    .observe(unit, (drained - observed).as_nanos() as u64, 0);
                tracer.record("sniffer.drain", observed, drained);
                batch_sizes.push(out.len() - before);
                unit += 1;
            }
            let (t, before) = (Instant::now(), out.len());
            let (tail, s) = sniffer.finish();
            out.extend(tail);
            st.floors("sniffer.drain")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
            batch_sizes.push(out.len() - before);
            tracer.exit();
            if first {
                assert!(out == sniffed, "sniffed records differ from the source");
            }
            stats = Some(s);
        }

        // live: records → rotating, compacting ingest.
        {
            let seg = dir.join("stage-live");
            std::fs::remove_dir_all(&seg).ok();
            tracer.enter("live.sink");
            let start = Stamp::now();
            let mut source = TimedSource::new(
                BatchedRecords {
                    records: &records,
                    sizes: batch_sizes.iter(),
                },
                None,
            );
            let mut ingest = LiveIngest::create(capture::live_config(&seg, corpus.spec.rotate))
                .map_err(store_err)?;
            ingest.run(&mut source).map_err(store_err)?;
            let summary = ingest.finish().map_err(store_err)?;
            let end = Stamp::now();
            tracer.exit();
            peak_hot = summary.peak_hot_records;
            let mut scratch_units = Floors::new();
            let mut scratch_source = Floors::new();
            source.observe_into(
                start,
                end,
                &mut capture::PassTimers {
                    units: &mut scratch_units,
                    source: &mut scratch_source,
                    sink: st.floors("live.sink"),
                },
            );
        }

        // live: what one rotation (seal, fsync, reopen, maybe compact) costs.
        {
            let seg = dir.join("stage-rotate");
            std::fs::remove_dir_all(&seg).ok();
            // Rotation is the harness's call here, never the ingest's own.
            let config = LiveConfig {
                rotate_micros: u64::MAX,
                ..capture::live_config(&seg, u64::MAX)
            };
            let mut ingest = LiveIngest::create(config).map_err(store_err)?;
            tracer.enter("live.rotate");
            for (unit, group) in records.chunks(rotate).enumerate() {
                for r in group {
                    ingest.ingest(r).map_err(store_err)?;
                }
                let t = Instant::now();
                ingest.rotate().map_err(store_err)?;
                st.floors("live.rotate")
                    .observe(unit, t.elapsed().as_nanos() as u64, 0);
            }
            tracer.exit();
            ingest.finish().map_err(store_err)?;
        }

        // live: a snapshot every 16th batch, reads beside the writes.
        {
            let seg = dir.join("stage-view");
            std::fs::remove_dir_all(&seg).ok();
            let mut ingest = LiveIngest::create(capture::live_config(&seg, corpus.spec.rotate))
                .map_err(store_err)?;
            let mut rest = &records[..];
            tracer.enter("live.view_snapshot");
            let mut unit = 0;
            for (j, &size) in batch_sizes.iter().enumerate() {
                let (batch, tail) = rest.split_at(size);
                rest = tail;
                for r in batch {
                    ingest.ingest(r).map_err(store_err)?;
                }
                if j % 16 == 15 {
                    let t = Instant::now();
                    black_box(ingest.view().record_count());
                    st.floors("live.view_snapshot")
                        .observe(unit, t.elapsed().as_nanos() as u64, 0);
                    unit += 1;
                }
            }
            tracer.exit();
            ingest.finish().map_err(store_err)?;
        }

        // live: the two-shard daemon over the same batches.
        {
            let seg = dir.join("stage-sharded");
            std::fs::remove_dir_all(&seg).ok();
            let config = capture::live_config(&seg, corpus.spec.rotate);
            st.once(
                tracer,
                "live.sharded_ingest",
                0,
                || -> std::io::Result<()> {
                    let mut ingest = ShardedLiveIngest::create(config, 2).map_err(store_err)?;
                    let mut rest = &records[..];
                    for &size in &batch_sizes {
                        let (batch, tail) = rest.split_at(size);
                        rest = tail;
                        ingest.ingest_batch(batch).map_err(store_err)?;
                    }
                    ingest.finish().map_err(store_err)?;
                    Ok(())
                },
            )?;
        }

        // store: records → chunk payloads, one per rotation.
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        tracer.enter("store.encode");
        for (unit, group) in records.chunks(rotate).enumerate() {
            let t = Instant::now();
            let mut names = NameTable::new();
            let mut body = Vec::new();
            let mut prev = group[0].micros;
            for r in group {
                encode_record(&mut body, r, prev, &mut names);
                prev = r.micros;
            }
            let mut payload = Vec::with_capacity(names.encoded_len() + 16 + body.len());
            names.encode(&mut payload);
            write_varint(&mut payload, group.len() as u64);
            write_varint(&mut payload, group[0].micros);
            payload.extend_from_slice(&body);
            st.floors("store.encode")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
            payloads.push(payload);
        }
        tracer.exit();

        // store: chunk payloads → LZ streams.
        let mut compressed = 0u64;
        st.over(tracer, "store.compress", payloads.len(), 1, |i| {
            compressed += compress::compress(&payloads[i]).len() as u64;
        });
        let raw: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        drop(payloads);

        // store: records → sealed segment files (push .. finish).
        let seg = dir.join("stage-store");
        std::fs::remove_dir_all(&seg).ok();
        std::fs::create_dir_all(&seg)?;
        let mut catalog = SegmentCatalog::open(&seg).map_err(store_err)?;
        let (mut file_bytes, mut chunk_bytes) = (0u64, 0u64);
        tracer.enter("store.write");
        for (unit, group) in records.chunks(rotate).enumerate() {
            let ordinal = catalog.next_ordinal();
            let path = catalog.path_for(ordinal);
            let t = Instant::now();
            let mut w = StoreWriter::create(&path, StoreConfig::default()).map_err(store_err)?;
            for r in group {
                w.push(r).map_err(store_err)?;
            }
            file_bytes += w.finish().map_err(store_err)?.file_bytes;
            st.floors("store.write")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
            catalog.note_sealed(ordinal);
            if first {
                let reader = StoreReader::open(&path).map_err(store_err)?;
                chunk_bytes += reader.chunks().iter().map(|c| c.len).sum::<u64>();
            }
        }
        tracer.exit();
        if first {
            store_sizes = (raw, compressed, file_bytes, chunk_bytes);
        }

        // store: the fan-in-3 cascade over those segments.
        let compactor = Compactor::new(
            nfstrace_store::CompactionPolicy {
                fan_in: capture::FAN_IN,
            },
            StoreConfig::default(),
            &Registry::new(),
        );
        let merges = st
            .once(tracer, "store.compact", 0, || {
                compactor.compact_all(&mut catalog, &mut FaultInjector::none())
            })
            .map_err(store_err)?;
        rewritten_segments = merges.iter().map(|m| m.output.hi - m.output.lo + 1).sum();

        // core: the running partial index the ingest keeps.
        let mut partial = PartialIndex::new();
        st.over(tracer, "core.index_build", n, ITEMS_PER_UNIT, |i| {
            partial.observe(&records[i])
        });
        black_box(partial.len());

        // telemetry: the same capture with private registries nobody
        // reads, then with one shared registry under a 1 s exporter.
        for shared in [false, true] {
            let seg = dir.join("stage-telemetry");
            std::fs::remove_dir_all(&seg).ok();
            let registry = Registry::new();
            let exporter = shared
                .then(|| {
                    Exporter::spawn(
                        registry.clone(),
                        ExporterConfig {
                            interval: Duration::from_secs(1),
                            jsonl_path: Some(dir.join("telemetry.jsonl")),
                            prometheus_path: Some(dir.join("telemetry.prom")),
                            stderr: false,
                        },
                    )
                })
                .transpose()?;
            let (sniffer, config) = if shared {
                (
                    Sniffer::with_registry(&registry),
                    capture::live_config(&seg, corpus.spec.rotate).with_registry(&registry),
                )
            } else {
                (
                    Sniffer::new(),
                    capture::live_config(&seg, corpus.spec.rotate),
                )
            };
            tracer.enter(if shared {
                "telemetry.shared"
            } else {
                "telemetry.private"
            });
            let start = Stamp::now();
            let mut source = TimedSource::new(
                PacketSource {
                    sniffer: Some(sniffer),
                    batches: packets.chunks(PACKETS_PER_BATCH),
                },
                None,
            );
            let mut ingest = LiveIngest::create(config).map_err(store_err)?;
            ingest.run(&mut source).map_err(store_err)?;
            ingest.finish().map_err(store_err)?;
            let end = Stamp::now();
            tracer.exit();
            let side = if shared {
                &mut telemetry.1
            } else {
                &mut telemetry.0
            };
            source.observe_into(start, end, &mut side.timers());
            side.end_pass()?;
            if let Some(exporter) = exporter {
                exporter.stop()?;
            }
        }

        tracer.exit();
        tracer.next_pass();
        st.end_pass()?;
        passes += 1;
    }

    let stats = stats.expect("at least one pass ran");
    let nf = n as f64;
    let packets_f = corpus.info.packets as f64;
    let payload_bytes: usize = segments.iter().map(|s| s.payload.len()).sum();
    let mib = |bytes: f64| bytes / (1u64 << 20) as f64;
    m.set(
        "net.pcap_read_ns_per_packet",
        st.sum("net.pcap_read") / packets_f,
    );
    m.set(
        "net.pcap_read_mib_per_s",
        mib(corpus.info.bytes as f64) / (st.sum("net.pcap_read") / 1e9),
    );
    m.set(
        "net.packet_parse_ns_per_packet",
        st.sum("net.packet_parse") / packets_f,
    );
    m.set(
        "net.reassembly_ns_per_segment",
        st.sum("net.reassembly") / segments.len() as f64,
    );
    m.set(
        "net.reassembly_mib_per_s",
        mib(payload_bytes as f64) / (st.sum("net.reassembly") / 1e9),
    );
    m.set(
        "net.mirror_offer_ns_per_packet",
        st.sum("net.mirror_offer") / packets_f,
    );
    m.set(
        "rpc.record_split_ns_per_record",
        st.sum("rpc.record_split") / (2.0 * nf),
    );
    m.set(
        "rpc.record_scratch_share",
        scratch_records as f64 / (2.0 * nf),
    );
    m.set(
        "rpc.msg_view_ns_per_msg",
        st.sum("rpc.msg_view") / (2.0 * nf),
    );
    m.set("rpc.xid_pair_ns_per_call", st.sum("rpc.xid_pair") / nf);
    m.set("nfs.call_view_ns_per_call", st.sum("nfs.call_view") / nf);
    m.set(
        "nfs.reply_facts_ns_per_reply",
        st.sum("nfs.reply_facts") / nf,
    );
    m.set(
        "nfs.owned_decode_ns_per_call",
        st.sum("nfs.owned_decode") / nf,
    );
    m.set(
        "sniffer.observe_ns_per_packet",
        st.sum("sniffer.observe") / packets_f,
    );
    m.set("sniffer.drain_ns_per_record", st.sum("sniffer.drain") / nf);
    m.set(
        "sniffer.convert_ns_per_record",
        st.sum("sniffer.convert") / nf,
    );
    m.set(
        "sniffer.alloc_fallbacks_per_record",
        stats.alloc_fallbacks as f64 / nf,
    );
    m.set("sniffer.estimated_loss_rate", stats.estimated_loss_rate());
    m.set("store.encode_ns_per_record", st.sum("store.encode") / nf);
    m.set(
        "store.compress_mib_per_s",
        mib(store_sizes.0 as f64) / (st.sum("store.compress") / 1e9),
    );
    m.set(
        "store.compression_ratio",
        store_sizes.1 as f64 / store_sizes.0.max(1) as f64,
    );
    m.set("store.write_ns_per_record", st.sum("store.write") / nf);
    m.set(
        "store.footer_bytes_per_record",
        store_sizes.2.saturating_sub(store_sizes.3) as f64 / nf,
    );
    m.set("store.compact_ns_per_record", st.sum("store.compact") / nf);
    // Every base segment holds the same number of records, so segments
    // written (sealed once, then once per merge that covers them) over
    // segments sealed is the write amplification in records.
    let base_segments = records.len().div_ceil(rotate) as f64;
    m.set(
        "store.compact_write_amplification",
        (base_segments + rewritten_segments as f64) / base_segments,
    );
    m.set(
        "core.index_build_ns_per_record",
        st.sum("core.index_build") / nf,
    );
    m.set("live.sink_ns_per_record", st.sum("live.sink") / nf);
    m.set(
        "live.rotate_p50_us",
        st.get("live.rotate")
            .quantile_wall(0..st.get("live.rotate").units(), 0.5)
            / 1e3,
    );
    m.set("live.peak_hot_records", peak_hot as f64);
    let views = st.get("live.view_snapshot");
    m.set(
        "live.view_snapshot_p50_us",
        views.quantile_wall(0..views.units(), 0.5) / 1e3,
    );
    m.set(
        "live.sharded_ingest_ns_per_record",
        st.sum("live.sharded_ingest") / nf,
    );
    let (private, shared) = (telemetry.0.units.sum_wall(), telemetry.1.units.sum_wall());
    m.set(
        "telemetry.shared_registry_overhead_pct",
        (shared - private) / private.max(1.0) * 100.0,
    );

    Ok(CaptureGroup {
        critical_path_ns: CRITICAL_PATH.iter().map(|s| st.sum(s)).sum(),
        passes,
    })
}
