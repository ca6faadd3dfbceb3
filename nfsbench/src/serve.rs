//! `serve-campus`: the closed loop over real loopback sockets — serve
//! a compiled trace, replay it, tap both directions and re-capture the
//! tap — followed by a window-1 probe client whose per-call round trip
//! is the workload's latency.
//!
//! The served trace goes through `serve_roundtrip` a thousand calls at
//! a time, one unit each, on one CPU, and those units are valued by
//! their median over passes: two threads handing calls to each other
//! through the kernel have no sharp floor (`floors.rs`, README.md).

use crate::capture::{count_mismatches, hash_dir, read_back, store_err};
use crate::corpus::{self, Sizes, System, UnitClock};
use crate::floors::Floors;
use crate::spans::Tracer;
use crate::spec::Metrics;
use crate::stages::StageSet;
use crate::timing::{self, Stamp};
use crate::{Budget, Verdict};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::SharedNfsServer;
use nfstrace_live::{LiveConfig, LiveIngest, SnifferSource};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorVerdict};
use nfstrace_rpc::record::{mark_record_into, RecordReader};
use nfstrace_serve::{
    replay, serve_roundtrip, tap_to_packets, FsService, NfsService, NfsTcpServer, Pacing,
    PlannedCall, ReplayOptions, ReplayPlan, ReplayService, RoundtripOutcome,
};
use nfstrace_telemetry::Registry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Generator scale of the served trace.
const SERVE_SCALE: f64 = 0.5;
/// Calls per `serve_roundtrip`.
const CALLS_PER_ROUNDTRIP: usize = 1_000;
/// Records generated past the served prefix, per probe call, so that
/// one held-out client has enough calls of its own.
const TAIL_PER_PROBE_CALL: usize = 8;

#[derive(Debug)]
pub struct ServeCorpus {
    /// The served prefix of the trace.
    pub records: Vec<TraceRecord>,
    /// One plan per [`CALLS_PER_ROUNDTRIP`] records.
    pub plans: Vec<ReplayPlan>,
    /// One client's calls from past the prefix: what the probe plays.
    pub probe_records: Vec<TraceRecord>,
    pub probe: ReplayPlan,
}

/// One client, one connection, 32 calls in flight, as fast as possible.
fn options() -> ReplayOptions {
    ReplayOptions {
        connections: 1,
        window: 32,
        timeout: Duration::from_secs(5),
        pacing: Pacing::Afap,
        forced_retransmit_every: None,
    }
}

/// One set-up repetition: generate, compile the served plan, pick and
/// compile the probe client's calls — as one pass of `floors`.
pub fn set_up(sizes: &Sizes, seed: u64, floors: &mut Floors) -> std::io::Result<ServeCorpus> {
    let mut clock = UnitClock::start(floors);
    let total = sizes.serve_records + sizes.probe_calls * TAIL_PER_PROBE_CALL;
    let mut records =
        corpus::first_records_timed(System::Campus, SERVE_SCALE, seed, total, &mut clock);
    let tail = records.split_off(sizes.serve_records);
    let plans = records
        .chunks(CALLS_PER_ROUNDTRIP)
        .map(|chunk| {
            let plan = ReplayPlan::from_records(chunk);
            clock.lap();
            plan
        })
        .collect();

    let mut per_client: BTreeMap<u32, usize> = BTreeMap::new();
    for r in &tail {
        *per_client.entry(r.client).or_default() += 1;
    }
    let busiest = per_client
        .iter()
        .max_by_key(|(ip, n)| (**n, std::cmp::Reverse(**ip)))
        .map(|(ip, _)| *ip)
        .ok_or_else(|| std::io::Error::other("no records past the served prefix"))?;
    let probe_records: Vec<TraceRecord> = tail
        .into_iter()
        .filter(|r| r.client == busiest && !r.reply_lost())
        .take(sizes.probe_calls)
        .collect();
    if probe_records.len() < sizes.probe_calls {
        return Err(std::io::Error::other(
            "the held-out client has too few calls",
        ));
    }
    let probe = ReplayPlan::from_records(&probe_records);
    clock.lap();
    floors.end_pass().map_err(std::io::Error::other)?;
    Ok(ServeCorpus {
        records,
        plans,
        probe_records,
        probe,
    })
}

/// Plays `calls` one at a time against `service` behind a fresh
/// `NfsTcpServer`, reporting each call's round trip (write the marked
/// call, read one reply record) to `on_rtt`. Returns the replies.
pub fn probe(
    service: Arc<dyn NfsService>,
    calls: &[PlannedCall],
    mut on_rtt: impl FnMut(usize, u64, u64),
) -> std::io::Result<Vec<Vec<u8>>> {
    let mut server = NfsTcpServer::spawn(service, &Registry::new())?;
    let mut stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = RecordReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut framed = Vec::new();
    let mut replies = Vec::with_capacity(calls.len());
    for (i, call) in calls.iter().enumerate() {
        let sent = Stamp::now();
        framed.clear();
        mark_record_into(&call.call_bytes, &mut framed);
        stream.write_all(&framed)?;
        let reply = loop {
            let next = reader
                .next_record()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(reply) = next {
                break reply;
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the probe connection",
                ));
            }
            reader.push(&buf[..n]);
        };
        let (wall, cpu) = Stamp::now().since(&sent);
        on_rtt(i, wall, cpu);
        replies.push(reply);
    }
    drop(stream);
    server.shutdown();
    Ok(replies)
}

impl ServeCorpus {
    pub fn calls(&self) -> usize {
        self.plans.iter().map(|p| p.calls.len()).sum()
    }

    /// Bytes both ways over the socket per pass, record marks included.
    pub fn wire_bytes(&self) -> usize {
        self.plans
            .iter()
            .flat_map(|p| &p.calls)
            .map(|c| c.call_bytes.len() + 4 + c.reply_bytes.as_ref().map_or(0, |r| r.len() + 4))
            .sum()
    }
}

fn captured_dir(dir: &Path, roundtrip: usize) -> std::path::PathBuf {
    dir.join(format!("captured-{roundtrip}"))
}

/// What one pass left behind.
#[derive(Debug)]
pub struct PassResult {
    pub outcomes: Vec<RoundtripOutcome>,
    pub probe_replies: Vec<Vec<u8>>,
    pub store_bytes: u64,
}

/// One pass: a unit per `serve_roundtrip`, then a unit per probe call.
pub fn pass(
    corpus: &ServeCorpus,
    dir: &Path,
    mut floors: Option<&mut Floors>,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<PassResult> {
    let mut outcomes = Vec::with_capacity(corpus.plans.len());
    let mut store_bytes = 0;
    for (k, plan) in corpus.plans.iter().enumerate() {
        let captured = captured_dir(dir, k);
        std::fs::remove_dir_all(&captured).ok();
        let start = Stamp::now();
        let outcome =
            serve_roundtrip(plan, &options(), &Registry::new(), &captured).map_err(store_err)?;
        let end = Stamp::now();
        if let Some(f) = floors.as_deref_mut() {
            let (wall, cpu) = end.since(&start);
            f.observe(k, wall, cpu);
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.roundtrip", start.wall(), end.wall());
        }
        outcomes.push(outcome);
        store_bytes += hash_dir(&captured)?.1;
    }
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("serve.probe");
    }
    let server_ip = corpus.probe.calls.first().map_or(1, |c| c.server_ip);
    let service = Arc::new(ReplayService::new(&corpus.probe, server_ip));
    let first_probe_unit = corpus.plans.len();
    let probe_replies = probe(service, &corpus.probe.calls, |i, wall, cpu| {
        if let Some(f) = floors.as_deref_mut() {
            f.observe(first_probe_unit + i, wall, cpu);
        }
    })?;
    if let Some(t) = tracer {
        t.exit();
    }
    Ok(PassResult {
        outcomes,
        probe_replies,
        store_bytes,
    })
}

/// The untimed check after the last pass.
pub fn verify(corpus: &ServeCorpus, dir: &Path, last: &PassResult) -> std::io::Result<Verdict> {
    let mut verdict = Verdict::new((corpus.calls() + corpus.probe.calls.len()) as u64);
    let batch = dir.join("batch");
    for (k, (plan, outcome)) in corpus.plans.iter().zip(&last.outcomes).enumerate() {
        verdict.fail(outcome.unplanned_calls, "calls the plan did not cover");
        verdict.fail(outcome.replay.retransmits, "retransmissions on loopback");
        verdict.fail(
            outcome.replay.calls_sent.abs_diff(plan.calls.len() as u64),
            "calls sent differ from the plan",
        );
        // The batch store: the same records straight into the same ingest.
        let lo = k * CALLS_PER_ROUNDTRIP;
        let expected = corpus::as_captured(&corpus.records[lo..lo + plan.calls.len()]);
        std::fs::remove_dir_all(&batch).ok();
        let mut ingest = LiveIngest::create(LiveConfig::new(&batch)).map_err(store_err)?;
        for r in &expected {
            ingest.ingest(r).map_err(store_err)?;
        }
        ingest.finish().map_err(store_err)?;
        let captured = captured_dir(dir, k);
        if hash_dir(&batch)? != hash_dir(&captured)? {
            let differing = match read_back(&captured) {
                Ok(got) => count_mismatches(&expected, &got),
                Err(_) => expected.len() as u64,
            };
            verdict.fail(
                differing.max(1),
                "captured store is not byte-identical to the batch store",
            );
        }
    }
    verdict.fail(
        corpus.plans.len().abs_diff(last.outcomes.len()) as u64,
        "a roundtrip is missing",
    );

    // The recorded replies, compiled afresh from the records.
    let recorded = ReplayPlan::from_records(&corpus.probe_records);
    let wrong = recorded
        .calls
        .iter()
        .zip(&last.probe_replies)
        .filter(|(c, got)| c.reply_bytes.as_ref() != Some(*got))
        .count()
        + recorded.calls.len().abs_diff(last.probe_replies.len());
    verdict.fail(
        wrong as u64,
        "probe replies differ from the recorded replies",
    );
    Ok(verdict)
}

/// What the serve group hands back besides the metrics it set.
pub struct ServeGroup {
    pub critical_path_ns: f64,
    pub passes: usize,
}

/// The socket leg alone: a `ReplayService` behind a fresh server, the
/// plan replayed into it, the server shut down.
fn socket_leg(plan: &ReplayPlan) -> std::io::Result<(nfstrace_serve::ReplayOutcome, u64)> {
    let server_ip = plan.calls.first().map_or(1, |c| c.server_ip);
    let service = Arc::new(ReplayService::new(plan, server_ip));
    let registry = Registry::new();
    let mut server = NfsTcpServer::spawn(Arc::clone(&service) as Arc<dyn NfsService>, &registry)?;
    let outcome = replay(plan, server.addr(), &options(), &registry)?;
    server.shutdown();
    Ok((outcome, service.unplanned_calls()))
}

/// Replays the serve loop leg by leg until `budget` runs out and sets
/// every serve-side per-layer metric. `eecs` is the first EECS records
/// at the same count, for the small-message socket leg.
pub fn serve_group(
    corpus: &ServeCorpus,
    eecs: &[TraceRecord],
    dir: &Path,
    budget: &Budget,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<ServeGroup> {
    let eecs_plans: Vec<ReplayPlan> = eecs
        .chunks(CALLS_PER_ROUNDTRIP)
        .map(ReplayPlan::from_records)
        .collect();
    let calls = corpus.calls();
    let messages: Vec<&[u8]> = corpus
        .plans
        .iter()
        .flat_map(|p| &p.calls)
        .flat_map(|c| std::iter::once(c.call_bytes.as_slice()).chain(c.reply_bytes.as_deref()))
        .collect();
    std::fs::create_dir_all(dir)?;

    let _one_cpu = timing::OneCpu::pin();
    let mut st = StageSet::new();
    st.with_medians("serve.socket_leg", 0..corpus.plans.len());
    st.with_medians("serve.eecs_socket_leg", 0..eecs_plans.len());
    let (mut user_micros, mut sys_micros) = (0u64, 0u64);
    let (mut retransmits, mut unplanned) = (0u64, 0u64);
    let mut passes = 0;
    while budget.more(passes) {
        tracer.enter("staged_pass");

        tracer.enter("serve.plan_compile");
        for (unit, chunk) in corpus.records.chunks(1_000).enumerate() {
            let t = std::time::Instant::now();
            std::hint::black_box(ReplayPlan::from_records(chunk));
            st.floors("serve.plan_compile")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
        }
        tracer.exit();

        let mut framed = Vec::new();
        st.over(tracer, "rpc.mark_record", messages.len(), 1_024, |i| {
            framed.clear();
            mark_record_into(messages[i], &mut framed);
            std::hint::black_box(framed.len());
        });

        for (k, plan) in corpus.plans.iter().enumerate() {
            let (u0, s0) = timing::user_sys_micros();
            let (outcome, missed) = st.once(tracer, "serve.socket_leg", k, || socket_leg(plan))?;
            let (u1, s1) = timing::user_sys_micros();
            user_micros += u1 - u0;
            sys_micros += s1 - s0;
            retransmits += outcome.retransmits;
            unplanned += missed;

            let packets = st.once(tracer, "serve.tap_frame", k, || {
                tap_to_packets(&outcome.tap)
            });
            let captured = dir.join("stage-captured");
            std::fs::remove_dir_all(&captured).ok();
            st.once(
                tracer,
                "serve.capture_rest",
                k,
                || -> std::io::Result<()> {
                    let mut mirror = MirrorPort::new(MirrorConfig::lossless());
                    let forwarded = packets.into_iter().filter(|p| {
                        mirror.offer(p.timestamp_micros, p.data.len()) == MirrorVerdict::Forwarded
                    });
                    let mut source =
                        SnifferSource::new(forwarded, crate::capture::PACKETS_PER_BATCH);
                    let mut ingest =
                        LiveIngest::create(LiveConfig::new(&captured)).map_err(store_err)?;
                    ingest.run(&mut source).map_err(store_err)?;
                    ingest.finish().map_err(store_err)?;
                    Ok(())
                },
            )?;
        }

        st.once(
            tracer,
            "serve.spawn_shutdown",
            0,
            || -> std::io::Result<()> {
                let idle: Arc<dyn NfsService> = Arc::new(FsService::new(SharedNfsServer::new(1)));
                let mut server = NfsTcpServer::spawn(idle, &Registry::new())?;
                drop(TcpStream::connect(server.addr())?);
                server.shutdown();
                Ok(())
            },
        )?;

        let server_ip = corpus.probe.calls.first().map_or(1, |c| c.server_ip);
        tracer.enter("serve.probe");
        let floors = st.floors("serve.probe");
        probe(
            Arc::new(ReplayService::new(&corpus.probe, server_ip)),
            &corpus.probe.calls,
            |i, wall, _| floors.observe(i, wall, 0),
        )?;
        tracer.exit();
        tracer.enter("serve.fs_probe");
        let floors = st.floors("serve.fs_probe");
        probe(
            Arc::new(FsService::new(SharedNfsServer::new(server_ip))),
            &corpus.probe.calls,
            |i, wall, _| floors.observe(i, wall, 0),
        )?;
        tracer.exit();

        for (k, plan) in eecs_plans.iter().enumerate() {
            let (outcome, missed) =
                st.once(tracer, "serve.eecs_socket_leg", k, || socket_leg(plan))?;
            retransmits += outcome.retransmits;
            unplanned += missed;
        }

        tracer.exit();
        tracer.next_pass();
        st.end_pass()?;
        passes += 1;
    }

    let nf = calls as f64;
    m.set(
        "serve.plan_compile_ns_per_call",
        st.sum("serve.plan_compile") / nf,
    );
    m.set(
        "rpc.mark_record_ns_per_msg",
        st.sum("rpc.mark_record") / messages.len() as f64,
    );
    m.set(
        "serve.socket_leg_ns_per_call",
        st.sum("serve.socket_leg") / nf,
    );
    m.set(
        "serve.tap_frame_ns_per_call",
        st.sum("serve.tap_frame") / nf,
    );
    m.set(
        "serve.capture_leg_ns_per_call",
        (st.sum("serve.tap_frame") + st.sum("serve.capture_rest")) / nf,
    );
    m.set(
        "serve.wire_mib_per_s",
        corpus.wire_bytes() as f64 / (1u64 << 20) as f64 / (st.sum("serve.socket_leg") / 1e9),
    );
    m.set(
        "serve.spawn_shutdown_us",
        st.sum("serve.spawn_shutdown") / 1e3,
    );
    m.set(
        "serve.sys_cpu_share",
        sys_micros as f64 / (user_micros + sys_micros).max(1) as f64,
    );
    let p = st.get("serve.probe");
    m.set(
        "serve.probe_rtt_p99_us",
        p.quantile_wall(0..p.units(), 0.99) / 1e3,
    );
    let p = st.get("serve.fs_probe");
    m.set(
        "serve.fs_service_rtt_p50_us",
        p.quantile_wall(0..p.units(), 0.5) / 1e3,
    );
    m.set(
        "serve.eecs_socket_leg_ns_per_call",
        st.sum("serve.eecs_socket_leg") / eecs.len().max(1) as f64,
    );
    m.set("serve.retransmits", retransmits as f64);
    m.set("serve.unplanned_calls", unplanned as f64);

    Ok(ServeGroup {
        critical_path_ns: st.sum("serve.socket_leg")
            + st.sum("serve.tap_frame")
            + st.sum("serve.capture_rest")
            + st.sum("serve.probe"),
        passes,
    })
}
