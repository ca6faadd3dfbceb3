//! The wire replay client: a trace played back as real RPC over TCP.
//!
//! Calls go out on per-client connections (every trace client's calls
//! stay on one connection, in trace order — the invariant the server's
//! per-`(client, xid)` reply schedule depends on), with a bounded
//! in-flight window, configurable pacing, and timeout-driven
//! retransmission. Everything the client actually writes to or reads
//! from a socket is also recorded in a **tap** ([`TapEvent`]) — the
//! message-level mirror of the server's byte stream that the capture
//! pipeline (`crate::pipeline`) later frames into packets for the
//! sniffer, retransmissions and duplicate replies included. The tap
//! lives as long as the plan and borrows from it: a call's bytes are
//! always the plan's, and so are a reply's whenever the server sent
//! exactly the planned reply. Only a reply that differs is copied.
//!
//! Calls go out in **bursts**: every call the window and the pacing
//! clock admit is record-marked into one reused buffer and the buffer
//! is written once (and whenever it reaches the serving loop's 64 KiB
//! flush bound). The tap is per message, not per `write`, so what the
//! capture path sees does not depend on how calls were batched.
//!
//! Telemetry: `replay.calls_sent`, `replay.retransmits`,
//! `replay.rtt_micros`.

use crate::plan::{PlannedCall, ReplayPlan};
use crate::server::FLUSH_BYTES;
use nfstrace_rpc::record::{mark_record_into, RecordReader};
use nfstrace_sniffer::wire::Direction;
use nfstrace_telemetry::Registry;
use std::borrow::Cow;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How fast to play the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// As fast as the window allows, ignoring trace timestamps.
    Afap,
    /// Honor trace inter-arrival times, compressed by `speedup`
    /// (e.g. `3600.0` plays an hour of trace per wall second).
    Timescale {
        /// Trace-seconds per wall-second.
        speedup: f64,
    },
}

/// Replay knobs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Connection count; trace clients are spread across these
    /// round-robin (never split: one client, one connection).
    pub connections: usize,
    /// Per-connection in-flight call cap; at least 1.
    pub window: usize,
    /// Retransmit a call not answered within this long. Generous by
    /// default: on loopback a retransmission means something is wrong,
    /// and the CI smoke asserts none happen.
    pub timeout: Duration,
    /// Pacing mode.
    pub pacing: Pacing,
    /// Test hook: immediately send every n-th call twice, forcing the
    /// retransmission path without waiting out a timeout.
    pub forced_retransmit_every: Option<usize>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            connections: 2,
            window: 32,
            timeout: Duration::from_secs(5),
            pacing: Pacing::Afap,
            forced_retransmit_every: None,
        }
    }
}

/// One message observed on a replay connection, tagged for the tap.
///
/// `'p` is the [`ReplayPlan`]'s lifetime: the message bytes are
/// borrowed from the plan wherever they are the planned bytes.
#[derive(Debug, Clone)]
pub struct TapEvent<'p> {
    /// Trace index of the call this message belongs to.
    pub idx: usize,
    /// Which way the message went: a call to the server, or a reply.
    pub dir: Direction,
    /// Trace-clock capture time: the record's call time for calls
    /// (retransmissions included — the trace has one timestamp), the
    /// record's reply time for replies.
    pub micros: u64,
    /// Client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// The raw RPC message bytes as written/read (unframed). A call is
    /// always [`Cow::Borrowed`] from its [`PlannedCall`] — it is what
    /// was written. A reply is borrowed from the planned reply when it
    /// is byte-equal to it, and otherwise [`Cow::Owned`]: the bytes the
    /// server actually sent, never the plan's in their place.
    pub bytes: Cow<'p, [u8]>,
}

/// What a replay run produced; `'p` is the plan's lifetime, which the
/// tap borrows.
#[derive(Debug, Default)]
pub struct ReplayOutcome<'p> {
    /// Every message that crossed a connection, in per-connection
    /// observation order (sort by `(idx, dir)` to serialize; the
    /// pipeline does). One event per message however the messages were
    /// batched into `write`s and `read`s. On a faithful replay no event
    /// holds bytes of its own (see [`TapEvent::bytes`]).
    ///
    /// [`replay`] returns it full. `serve_roundtrip` frames it into the
    /// ingest and hands back an empty one.
    pub tap: Vec<TapEvent<'p>>,
    /// Calls written, first transmissions only.
    pub calls_sent: u64,
    /// Retransmissions (timeout-driven plus forced).
    pub retransmits: u64,
}

/// One in-flight call awaiting its reply.
struct Pending {
    local: usize,
    sent_at: Instant,
}

impl<'p> TapEvent<'p> {
    /// `call`'s own message, on its way to the server.
    fn of_call(call: &'p PlannedCall) -> Self {
        TapEvent {
            idx: call.idx,
            dir: Direction::Call,
            micros: call.micros,
            client_ip: call.client_ip,
            server_ip: call.server_ip,
            bytes: Cow::Borrowed(&call.call_bytes),
        }
    }

    /// `reply`, read off the connection, as the answer to `call`:
    /// borrowed from the plan when it is the planned reply.
    fn of_reply(call: &'p PlannedCall, reply: &[u8]) -> Self {
        let bytes = match &call.reply_bytes {
            Some(planned) if planned[..] == *reply => Cow::Borrowed(&planned[..]),
            _ => Cow::Owned(reply.to_vec()),
        };
        TapEvent {
            idx: call.idx,
            dir: Direction::Reply,
            micros: call.reply_micros,
            client_ip: call.client_ip,
            server_ip: call.server_ip,
            bytes,
        }
    }
}

/// Replays `plan` against the server at `addr`. The outcome's tap
/// borrows from `plan` (see [`TapEvent::bytes`]).
///
/// # Errors
///
/// [`ErrorKind::InvalidInput`] for a zero `options.window` (no call
/// could ever be admitted), before any connection is made;
/// [`ErrorKind::InvalidData`] for a reply stream that is not
/// record-marked RPC, or a reply record too short to hold an xid;
/// otherwise connect/socket failures from any connection worker.
pub fn replay<'p>(
    plan: &'p ReplayPlan,
    addr: SocketAddr,
    options: &ReplayOptions,
    registry: &Registry,
) -> std::io::Result<ReplayOutcome<'p>> {
    if options.window == 0 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "replay window must admit at least one call",
        ));
    }
    let calls_sent = registry.counter("replay.calls_sent");
    let retransmits = registry.counter("replay.retransmits");
    let rtt_micros = registry.histogram("replay.rtt_micros");

    // Clients → connection groups, round-robin by first appearance.
    let ips = plan.client_ips();
    let groups = options.connections.clamp(1, ips.len().max(1));
    let group_of: HashMap<u32, usize> = ips
        .iter()
        .enumerate()
        .map(|(i, ip)| (*ip, i % groups))
        .collect();
    let mut per_group: Vec<Vec<&PlannedCall>> = vec![Vec::new(); groups];
    for call in &plan.calls {
        per_group[group_of[&call.client_ip]].push(call);
    }
    let first_micros = plan.calls.first().map_or(0, |c| c.micros);
    let start = Instant::now();

    let outcomes = std::thread::scope(|scope| {
        let workers: Vec<_> = per_group
            .iter()
            .map(|calls| {
                let calls_sent = calls_sent.clone();
                let retransmits = retransmits.clone();
                let rtt_micros = rtt_micros.clone();
                scope.spawn(move || {
                    run_connection(
                        calls,
                        addr,
                        options,
                        first_micros,
                        start,
                        &calls_sent,
                        &retransmits,
                        &rtt_micros,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay connection thread"))
            .collect::<Vec<_>>()
    });

    let mut merged = ReplayOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        merged.tap.extend(outcome.tap);
        merged.calls_sent += outcome.calls_sent;
        merged.retransmits += outcome.retransmits;
    }
    Ok(merged)
}

/// Writes the burst in `framed`, if there is one, and empties it.
fn write_burst(stream: &mut TcpStream, framed: &mut Vec<u8>) -> std::io::Result<()> {
    if !framed.is_empty() {
        stream.write_all(framed)?;
        framed.clear();
    }
    Ok(())
}

/// The per-connection replay loop: window-bounded sends, reply
/// matching by `(xid → oldest in-flight)`, timeout retransmission.
#[allow(clippy::too_many_arguments)]
fn run_connection<'p>(
    calls: &[&'p PlannedCall],
    addr: SocketAddr,
    options: &ReplayOptions,
    first_micros: u64,
    start: Instant,
    calls_sent: &nfstrace_telemetry::Counter,
    retransmits: &nfstrace_telemetry::Counter,
    rtt_micros: &nfstrace_telemetry::Histogram,
) -> std::io::Result<ReplayOutcome<'p>> {
    let mut outcome = ReplayOutcome::default();
    if calls.is_empty() {
        return Ok(outcome);
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(10)))?;

    let mut reader = RecordReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    // The burst under construction: record-marked calls not yet written.
    let mut framed = Vec::new();
    let mut cursor = 0usize;
    let mut in_flight: HashMap<u32, VecDeque<Pending>> = HashMap::new();
    let mut in_flight_count = 0usize;
    // Last completed call (index into `calls`) per xid: tags duplicate
    // replies (the DRC answering a retransmission) with the call they
    // duplicate.
    let mut last_done: HashMap<u32, usize> = HashMap::new();

    while cursor < calls.len() || in_flight_count > 0 {
        // Send while the window and the pacing clock allow — as one
        // burst, written once.
        while cursor < calls.len() && in_flight_count < options.window {
            let call = calls[cursor];
            if let Pacing::Timescale { speedup } = options.pacing {
                let due_micros = (call.micros.saturating_sub(first_micros)) as f64
                    / speedup.max(f64::MIN_POSITIVE);
                if (start.elapsed().as_micros() as f64) < due_micros {
                    break;
                }
            }
            let mark_at = framed.len();
            mark_record_into(&call.call_bytes, &mut framed);
            calls_sent.inc();
            outcome.tap.push(TapEvent::of_call(call));
            if call.reply_bytes.is_some() {
                in_flight.entry(call.xid).or_default().push_back(Pending {
                    local: cursor,
                    sent_at: Instant::now(),
                });
                in_flight_count += 1;
            }
            if let Some(every) = options.forced_retransmit_every {
                if every > 0 && (cursor + 1).is_multiple_of(every) {
                    // The duplicate rides in the same burst, right
                    // behind its original.
                    framed.extend_from_within(mark_at..);
                    retransmits.inc();
                    outcome.retransmits += 1;
                    outcome.tap.push(TapEvent::of_call(call));
                }
            }
            cursor += 1;
            if framed.len() >= FLUSH_BYTES {
                write_burst(&mut stream, &mut framed)?;
            }
        }
        write_burst(&mut stream, &mut framed)?;

        // Drain replies.
        let mut idle = false;
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection mid-replay",
                ));
            }
            Ok(n) => {
                reader.push(&buf[..n]);
                while let Some(record) = reader
                    .next_record_ref()
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?
                {
                    let reply = record.bytes;
                    let Some(xid) = reply.first_chunk().copied().map(u32::from_be_bytes) else {
                        return Err(std::io::Error::new(
                            ErrorKind::InvalidData,
                            format!("{}-byte reply record holds no xid", reply.len()),
                        ));
                    };
                    let completed = in_flight
                        .get_mut(&xid)
                        .and_then(|q| q.pop_front())
                        .map(|p| {
                            in_flight_count -= 1;
                            rtt_micros.record(p.sent_at.elapsed().as_micros() as u64);
                            p.local
                        })
                        .or_else(|| last_done.get(&xid).copied());
                    // Empty queues must go: a long trace sees mostly
                    // distinct xids, and the timeout sweep below walks
                    // this map.
                    if in_flight.get(&xid).is_some_and(VecDeque::is_empty) {
                        in_flight.remove(&xid);
                    }
                    // A reply we can't attribute (no such xid ever) is
                    // dropped from the tap: nothing to anchor it to.
                    if let Some(local) = completed {
                        last_done.insert(xid, local);
                        outcome.tap.push(TapEvent::of_reply(calls[local], reply));
                    }
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                idle = true;
            }
            Err(e) => return Err(e),
        }

        // Timeout-driven retransmission — only worth sweeping when the
        // connection went quiet (while replies flow, nothing in a
        // seconds-deep window can have expired).
        if idle {
            for queue in in_flight.values_mut() {
                for pending in queue.iter_mut() {
                    if pending.sent_at.elapsed() >= options.timeout {
                        let call = calls[pending.local];
                        mark_record_into(&call.call_bytes, &mut framed);
                        pending.sent_at = Instant::now();
                        retransmits.inc();
                        outcome.retransmits += 1;
                        outcome.tap.push(TapEvent::of_call(call));
                    }
                }
            }
            write_burst(&mut stream, &mut framed)?;
        }
    }
    outcome.calls_sent = outcome
        .tap
        .iter()
        .filter(|e| e.dir == Direction::Call)
        .count()
        .saturating_sub(outcome.retransmits as usize) as u64;
    Ok(outcome)
}
