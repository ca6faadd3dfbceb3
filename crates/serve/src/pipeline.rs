//! The closed loop: serve, replay, tap, frame, sniff, ingest.
//!
//! [`serve_roundtrip`] wires the whole chain together: a
//! [`ReplayService`] behind a real loopback [`NfsTcpServer`], the
//! replay client playing the trace into it, and the client-side tap
//! mirrored into the passive capture path — [`WireEncoder`] frame
//! synthesis, a lossless [`MirrorPort`], the streaming
//! [`SnifferSource`], and [`LiveIngest`] writing segments to disk. The
//! resulting store is byte-for-byte the one the batch pipeline writes
//! for the same trace, which is what the end-to-end tests and the CI
//! smoke assert.

use crate::client::{replay, ReplayOptions, ReplayOutcome, TapEvent};
use crate::plan::ReplayPlan;
use crate::server::NfsTcpServer;
use crate::service::{NfsService, ReplayService};
use nfstrace_live::{LiveConfig, LiveIngest, LiveSummary, SnifferSource};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorStats, MirrorVerdict};
use nfstrace_net::pcap::CapturedPacket;
use nfstrace_net::udp::NFS_PORT;
use nfstrace_sniffer::{SnifferStats, WireEncoder};
use nfstrace_store::error::Result;
use nfstrace_telemetry::Registry;
use std::path::Path;
use std::sync::Arc;

/// Packets fed to the sniffer per streaming batch.
const PACKETS_PER_BATCH: usize = 512;

/// Turns the replay tap into captured frames, exactly as a span port
/// would have seen them: tap events serialized by `(trace idx, dir)`
/// — each call immediately followed by its reply, retransmissions and
/// duplicates in place — then record-marked, MSS-chunked, and
/// timestamped with the trace clock. The frames carry the canonical
/// [`NFS_PORT`], not the ephemeral loopback port the real server binds,
/// so captured flows look like production traffic.
pub fn tap_to_packets(tap: &[TapEvent]) -> Vec<CapturedPacket> {
    let mut ordered: Vec<&TapEvent> = tap.iter().collect();
    ordered.sort_by_key(|e| (e.idx, e.dir));
    let mut enc = WireEncoder::tcp_jumbo();
    let mut out = Vec::new();
    for e in ordered {
        let cport = WireEncoder::client_port(e.client_ip);
        let pkts = if e.dir == 0 {
            enc.encode_message(
                e.micros,
                e.client_ip,
                e.server_ip,
                cport,
                NFS_PORT,
                &e.bytes,
            )
        } else {
            enc.encode_message(
                e.micros,
                e.server_ip,
                e.client_ip,
                NFS_PORT,
                cport,
                &e.bytes,
            )
        };
        out.extend(pkts);
    }
    out
}

/// What one full serve → capture → ingest pass produced.
#[derive(Debug)]
pub struct RoundtripOutcome {
    /// The replay client's side: send and retransmit counts. Its `tap`
    /// comes back **empty**: the tap is framed into packets and released
    /// before the ingest starts, instead of being carried — megabytes
    /// of dead messages — through the ingest and out to the caller.
    /// Call [`replay`] directly to keep a tap.
    pub replay: ReplayOutcome,
    /// The live ingest summary for the written store directory.
    pub summary: LiveSummary,
    /// Passive capture statistics (retransmits seen, orphans, ...).
    pub sniffer: Option<SnifferStats>,
    /// Mirror-port statistics for the tap feed.
    pub mirror: MirrorStats,
    /// Calls the replay plan did not cover (served by the filesystem
    /// fallback); zero in a faithful replay.
    pub unplanned_calls: u64,
}

/// Serves `plan` over loopback TCP, replays it with `options`, and
/// ingests the captured byte streams into a live store at `dir`.
///
/// Each stage's memory is released as soon as the next has what it
/// needs: the server and its reply schedule once the replay is done,
/// the tap once it is framed.
///
/// Metrics for every stage land in `registry`.
///
/// # Errors
///
/// Socket failures from the serve/replay loop and store failures from
/// the ingest.
pub fn serve_roundtrip(
    plan: &ReplayPlan,
    options: &ReplayOptions,
    registry: &Registry,
    dir: &Path,
) -> Result<RoundtripOutcome> {
    let server_ip = plan.calls.first().map_or(1, |c| c.server_ip);
    let service = Arc::new(ReplayService::new(plan, server_ip));
    let mut server = NfsTcpServer::spawn(Arc::clone(&service) as Arc<dyn NfsService>, registry)?;
    let mut replay_outcome = replay(plan, server.addr(), options, registry)?;
    server.shutdown();
    let unplanned_calls = service.unplanned_calls();
    drop(server);
    drop(service);

    // Mirror the tap into the capture path, then sniff + ingest.
    let tap = std::mem::take(&mut replay_outcome.tap);
    let framed = tap_to_packets(&tap);
    drop(tap);
    let mut mirror = MirrorPort::new(MirrorConfig::lossless());
    let packets: Vec<CapturedPacket> = framed
        .into_iter()
        .filter(|p| mirror.offer(p.timestamp_micros, p.data.len()) == MirrorVerdict::Forwarded)
        .collect();
    let mut source = SnifferSource::new(packets.into_iter(), PACKETS_PER_BATCH);
    let mut ingest = LiveIngest::create(LiveConfig::new(dir).with_registry(registry))?;
    ingest.run(&mut source)?;
    let summary = ingest.finish()?;
    Ok(RoundtripOutcome {
        replay: replay_outcome,
        summary,
        sniffer: source.stats(),
        mirror: mirror.stats(),
        unplanned_calls,
    })
}
