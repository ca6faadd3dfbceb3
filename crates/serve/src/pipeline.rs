//! The closed loop: serve, replay, tap, frame, sniff, ingest.
//!
//! [`serve_roundtrip`] wires the whole chain together: a
//! [`ReplayService`] borrowing the plan behind a real loopback serving
//! loop (the [`NfsTcpServer`](crate::NfsTcpServer) accept loop, on a
//! scoped thread), the replay client playing the trace into it, and
//! the client-side tap
//! mirrored into the passive capture path — [`WireEncoder`] frame
//! synthesis, a lossless [`MirrorPort`], the streaming
//! [`SnifferSource`], and [`LiveIngest`] writing segments to disk. The
//! resulting store is byte-for-byte the one the batch pipeline writes
//! for the same trace, which is what the end-to-end tests and the CI
//! smoke assert.
//!
//! The plan holds the one copy of the message bytes the loop needs:
//! the client writes its calls from it, the server reads its replies
//! from it in place, and the tap borrows both, so the only other
//! copies of a message are the ones the sockets and the frames make.

use crate::client::{replay, ReplayOptions, ReplayOutcome, TapEvent};
use crate::plan::ReplayPlan;
use crate::server::serve_scoped;
use crate::service::ReplayService;
use nfstrace_live::{LiveConfig, LiveIngest, LiveSummary, SnifferSource};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorStats, MirrorVerdict};
use nfstrace_net::pcap::{CapturedPacket, FrameLender};
use nfstrace_sniffer::{MessageFrames, SnifferStats, WireEncoder};
use nfstrace_store::error::Result;
use nfstrace_telemetry::Registry;
use std::path::Path;

/// Packets fed to the sniffer per streaming batch.
const PACKETS_PER_BATCH: usize = 512;

/// The replay tap as captured frames, one at a time, exactly as a span
/// port would have seen them: tap events serialized by `(trace idx,
/// dir)` — each call immediately followed by its reply, retransmissions
/// and duplicates in place — then record-marked, MSS-chunked, and
/// timestamped with the trace clock. The frames carry the canonical NFS
/// port ([`WireEncoder::exchange_frames`]), not the ephemeral loopback
/// port the real server binds, so captured flows look like production
/// traffic.
///
/// Every frame is written into one [`FrameLender`] buffer: a consumer
/// that drops each packet before taking the next (the sniffer) frames
/// the whole tap without an allocation per frame, and one that keeps
/// packets gets them owning their bytes.
pub fn tap_frames<'t>(tap: &'t [TapEvent<'_>]) -> impl Iterator<Item = CapturedPacket> + 't {
    let mut ordered: Vec<&TapEvent> = tap.iter().collect();
    ordered.sort_by_key(|e| (e.idx, e.dir));
    TapFrames {
        events: ordered.into_iter(),
        encoder: WireEncoder::tcp_jumbo(),
        message: None,
        lender: FrameLender::new(),
    }
}

/// The frames of a tap, lent one at a time: what [`tap_frames`]
/// returns.
struct TapFrames<'t> {
    events: std::vec::IntoIter<&'t TapEvent<'t>>,
    encoder: WireEncoder,
    /// The frames left of the message being framed.
    message: Option<MessageFrames<'t>>,
    lender: FrameLender,
}

impl Iterator for TapFrames<'_> {
    type Item = CapturedPacket;

    fn next(&mut self) -> Option<CapturedPacket> {
        loop {
            if let Some(packet) = self
                .message
                .as_mut()
                .and_then(|m| m.lend_next(&mut self.lender))
            {
                return Some(packet);
            }
            let e = self.events.next()?;
            self.message = Some(self.encoder.exchange_frames(
                e.micros,
                e.client_ip,
                e.server_ip,
                e.dir,
                &e.bytes,
            ));
        }
    }
}

/// [`tap_frames`] collected: every frame of the tap, each owning its
/// bytes (the first in the lender's buffer, the rest in an allocation
/// apiece). Byte for byte the concatenation of
/// [`WireEncoder::exchange_frames`] over the serialized tap.
pub fn tap_to_packets(tap: &[TapEvent]) -> Vec<CapturedPacket> {
    tap_frames(tap).collect()
}

/// What one full serve → capture → ingest pass produced.
#[derive(Debug)]
pub struct RoundtripOutcome {
    /// The replay client's side: send and retransmit counts. Its `tap`
    /// comes back **empty**: the tap borrows the caller's plan, and its
    /// frames went straight into the ingest. Call [`replay`] directly
    /// to keep a tap.
    pub replay: ReplayOutcome<'static>,
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
/// The server answers from the plan it borrows: beside it the service
/// keeps only a schedule of call ordinals, released with the serving
/// loop once the replay is done (or has failed). The tap then lives
/// through the ingest, but it holds no bytes of a faithful replay —
/// they are the plan's — and its frames are lent one at a time through
/// the [`MirrorPort`] into the [`SnifferSource`], so no packet list is
/// ever built.
///
/// Metrics for every stage land in `registry`.
///
/// # Errors
///
/// Socket failures from the serve/replay loop, the replay's refusals
/// (`InvalidInput` for a zero window, before any connection is made)
/// and store failures from the ingest.
pub fn serve_roundtrip(
    plan: &ReplayPlan,
    options: &ReplayOptions,
    registry: &Registry,
    dir: &Path,
) -> Result<RoundtripOutcome> {
    let server_ip = plan.calls.first().map_or(1, |c| c.server_ip);
    let service = ReplayService::borrowing(plan, server_ip);
    let replayed = serve_scoped(&service, registry, |addr| {
        replay(plan, addr, options, registry)
    })??;
    let unplanned_calls = service.unplanned_calls();
    drop(service);

    // Mirror the tap into the capture path, then sniff + ingest.
    let mut mirror = MirrorPort::new(MirrorConfig::lossless());
    let forwarded = tap_frames(&replayed.tap)
        .filter(|p| mirror.offer(p.timestamp_micros, p.data.len()) == MirrorVerdict::Forwarded);
    let mut source = SnifferSource::with_registry(forwarded, PACKETS_PER_BATCH, registry);
    let mut ingest = LiveIngest::create(LiveConfig::new(dir).with_registry(registry))?;
    ingest.run(&mut source)?;
    let summary = ingest.finish()?;
    let sniffer = source.stats();
    drop(source);
    Ok(RoundtripOutcome {
        replay: ReplayOutcome {
            tap: Vec::new(),
            calls_sent: replayed.calls_sent,
            retransmits: replayed.retransmits,
        },
        summary,
        sniffer,
        mirror: mirror.stats(),
        unplanned_calls,
    })
}
