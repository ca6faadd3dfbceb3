//! The paper's three side experiments, in the shape of [`crate::tables`]:
//! one function each, returning the numbers `tests/paper_shapes.rs`
//! asserts on plus the printable text. They are not views of the 8-day
//! trace pair, so `repro --only <name>` renders them without generating
//! it and they stay out of the suite text.

use crate::scenarios;
use nfstrace_client::nfsiod::{NfsiodPool, ReorderStats};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::readahead::{replay, MetricReadAhead, ReplayOutcome, StrictSequential};
use nfstrace_fssim::{DiskModel, DiskParams};
use nfstrace_net::mirror::{MirrorConfig, MirrorPort, MirrorStats, MirrorVerdict};
use nfstrace_serve::ReplayPlan;
use nfstrace_sniffer::wire::Direction;
use nfstrace_sniffer::{Sniffer, SnifferStats, WireEncoder};
use std::fmt::Write as _;

/// Every side experiment, by the name `repro --only` takes.
pub const EXPERIMENTS: [&str; 3] = ["loss", "nfsiod", "readahead"];

/// Renders one experiment — what `repro --only` prints. `None` unless
/// `experiment` is one of [`EXPERIMENTS`]. `loss` replays one CAMPUS
/// day at a quarter of `scale` (floor 0.1).
pub fn experiment_text(experiment: &str, scale: f64) -> Option<String> {
    Some(match experiment {
        "loss" => loss(&scenarios::campus(1, (scale * 0.25).max(0.1), 42)).text,
        "nfsiod" => nfsiod().text,
        "readahead" => readahead().text,
        _ => return None,
    })
}

/// What an experiment returns: the numbers, one row per condition in
/// printed order, plus the rendered text.
#[derive(Debug, Clone)]
pub struct Experiment<Row, const N: usize> {
    /// The numbers `tests/paper_shapes.rs` asserts on.
    pub rows: [Row; N],
    /// Rendered text.
    pub text: String,
}

/// One mirror/transport condition of the §4.1.4 experiment.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// What the row models.
    pub label: &'static str,
    /// What the mirror was offered and dropped, in frames and bytes.
    pub mirror: MirrorStats,
    /// Call/reply pairs put on the wire.
    pub planned: usize,
    /// Pairs the mirror delivered whole — every frame of both messages
    /// forwarded: the ground truth of what the *tap* lost.
    pub intact: usize,
    /// Records the sniffer paired; what it falls short of `intact` by
    /// was delivered whole and lost in reassembly.
    pub paired: usize,
    /// The sniffer's tally: orphan and lost replies, bytes skipped over
    /// TCP gaps, and its own §4.1.4 estimate from those.
    pub sniffer: SnifferStats,
}

impl LossRow {
    /// Fraction of planned pairs the mirror did not deliver whole.
    pub fn true_pair_loss(&self) -> f64 {
        1.0 - self.intact as f64 / self.planned.max(1) as f64
    }
}

/// §4.1.4: an oversubscribed mirror port drops packets during bursts,
/// and the sniffer's unmatched-message accounting estimates the loss.
/// Rows: lossless TCP, oversubscribed TCP, oversubscribed UDP.
pub type Loss = Experiment<LossRow, 3>;

/// Compiles `records` with [`ReplayPlan::from_records`] — every op,
/// real credentials and XIDs — frames each planned call and reply as
/// the serve loop's tap does ([`WireEncoder::exchange_frames`]), and
/// offers every frame to a [`MirrorPort`] in front of a [`Sniffer`]. A
/// record whose reply the trace lost is not a pair and stays off the
/// wire.
pub fn loss(records: &[TraceRecord]) -> Loss {
    // The CAMPUS monitor in a burst: 500 Mb/s of mirror, 160 KiB deep.
    let tap = MirrorConfig {
        rate_bytes_per_sec: 62_000_000.0,
        buffer_bytes: 160 * 1024,
    };
    let plan = ReplayPlan::from_records(records);
    let pairs = || {
        plan.calls
            .iter()
            .filter_map(|c| Some((c, c.reply_bytes.as_ref()?)))
    };
    let planned = pairs().count();
    let row = |label, config, mut enc: WireEncoder| {
        let (mut port, mut sniffer) = (MirrorPort::new(config), Sniffer::new());
        let mut intact = 0;
        for (c, reply) in pairs() {
            let messages = [
                (c.micros, Direction::Call, &c.call_bytes),
                (c.reply_micros, Direction::Reply, reply),
            ];
            let mut whole = true;
            for (ts, dir, msg) in messages {
                for pkt in enc.exchange_frames(ts, c.client_ip, c.server_ip, dir, msg) {
                    if port.offer(pkt.timestamp_micros, pkt.data.len()) == MirrorVerdict::Forwarded
                    {
                        sniffer.observe(&pkt);
                    } else {
                        whole = false;
                    }
                }
            }
            intact += usize::from(whole);
        }
        let (paired, sniffer) = sniffer.finish();
        LossRow {
            label,
            mirror: port.stats(),
            planned,
            intact,
            paired: paired.len(),
            sniffer,
        }
    };
    let rows = [
        row(
            "lossless, TCP",
            MirrorConfig::lossless(),
            WireEncoder::tcp_jumbo(),
        ),
        row("500 Mb/s tap, TCP", tap, WireEncoder::tcp_jumbo()),
        row("500 Mb/s tap, UDP", tap, WireEncoder::udp()),
    ];

    let mut text = format!(
        "mirror-port loss experiment: {planned} call/reply pairs of one CAMPUS day on the wire\n\
         mirror, transport   pkt drop %  intact  paired  orphan    lost tcp bytes lost est. loss % true loss %\n"
    );
    for r in &rows {
        let _ = writeln!(
            text,
            "{:<18} {:>11.2} {:>7} {:>7} {:>7} {:>7} {:>14} {:>11.2} {:>11.2}",
            r.label,
            100.0 * r.mirror.drop_rate(),
            r.intact,
            r.paired,
            r.sniffer.orphan_replies,
            r.sniffer.lost_replies,
            r.sniffer.tcp_bytes_lost,
            100.0 * r.sniffer.estimated_loss_rate(),
            100.0 * r.true_pair_loss()
        );
    }
    text.push_str(
        "intact: pairs the mirror delivered whole (every frame of both messages);\n\
         paired: records the sniffer emitted; true loss = 1 - intact/planned.\n\
         Message loss >> packet loss: losing any frame of the call or the reply\n\
         loses the pair (§4.1.4), and over TCP also the pairs behind it in the stream.\n",
    );
    Experiment { rows, text }
}

/// One nfsiod count of the §4.1.5 experiment.
#[derive(Debug, Clone, Copy)]
pub struct NfsiodRow {
    /// Client nfsiod daemons.
    pub daemons: usize,
    /// Reordering in the paced closed loop.
    pub paced: ReorderStats,
    /// Reordering in the saturated burst.
    pub saturated: ReorderStats,
}

/// §4.1.5: call reordering vs nfsiod count, isolated client/server.
///
/// "When the client ran only one nfsiod, no call reorderings occurred,
/// but as additional nfsiods were added, call reordering became more
/// frequent. In the most extreme case as many as 10% of the packets
/// were reordered, and some calls were delayed by as much as 1 second."
/// One row per daemon count, ascending from one.
pub type Nfsiod = Experiment<NfsiodRow, 6>;

/// Two load regimes: a paced closed loop (the client issues the next
/// call as soon as a daemon can take it, throttled by its own CPU), and
/// a saturated burst (the async queue is always full) — the paper's
/// "most extreme case".
pub fn nfsiod() -> Nfsiod {
    let rows = [1usize, 2, 3, 4, 6, 8].map(|n| {
        let mut paced = NfsiodPool::new(n, 7);
        let mut now = 0u64;
        for _ in 0..200_000u64 {
            now = (now + 40).max(paced.earliest_free());
            paced.dispatch_held(now, 400);
        }
        let mut saturated = NfsiodPool::new(n, 7);
        for _ in 0..200_000u64 {
            saturated.dispatch_held(0, 400);
        }
        NfsiodRow {
            daemons: n,
            paced: paced.stats(),
            saturated: saturated.stats(),
        }
    });

    let mut text = String::from(
        "nfsiod reordering experiment (isolated client/server)\n\
         -- paced closed loop (40 us CPU gap, 400 us RPC hold)\n \
         nfsiods  reordered %   max delay ms\n",
    );
    for r in &rows {
        let pct = 100.0 * r.paced.reorder_fraction();
        let ms = r.paced.max_delay_micros as f64 / 1000.0;
        let _ = writeln!(text, "{:>8} {pct:>12.2} {ms:>14.1}", r.daemons);
    }
    text.push_str("-- saturated burst (async queue always full)\n nfsiods  reordered %\n");
    for r in &rows {
        let pct = 100.0 * r.saturated.reorder_fraction();
        let _ = writeln!(text, "{:>8} {pct:>12.2}", r.daemons);
    }
    Experiment { rows, text }
}

/// One reordering level of the §6.4 experiment.
#[derive(Debug, Clone, Copy)]
pub struct ReadAheadRow {
    /// Roughly this percentage of adjacent request pairs is swapped.
    pub reordered_pct: usize,
    /// The transfer under the classic strictly-sequential detector.
    pub strict: ReplayOutcome,
    /// The transfer under the sequentiality-metric heuristic.
    pub metric: ReplayOutcome,
}

impl ReadAheadRow {
    /// Fraction of the strict detector's time the metric saves.
    pub fn speedup(&self) -> f64 {
        1.0 - self.metric.total_micros as f64 / self.strict.total_micros as f64
    }
}

/// §6.4: a read-ahead heuristic driven by the sequentiality metric vs
/// the classic strictly-sequential detector, under increasing request
/// reordering. The paper modified FreeBSD 4.4's NFS server and saw >5%
/// faster large sequential transfers with ~10% of requests reordered.
/// One row per reordering level, ascending from 0 %.
pub type ReadAhead = Experiment<ReadAheadRow, 6>;

/// Swap roughly `pct`% of adjacent request pairs.
fn reorder(stream: &[(u64, u64)], pct: usize) -> Vec<(u64, u64)> {
    let mut v = stream.to_vec();
    if let Some(stride) = 100usize.checked_div(pct).map(|s| s.max(2)) {
        for i in (stride..v.len().saturating_sub(1)).step_by(stride) {
            v.swap(i, i + 1);
        }
    }
    v
}

/// A 64 MB sequential transfer in 32 KB requests, replayed against the
/// disk model under each policy.
pub fn readahead() -> ReadAhead {
    let base: Vec<(u64, u64)> = (0..2048u64).map(|i| (i * 4, 4)).collect();
    let rows = [0usize, 2, 5, 10, 15, 20].map(|pct| {
        let stream = reorder(&base, pct);
        let disk = || DiskModel::new(DiskParams::default());
        ReadAheadRow {
            reordered_pct: pct,
            strict: replay(&stream, StrictSequential::new(), disk()),
            metric: replay(&stream, MetricReadAhead::new(), disk()),
        }
    });

    let mut text = String::from(
        "read-ahead heuristic experiment: 64 MB sequential transfer\n\
         reordered %   strict (ms)   metric (ms)   speedup\n",
    );
    for r in &rows {
        let strict = r.strict.total_micros as f64 / 1000.0;
        let metric = r.metric.total_micros as f64 / 1000.0;
        let speedup = 100.0 * r.speedup();
        let _ = writeln!(
            text,
            "{:>11} {strict:>13.1} {metric:>13.1} {speedup:>8.1}%",
            r.reordered_pct
        );
    }
    Experiment { rows, text }
}
