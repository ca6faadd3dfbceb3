//! Inputs, all made in-process from `--seed`: generated records, the
//! wire messages they compile to, and the packets a mirror port would
//! have seen. The set-up builders are cut into units so that
//! `setup_s` is a sum of floors like every other timing.
//!
//! What the seed decides: the *population* is the repository's
//! canonical one (`scenarios::CAMPUS_SEED` / `EECS_SEED`, the traces
//! every `repro` binary analyses); the seed draws its *labels* — client
//! addresses, transaction ids, uids. Two seeds therefore give traffic
//! of the same shape over different flows, client ports, hash buckets
//! and shard routes. Re-drawing the population itself moves every
//! per-record metric by more than any useful regression bound (over
//! ten seeds, the first 32 000 CAMPUS records vary by 5.5 % in bytes
//! per record and the 4-user suite traces by 23 % in allocations per
//! record), which would measure the generator, not the tracer.

use crate::floors::Floors;
use crate::timing::Stamp;
use nfstrace_bench::scenarios::{campus_config, eecs_config, CAMPUS_SEED, EECS_SEED};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::HOUR;
use nfstrace_net::pcap::{CapturedPacket, PcapHeader, PcapWriter};
use nfstrace_serve::{PlannedCall, ReplayPlan};
use nfstrace_sniffer::WireEncoder;
use nfstrace_workload::SlicedWorkload;
use std::io::{BufWriter, Write};
use std::path::Path;

/// The NFS port the synthesized frames carry.
const NFS_PORT: u16 = 2049;
/// Payload bytes per segment of `WireEncoder::tcp_standard`.
const MSS: usize = 1448;
/// Records compiled, framed and written per set-up unit.
const ENCODE_CHUNK: usize = 1_000;
/// Buffer between the pcap reader/writer and the file.
pub const IO_BUFFER: usize = 1 << 20;

/// The paper's two traced systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The email server: few, large READ/WRITE messages.
    Campus,
    /// The research server: many small metadata calls.
    Eecs,
}

/// How much work each workload does. `smoke` is a sixteenth of `full`
/// (the 8-day suite traces are already at the generator's smallest
/// population, so they shrink in days instead).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub campus_records: usize,
    pub campus_rotate: u64,
    pub eecs_records: usize,
    pub eecs_rotate: u64,
    pub serve_records: usize,
    pub probe_calls: usize,
    pub suite_days: u64,
    pub file_queries: usize,
    pub window_queries: usize,
    /// Set-up repetitions: at least, and at most. The first repetitions
    /// of a process run on a cold heap (page faults, allocator growth)
    /// and cost up to twice the later ones, so the floor keeps falling
    /// for a dozen repetitions; a cheap set-up gets as many as fit its
    /// share of the run.
    pub setup_reps: (usize, usize),
    /// Passes a run must complete whatever the time budget says.
    pub min_passes: usize,
    /// Hard cap on passes (`usize::MAX` when time-boxed).
    pub max_passes: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            campus_records: 32_000,
            campus_rotate: 4_000,
            eecs_records: 96_000,
            eecs_rotate: 12_000,
            serve_records: 6_000,
            probe_calls: 256,
            suite_days: 8,
            file_queries: 128,
            window_queries: 16,
            setup_reps: (3, 64),
            min_passes: 3,
            max_passes: usize::MAX,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            campus_records: 2_000,
            campus_rotate: 250,
            eecs_records: 6_000,
            eecs_rotate: 750,
            serve_records: 375,
            probe_calls: 16,
            suite_days: 2,
            file_queries: 8,
            window_queries: 2,
            setup_reps: (2, 2),
            min_passes: 2,
            max_passes: 2,
        }
    }
}

/// SplitMix64: the harness's own deterministic sampler (labels,
/// synthetic test inputs).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The seed's relabelling of a trace: a bijection on client addresses,
/// transaction ids and user ids that keeps every relation between
/// records (and almost every encoded width) intact.
///
/// File handles keep their labels. Relabelled, they land on other bits
/// of the stores' per-chunk Bloom filters, a point query decodes other
/// falsely admitted chunks, and suite-store's work per pass moves by 3 %
/// from seed to seed (measured as allocations per record, which repeat
/// exactly for one seed) — luck of the labelling that no change to the
/// program could be told from.
#[derive(Debug, Clone, Copy)]
pub struct Labels {
    client: u32,
    xid: u32,
    user: u32,
}

impl Labels {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        Labels {
            // Bits 8..24 of the address: another subnet, same hosts.
            client: (1 + rng.below(0xffff) as u32) << 8,
            // Small, so that almost no id changes its encoded width.
            xid: rng.below(1 << 20) as u32,
            user: rng.below(1_000) as u32,
        }
    }

    pub fn apply(&self, r: &mut TraceRecord) {
        r.client = r.client.wrapping_add(self.client);
        assert_ne!(
            r.client, r.server,
            "a relabelled client landed on the server's address"
        );
        r.xid = r.xid.wrapping_add(self.xid);
        r.uid = r.uid.wrapping_add(self.user);
        r.gid = r.gid.wrapping_add(self.user);
    }
}

/// Sequential unit timing into a [`Floors`]: work, `lap()`, work,
/// `lap()`, … — each lap closes the unit that began at the previous
/// lap (or at `start`).
pub struct UnitClock<'a> {
    floors: &'a mut Floors,
    next: usize,
    last: Stamp,
}

impl<'a> UnitClock<'a> {
    pub fn start(floors: &'a mut Floors) -> Self {
        UnitClock {
            floors,
            next: 0,
            last: Stamp::now(),
        }
    }

    pub fn lap(&mut self) {
        let now = Stamp::now();
        let (wall, cpu) = now.since(&self.last);
        self.floors.observe(self.next, wall, cpu);
        self.next += 1;
        self.last = now;
    }
}

fn sliced(system: System, scale: f64, threads: usize) -> SlicedWorkload {
    match system {
        System::Campus => {
            SlicedWorkload::campus(campus_config(8, scale, CAMPUS_SEED), HOUR, threads)
        }
        System::Eecs => SlicedWorkload::eecs(eecs_config(8, scale, EECS_SEED), HOUR, threads),
    }
}

/// The first `n` records of `system`'s canonical 8-day trace at
/// `scale`, generated slice by slice and relabelled by `seed`; one unit
/// for building the simulations, one per simulated hour, one for the
/// relabelling.
pub fn first_records_timed(
    system: System,
    scale: f64,
    seed: u64,
    n: usize,
    clock: &mut UnitClock<'_>,
) -> Vec<TraceRecord> {
    let mut workload = sliced(system, scale, nfstrace_core::parallel::threads());
    clock.lap();
    let mut out: Vec<TraceRecord> = Vec::new();
    while out.len() < n {
        let more = nfstrace_core::sink::into_ok(workload.next_slice_into(&mut out));
        clock.lap();
        if !more {
            break;
        }
    }
    assert!(
        out.len() >= n,
        "{system:?} at scale {scale} has only {} records, {n} wanted",
        out.len()
    );
    out.truncate(n);
    let labels = Labels::from_seed(seed);
    out.iter_mut().for_each(|r| labels.apply(r));
    clock.lap();
    out
}

/// [`first_records_timed`] without the timing.
pub fn first_records(system: System, scale: f64, seed: u64, n: usize) -> Vec<TraceRecord> {
    let mut scratch = Floors::new();
    first_records_timed(system, scale, seed, n, &mut UnitClock::start(&mut scratch))
}

/// What a trace record looks like after a trip over the wire: every
/// record re-captures as NFSv3 (`nfstrace_serve::reverse`).
pub fn as_captured(records: &[TraceRecord]) -> Vec<TraceRecord> {
    records
        .iter()
        .map(|r| TraceRecord {
            vers: 3,
            ..r.clone()
        })
        .collect()
}

/// What the passive tracer makes of `records` framed by [`frame_call`]:
/// NFSv3, and — because the encoder gives the segments of one message
/// consecutive capture ticks and a message is stamped when its last
/// segment arrives — call and reply times later by one microsecond per
/// extra segment, re-sorted by call time as the tracer emits them.
pub fn as_sniffed(records: &[TraceRecord]) -> Vec<TraceRecord> {
    let extra_ticks = |message_len: usize| ((message_len + 4).div_ceil(MSS) - 1) as u64;
    let plan = ReplayPlan::from_records(records);
    let mut out: Vec<TraceRecord> = records
        .iter()
        .zip(&plan.calls)
        .map(|(r, c)| TraceRecord {
            vers: 3,
            micros: r.micros + extra_ticks(c.call_bytes.len()),
            reply_micros: r.reply_micros
                + c.reply_bytes.as_ref().map_or(0, |b| extra_ticks(b.len())),
            ..r.clone()
        })
        .collect();
    out.sort_by_key(|r| r.micros);
    out
}

/// Frames one planned call and its reply as standard-MSS TCP segments,
/// call first, exactly as the serving loop's tap orders them.
pub fn frame_call(enc: &mut WireEncoder, c: &PlannedCall, mut emit: impl FnMut(CapturedPacket)) {
    let cport = WireEncoder::client_port(c.client_ip);
    enc.encode_message(
        c.micros,
        c.client_ip,
        c.server_ip,
        cport,
        NFS_PORT,
        &c.call_bytes,
    )
    .into_iter()
    .for_each(&mut emit);
    if let Some(reply) = &c.reply_bytes {
        enc.encode_message(
            c.reply_micros,
            c.server_ip,
            c.client_ip,
            NFS_PORT,
            cport,
            reply,
        )
        .into_iter()
        .for_each(&mut emit);
    }
}

/// The packets of `records` through one fresh standard-MSS encoder.
#[cfg(test)]
pub fn encode_packets(records: &[TraceRecord]) -> Vec<CapturedPacket> {
    let mut enc = WireEncoder::tcp_standard();
    let mut out = Vec::new();
    for c in &ReplayPlan::from_records(records).calls {
        frame_call(&mut enc, c, |p| out.push(p));
    }
    out
}

/// A capture workload's input on disk.
#[derive(Debug)]
pub struct PcapInfo {
    pub packets: u64,
    pub bytes: u64,
}

/// Compiles `records` to wire RPC, frames them at MSS 1448 and writes
/// the pcap file; one unit per [`ENCODE_CHUNK`] records and one for
/// the final flush. `drop_packet` leaves that packet out (the
/// verifier's self-test).
pub fn write_pcap(
    records: &[TraceRecord],
    path: &Path,
    drop_packet: Option<u64>,
    clock: &mut UnitClock<'_>,
) -> std::io::Result<PcapInfo> {
    let io_err = |e: nfstrace_net::Error| std::io::Error::other(e.to_string());
    let file = BufWriter::with_capacity(IO_BUFFER, std::fs::File::create(path)?);
    let mut writer = PcapWriter::new(file, PcapHeader::default()).map_err(io_err)?;
    let mut enc = WireEncoder::tcp_standard();
    let mut packets = 0u64;
    let mut result = Ok(());
    for chunk in records.chunks(ENCODE_CHUNK) {
        for c in &ReplayPlan::from_records(chunk).calls {
            frame_call(&mut enc, c, |p| {
                if Some(packets) != drop_packet && result.is_ok() {
                    result = writer.write_packet(&p);
                }
                packets += 1;
            });
        }
        clock.lap();
    }
    result.map_err(io_err)?;
    writer.into_inner().flush()?;
    clock.lap();
    Ok(PcapInfo {
        packets,
        bytes: std::fs::metadata(path)?.len(),
    })
}
