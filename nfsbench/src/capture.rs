//! The capture workloads: a pcap file through the passive tracer into
//! sealed, compacted segments — `capture-campus` (cost per byte) and
//! `capture-eecs` (cost per record) run the same code on the paper's
//! two kinds of traffic.

use crate::corpus::{self, PcapInfo, System, UnitClock, IO_BUFFER};
use crate::floors::Floors;
use crate::spans::Tracer;
use crate::timing::Stamp;
use crate::Verdict;
use nfstrace_core::index::RecordStream;
use nfstrace_core::record::TraceRecord;
use nfstrace_live::{LiveConfig, LiveIngest, RecordSource, SnifferSource};
use nfstrace_net::pcap::PcapReader;
use nfstrace_sniffer::SnifferStats;
use nfstrace_store::format::fnv1a64;
use nfstrace_store::{CompactionPolicy, StoreIndex};
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Packets the sniffer sees per batch, as in the serving loop's tap.
pub const PACKETS_PER_BATCH: usize = 512;
/// Generator scale of both capture corpora.
pub const CAPTURE_SCALE: f64 = 0.5;
/// Compaction fan-in behind the ingest.
pub const FAN_IN: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct CaptureSpec {
    pub system: System,
    pub records: usize,
    pub rotate: u64,
}

/// A capture workload's input: the source records and their pcap file.
#[derive(Debug)]
pub struct Corpus {
    pub spec: CaptureSpec,
    pub records: Vec<TraceRecord>,
    pub pcap: PathBuf,
    pub info: PcapInfo,
}

/// One set-up repetition, from the seed to the pcap file, as one pass
/// of `floors`.
pub fn set_up(
    spec: CaptureSpec,
    seed: u64,
    pcap: &Path,
    drop_packet: Option<u64>,
    floors: &mut Floors,
) -> std::io::Result<Corpus> {
    let mut clock = UnitClock::start(floors);
    let records =
        corpus::first_records_timed(spec.system, CAPTURE_SCALE, seed, spec.records, &mut clock);
    let info = corpus::write_pcap(&records, pcap, drop_packet, &mut clock)?;
    floors.end_pass().map_err(std::io::Error::other)?;
    Ok(Corpus {
        spec,
        records,
        pcap: pcap.to_path_buf(),
        info,
    })
}

/// The ingest configuration both capture workloads use: the default
/// compressed v3 store, rotation by record count, compaction behind.
pub fn live_config(dir: &Path, rotate: u64) -> LiveConfig {
    LiveConfig {
        rotate_records: rotate,
        compaction: Some(CompactionPolicy { fan_in: FAN_IN }),
        ..LiveConfig::new(dir)
    }
}

/// A [`RecordSource`] that stamps every hand-off: batch `j` runs from
/// the entry of `next_batch` call `j` to the entry of call `j + 1`,
/// and splits into source time (inside the call) and sink time (the
/// ingest, between calls).
pub struct TimedSource<'t, S> {
    pub inner: S,
    entries: Vec<Stamp>,
    exits: Vec<Stamp>,
    tracer: Option<&'t mut Tracer>,
}

impl<'t, S: RecordSource> TimedSource<'t, S> {
    pub fn new(inner: S, tracer: Option<&'t mut Tracer>) -> Self {
        TimedSource {
            inner,
            entries: Vec::with_capacity(1024),
            exits: Vec::with_capacity(1024),
            tracer,
        }
    }

    /// Closes the pass that began at `start` and ended at `end`:
    /// observes one unit per batch into `units` (entry to entry; the
    /// first from `start`, the last to `end`) and its source/sink split
    /// into the other two.
    pub fn observe_into(&mut self, start: Stamp, end: Stamp, timers: &mut PassTimers<'_>) {
        if let (Some(tracer), Some(last)) = (self.tracer.as_deref_mut(), self.exits.last()) {
            tracer.record("live.sink", last.wall(), end.wall());
        }
        for j in 0..self.entries.len() {
            let from = if j == 0 { start } else { self.entries[j] };
            let to = self.entries.get(j + 1).copied().unwrap_or(end);
            let (wall, cpu) = to.since(&from);
            timers.units.observe(j, wall, cpu);
            let (source, _) = self.exits[j].since(&self.entries[j]);
            timers.source.observe(j, source, 0);
            timers.sink.observe(j, to.since(&self.exits[j]).0, 0);
        }
    }
}

impl<S: RecordSource> RecordSource for TimedSource<'_, S> {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        let entry = Stamp::now();
        let more = self.inner.next_batch(out);
        let exit = Stamp::now();
        if let Some(tracer) = self.tracer.as_deref_mut() {
            if let Some(last) = self.exits.last() {
                tracer.record("live.sink", last.wall(), entry.wall());
            }
            tracer.record("sniffer.source", entry.wall(), exit.wall());
        }
        self.entries.push(entry);
        self.exits.push(exit);
        more
    }
}

/// Where a pass's timings go.
pub struct PassTimers<'a> {
    pub units: &'a mut Floors,
    pub source: &'a mut Floors,
    pub sink: &'a mut Floors,
}

/// The three floors of a fused capture run.
#[derive(Debug, Default)]
pub struct FusedFloors {
    pub units: Floors,
    pub source: Floors,
    pub sink: Floors,
}

impl FusedFloors {
    pub fn timers(&mut self) -> PassTimers<'_> {
        PassTimers {
            units: &mut self.units,
            source: &mut self.source,
            sink: &mut self.sink,
        }
    }

    pub fn end_pass(&mut self) -> std::io::Result<()> {
        for f in [&mut self.units, &mut self.source, &mut self.sink] {
            f.end_pass().map_err(std::io::Error::other)?;
        }
        Ok(())
    }
}

/// What one pass left behind.
#[derive(Debug)]
pub struct PassResult {
    pub stats: SnifferStats,
    /// Hash over the names and bytes of the segment directory.
    pub dir_hash: u64,
    /// Bytes of the sealed segments.
    pub store_bytes: u64,
}

/// A store error as the I/O error a run fails with.
pub fn store_err(e: nfstrace_store::StoreError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// One pass: the pcap file through `PcapReader` → `SnifferSource` →
/// `LiveIngest` (rotating, compacting) → `finish`, into a fresh
/// `seg_dir`. With `timers`, one unit per batch is observed (the caller
/// closes the pass).
pub fn fused_pass(
    corpus: &Corpus,
    seg_dir: &Path,
    timers: Option<&mut PassTimers<'_>>,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<PassResult> {
    std::fs::remove_dir_all(seg_dir).ok();
    let start = Stamp::now();
    let file = BufReader::with_capacity(IO_BUFFER, std::fs::File::open(&corpus.pcap)?);
    let reader = PcapReader::new(file).map_err(|e| std::io::Error::other(e.to_string()))?;
    // A read error ends the feed, as a truncated capture file would; the
    // verifier then finds the records missing.
    let packets = reader.packets().map_while(Result::ok);
    let mut source = TimedSource::new(SnifferSource::new(packets, PACKETS_PER_BATCH), tracer);
    let mut ingest =
        LiveIngest::create(live_config(seg_dir, corpus.spec.rotate)).map_err(store_err)?;
    ingest.run(&mut source).map_err(store_err)?;
    ingest.finish().map_err(store_err)?;
    let end = Stamp::now();
    if let Some(timers) = timers {
        source.observe_into(start, end, timers);
    }
    let stats = source
        .inner
        .stats()
        .ok_or_else(|| std::io::Error::other("the sniffer source did not reach its end"))?;
    let (dir_hash, store_bytes) = hash_dir(seg_dir)?;
    Ok(PassResult {
        stats,
        dir_hash,
        store_bytes,
    })
}

/// `(hash, total bytes)` over the files of `dir`, by name.
pub fn hash_dir(dir: &Path) -> std::io::Result<(u64, u64)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    names.sort();
    let (mut hash, mut bytes) = (0u64, 0u64);
    for path in names {
        let data = std::fs::read(&path)?;
        bytes += data.len() as u64;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name_hash = fnv1a64(name.unwrap_or_default().as_bytes());
        hash = fnv1a64(
            &[
                hash.to_le_bytes(),
                name_hash.to_le_bytes(),
                fnv1a64(&data).to_le_bytes(),
            ]
            .concat(),
        );
    }
    Ok((hash, bytes))
}

/// Every record of the segment directory `dir`, in stream order.
pub fn read_back(dir: &Path) -> Result<Vec<TraceRecord>, nfstrace_store::StoreError> {
    let index = StoreIndex::open_dir(dir)?;
    let mut out = Vec::new();
    index.for_each_record(&mut |r| out.push(r.clone()));
    Ok(out)
}

/// Records of `got` that are missing or differ from `expected`.
pub fn count_mismatches(expected: &[TraceRecord], got: &[TraceRecord]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

/// The untimed check after the last pass: the catalog read back equals
/// the source records (as a tracer at this MSS stamps them), the tracer
/// saw no orphan reply, decode error or loss, and every pass wrote the
/// same bytes.
pub fn verify(
    corpus: &Corpus,
    seg_dir: &Path,
    last: &PassResult,
    same_bytes_every_pass: bool,
) -> Verdict {
    let expected = corpus::as_sniffed(&corpus.records);
    let mut verdict = Verdict::new(expected.len() as u64);
    match read_back(seg_dir) {
        Ok(got) => verdict.fail(
            count_mismatches(&expected, &got),
            "records read back from the catalog differ from the source",
        ),
        Err(e) => verdict.fail(expected.len() as u64, &format!("catalog unreadable: {e}")),
    }
    let s = &last.stats;
    verdict.fail(s.orphan_replies, "orphan replies");
    verdict.fail(s.decode_errors, "decode errors");
    verdict.fail(
        s.lost_replies + s.tcp_bytes_lost.min(1),
        "estimated loss is not zero",
    );
    verdict.fail(
        u64::from(!same_bytes_every_pass),
        "segment directory differs between passes",
    );
    verdict
}
