//! One run of one workload: set-up repetitions, the counted warm-up
//! pass, timed passes until the budget is spent, the untimed
//! verification, and the metrics. With tracing, the same corpus is
//! also replayed stage by stage for the per-layer metrics.

use crate::alloc::{self, AllocCounts};
use crate::capture::{self, CaptureSpec, FusedFloors};
use crate::corpus::{self, Sizes, System};
use crate::floors::{quantile, Floors};
use crate::spans::Tracer;
use crate::spec::{Metrics, WORKLOADS};
use crate::{micro, serve, stages, suite, timing};
use nfstrace_core::record::TraceRecord;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Share of `--seconds` after which no further set-up repetition
/// starts; the counted pass and the timed passes have the rest.
const SETUP_SHARE: f64 = 0.2;
/// Shares of a traced run's seconds at which its phases end: the
/// set-up and the fused passes, the workload's own stage group, the
/// leaf-layer group. The other groups then run twice at smoke size.
const TRACED_UNTIL: (f64, f64, f64) = (0.3, 0.75, 0.85);

/// What a run's verifier found.
#[derive(Debug)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn new(attempted: u64) -> Self {
        Verdict {
            attempted: attempted.max(1),
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Counts `n` failures for the reason `why` (nothing when `n` is 0).
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("{n}: {why}"));
        }
    }
}

/// When a pass loop stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub deadline: Instant,
    pub min_passes: usize,
    pub max_passes: usize,
}

impl Budget {
    pub fn more(&self, done: usize) -> bool {
        done < self.min_passes || (done < self.max_passes && Instant::now() < self.deadline)
    }

    /// Passes until `share` of the run's seconds have gone by since it
    /// began.
    fn until(share: f64, cfg: &RunConfig) -> Self {
        Budget {
            deadline: cfg.started + Duration::from_secs_f64(cfg.seconds * share),
            min_passes: cfg.sizes.min_passes,
            max_passes: cfg.sizes.max_passes,
        }
    }

    fn exactly(passes: usize) -> Self {
        Budget {
            deadline: Instant::now(),
            min_passes: passes,
            max_passes: passes,
        }
    }
}

/// Deliberate damage, for the verifier's self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte of one reply the probe's server holds.
    FlipReply,
    /// Leave one packet out of the pcap file.
    DropPacket,
    /// Cut one sealed segment in half before verifying.
    TruncateSegment,
}

impl Fault {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flip-reply" => Some(Fault::FlipReply),
            "drop-packet" => Some(Fault::DropPacket),
            "truncate-segment" => Some(Fault::TruncateSegment),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Index into [`WORKLOADS`].
    pub workload: usize,
    pub seed: u64,
    /// When the run began, and how long it may measure.
    pub started: Instant,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where scratch files and `spans-<workload>.jsonl` go.
    pub out: PathBuf,
    pub fault: Option<Fault>,
}

#[derive(Debug)]
pub struct RunResult {
    pub verdict: Verdict,
    pub metrics: Metrics,
    /// `bench.*` numbers of an untraced run: printed for the reader,
    /// never gated.
    pub health: Vec<(&'static str, f64)>,
}

/// How disturbed the machine was: the fixed spin, run after every pass.
#[derive(Debug, Default)]
struct Spins(Vec<u64>);

impl Spins {
    fn spin(&mut self) {
        self.0.push(timing::spin());
    }

    fn floor_ns(&self) -> f64 {
        self.0.iter().min().copied().unwrap_or(0) as f64
    }

    fn median_over_floor(&self) -> f64 {
        quantile(&self.0, 0.5) / self.floor_ns().max(1.0)
    }
}

fn health(units: &Floors, spins: &Spins) -> Vec<(&'static str, f64)> {
    vec![
        ("bench.passes", units.passes() as f64),
        (
            "bench.pass_median_over_floor",
            units.pass_median_over_floor(),
        ),
        ("bench.pass_iqr_pct", units.pass_iqr_pct()),
        ("bench.spin_floor_ns", spins.floor_ns()),
        ("bench.spin_median_over_floor", spins.median_over_floor()),
        ("bench.vm_hwm_mib", timing::vm_hwm_mib()),
    ]
}

/// Repeats `set_up` from scratch — at least `Sizes::setup_reps.0`
/// times, then for as long as another repetition fits the set-up share
/// of the budget — and returns the last corpus. Each repetition is one
/// pass of the floors `set_up` observes into.
fn repeat_set_up<T>(
    cfg: &RunConfig,
    mut set_up: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let budget = cfg.seconds * SETUP_SHARE;
    let (min, max) = cfg.sizes.setup_reps;
    let mut corpus = set_up()?;
    let mut reps = 1;
    while reps < min
        || (reps < max
            && cfg.started.elapsed().as_secs_f64() * (reps + 1) as f64 / reps as f64 <= budget)
    {
        corpus = set_up()?;
        reps += 1;
    }
    Ok(corpus)
}

/// What the eight end-to-end metrics are computed from.
struct EndToEndInputs<'a> {
    records: u64,
    setup: &'a Floors,
    units: &'a Floors,
    latency_units: Range<usize>,
    counted: AllocCounts,
    store_bytes: u64,
}

fn end_to_end(m: &mut Metrics, e: &EndToEndInputs<'_>) {
    let records = e.records as f64;
    m.set("setup_s", e.setup.sum_wall() / 1e9);
    m.set("records_per_s", records / (e.units.sum_wall() / 1e9));
    m.set("cpu_us_per_record", e.units.sum_cpu() / 1e3 / records);
    m.set(
        "latency_p50_us",
        e.units.quantile_wall(e.latency_units.clone(), 0.5) / 1e3,
    );
    m.set("allocs_per_record", e.counted.allocs as f64 / records);
    m.set("alloc_bytes_per_record", e.counted.bytes as f64 / records);
    m.set(
        "peak_heap_mib",
        e.counted.peak_live_bytes as f64 / (1u64 << 20) as f64,
    );
    m.set("store_bytes_per_record", e.store_bytes as f64 / records);
}

/// The harness-health metrics of a traced run.
fn bench_metrics(
    m: &mut Metrics,
    plain: &Floors,
    traced: &Floors,
    spins: &Spins,
    critical_path_ns: f64,
) {
    for (name, value) in health(plain, spins) {
        m.set(name, value);
    }
    let floor = plain.sum_wall().max(1.0);
    m.set(
        "bench.trace_overhead_pct",
        (traced.sum_wall() - floor) / floor * 100.0,
    );
    m.set(
        "bench.span_residual_pct",
        (floor - critical_path_ns) / floor * 100.0,
    );
}

fn capture_spec(sizes: &Sizes, system: System) -> CaptureSpec {
    match system {
        System::Campus => CaptureSpec {
            system,
            records: sizes.campus_records,
            rotate: sizes.campus_rotate,
        },
        System::Eecs => CaptureSpec {
            system,
            records: sizes.eecs_records,
            rotate: sizes.eecs_rotate,
        },
    }
}

/// Runs the workload `cfg` names.
///
/// # Errors
///
/// I/O and store errors from the system under test or the scratch
/// directory; the run then has no result.
pub fn run(cfg: &RunConfig) -> std::io::Result<RunResult> {
    let name = WORKLOADS[cfg.workload].name;
    let scratch = cfg
        .out
        .join(format!("{name}-{}-{}", std::process::id(), cfg.seed));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch)?;
    let mut tracer = Tracer::new();
    let result = match name {
        "capture-campus" => run_capture(cfg, System::Campus, &scratch, &mut tracer),
        "capture-eecs" => run_capture(cfg, System::Eecs, &scratch, &mut tracer),
        "serve-campus" => run_serve(cfg, &scratch, &mut tracer),
        _ => run_suite(cfg, &scratch, &mut tracer),
    };
    std::fs::remove_dir_all(&scratch).ok();
    if cfg.trace && result.is_ok() {
        tracer.write_jsonl(&cfg.out.join(format!("spans-{name}.jsonl")))?;
    }
    result
}

/// The stage groups a traced run owes besides its own, each twice at
/// smoke size, so that every per-layer metric is measured in every
/// traced run (the owning workload's run is the authoritative one).
struct Foreign {
    capture: bool,
    serve: bool,
    suite: bool,
}

fn foreign_groups(
    cfg: &RunConfig,
    which: Foreign,
    scratch: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let sizes = Sizes::smoke();
    let twice = Budget::exactly(2);
    let mut unused = Floors::new();
    if which.capture {
        let corpus = capture::set_up(
            capture_spec(&sizes, System::Eecs),
            cfg.seed,
            &scratch.join("foreign.pcap"),
            None,
            &mut unused,
        )?;
        stages::capture_group(&corpus, &scratch.join("foreign-capture"), &twice, tracer, m)?;
    }
    if which.serve {
        let corpus = serve::set_up(&sizes, cfg.seed, &mut Floors::new())?;
        let eecs = corpus::first_records(System::Eecs, 0.5, cfg.seed, sizes.serve_records);
        serve::serve_group(
            &corpus,
            &eecs,
            &scratch.join("foreign-serve"),
            &twice,
            tracer,
            m,
        )?;
    }
    if which.suite {
        let corpus = suite::set_up(
            &sizes,
            cfg.seed,
            &scratch.join("foreign-suite"),
            &mut Floors::new(),
        )?;
        let q = suite::queries(&corpus, &sizes);
        suite::suite_group(&corpus, &q, &twice, tracer, m)?;
    }
    Ok(())
}

fn run_capture(
    cfg: &RunConfig,
    system: System,
    scratch: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<RunResult> {
    let spec = capture_spec(&cfg.sizes, system);
    let seed = cfg.seed;
    let pcap = scratch.join("capture.pcap");
    let seg_dir = scratch.join("segments");
    let drop_packet = (cfg.fault == Some(Fault::DropPacket)).then_some(777);
    let mut setup = Floors::new();
    let corpus = if cfg.trace {
        capture::set_up(spec, seed, &pcap, drop_packet, &mut setup)?
    } else {
        repeat_set_up(cfg, || {
            capture::set_up(spec, seed, &pcap, drop_packet, &mut setup)
        })?
    };
    eprintln!(
        "{}: {} records, {} packets, pcap {:.1} MiB (page-cache served)",
        WORKLOADS[cfg.workload].name,
        corpus.records.len(),
        corpus.info.packets,
        corpus.info.bytes as f64 / (1u64 << 20) as f64
    );

    // The warm-up pass is the counted pass.
    alloc::count_all_threads();
    let warm = capture::fused_pass(&corpus, &seg_dir, None, None);
    let counted = alloc::stop();
    let warm = warm?;

    let mut plain = FusedFloors::default();
    let mut traced = FusedFloors::default();
    let mut spins = Spins::default();
    let mut same_bytes = true;
    let mut last = warm;
    let budget = Budget::until(if cfg.trace { TRACED_UNTIL.0 } else { 1.0 }, cfg);
    let mut passes = 0;
    while budget.more(passes) {
        // A traced run alternates plain and traced passes, so that both
        // floors see the same machine.
        let with_spans = cfg.trace && passes % 2 == 1;
        let side = if with_spans { &mut traced } else { &mut plain };
        let result = capture::fused_pass(
            &corpus,
            &seg_dir,
            Some(&mut side.timers()),
            with_spans.then_some(&mut *tracer),
        )?;
        side.end_pass()?;
        if with_spans {
            tracer.next_pass();
        }
        same_bytes &= result.dir_hash == last.dir_hash;
        last = result;
        spins.spin();
        passes += 1;
    }

    if cfg.fault == Some(Fault::TruncateSegment) {
        truncate_one_segment(&seg_dir)?;
    }
    let verdict = capture::verify(&corpus, &seg_dir, &last, same_bytes);

    let mut metrics = Metrics::new();
    let records = corpus.records.len() as u64;
    if cfg.trace {
        fused_adapter_metrics(&mut metrics, &plain, records);
        let own = Budget::until(TRACED_UNTIL.1, cfg);
        let group =
            stages::capture_group(&corpus, &scratch.join("stages"), &own, tracer, &mut metrics)?;
        let which = Foreign {
            capture: false,
            serve: true,
            suite: true,
        };
        foreign_groups(cfg, which, scratch, tracer, &mut metrics)?;
        let leaf = Budget::until(TRACED_UNTIL.2, cfg);
        micro::micro_group(
            &corpus.records,
            &cfg.sizes,
            cfg.seed,
            &leaf,
            tracer,
            &mut metrics,
        )?;
        bench_metrics(
            &mut metrics,
            &plain.units,
            &traced.units,
            &spins,
            group.critical_path_ns,
        );
        eprintln!("staged passes: {}", group.passes);
        return Ok(RunResult {
            verdict,
            metrics,
            health: Vec::new(),
        });
    }
    end_to_end(
        &mut metrics,
        &EndToEndInputs {
            records,
            setup: &setup,
            units: &plain.units,
            latency_units: 0..plain.units.units(),
            counted,
            store_bytes: last.store_bytes,
        },
    );
    Ok(RunResult {
        verdict,
        metrics,
        health: health(&plain.units, &spins),
    })
}

/// Cuts the first sealed segment of `dir` in half.
fn truncate_one_segment(dir: &Path) -> std::io::Result<()> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "nfseg"))
        .collect();
    segments.sort();
    let path = segments
        .first()
        .ok_or_else(|| std::io::Error::other("no segment to truncate"))?;
    let len = std::fs::metadata(path)?.len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len / 2)
}

fn run_serve(cfg: &RunConfig, scratch: &Path, tracer: &mut Tracer) -> std::io::Result<RunResult> {
    let mut setup = Floors::new();
    let mut corpus = if cfg.trace {
        serve::set_up(&cfg.sizes, cfg.seed, &mut setup)?
    } else {
        repeat_set_up(cfg, || serve::set_up(&cfg.sizes, cfg.seed, &mut setup))?
    };
    if cfg.fault == Some(Fault::FlipReply) {
        let call = &mut corpus.probe.calls[cfg.sizes.probe_calls / 2];
        let byte = call.reply_bytes.as_mut().and_then(|b| b.last_mut());
        *byte.ok_or_else(|| std::io::Error::other("no reply byte to flip"))? ^= 0x01;
    }
    eprintln!(
        "serve-campus: {} calls in {} roundtrips, {:.1} MiB over the socket, {} probe calls",
        corpus.calls(),
        corpus.plans.len(),
        corpus.wire_bytes() as f64 / (1u64 << 20) as f64,
        corpus.probe.calls.len()
    );

    // From here on one CPU (timing.rs says why); the set-up's generator
    // threads had both.
    let one_cpu = timing::OneCpu::pin();
    if one_cpu.is_none() {
        eprintln!("serve-campus: could not pin to one CPU; client and server threads go where the scheduler puts them");
    }
    alloc::count_all_threads();
    let warm = serve::pass(&corpus, scratch, None, None);
    let counted = alloc::stop();
    let mut last = warm?;

    // The roundtrips are two threads over a socket: medians (floors.rs).
    let mut plain = Floors::new().medians_for(0..corpus.plans.len());
    let mut traced = Floors::new().medians_for(0..corpus.plans.len());
    let mut spins = Spins::default();
    let budget = Budget::until(if cfg.trace { TRACED_UNTIL.0 } else { 1.0 }, cfg);
    let mut passes = 0;
    while budget.more(passes) {
        let with_spans = cfg.trace && passes % 2 == 1;
        let side = if with_spans { &mut traced } else { &mut plain };
        last = serve::pass(
            &corpus,
            scratch,
            Some(&mut *side),
            with_spans.then_some(&mut *tracer),
        )?;
        side.end_pass().map_err(std::io::Error::other)?;
        if with_spans {
            tracer.next_pass();
        }
        spins.spin();
        passes += 1;
    }
    let verdict = serve::verify(&corpus, scratch, &last)?;

    let mut metrics = Metrics::new();
    let records = (corpus.calls() + corpus.probe.calls.len()) as u64;
    if cfg.trace {
        let own = Budget::until(TRACED_UNTIL.1, cfg);
        let eecs = corpus::first_records(System::Eecs, 0.5, cfg.seed, cfg.sizes.serve_records);
        let group = serve::serve_group(
            &corpus,
            &eecs,
            &scratch.join("stages"),
            &own,
            tracer,
            &mut metrics,
        )?;
        let which = Foreign {
            capture: true,
            serve: false,
            suite: true,
        };
        foreign_groups(cfg, which, scratch, tracer, &mut metrics)?;
        // The fused-pass adapter metrics belong to the capture runs;
        // here they come from two smoke-size capture passes.
        foreign_fused_capture(cfg, scratch, &mut metrics)?;
        let leaf = Budget::until(TRACED_UNTIL.2, cfg);
        micro::micro_group(
            &corpus.records,
            &cfg.sizes,
            cfg.seed,
            &leaf,
            tracer,
            &mut metrics,
        )?;
        bench_metrics(
            &mut metrics,
            &plain,
            &traced,
            &spins,
            group.critical_path_ns,
        );
        eprintln!("staged passes: {}", group.passes);
        return Ok(RunResult {
            verdict,
            metrics,
            health: Vec::new(),
        });
    }
    end_to_end(
        &mut metrics,
        &EndToEndInputs {
            records,
            setup: &setup,
            units: &plain,
            latency_units: corpus.plans.len()..plain.units(),
            counted,
            store_bytes: last.store_bytes,
        },
    );
    Ok(RunResult {
        verdict,
        metrics,
        health: health(&plain, &spins),
    })
}

/// The three per-layer metrics only a fused capture pass yields: what
/// the `TimedSource` adapter saw.
fn fused_adapter_metrics(m: &mut Metrics, floors: &FusedFloors, records: u64) {
    let (source, sink) = (floors.source.sum_wall(), floors.sink.sum_wall());
    m.set("sniffer.source_ns_per_record", source / records as f64);
    m.set("sniffer.source_share", source / (source + sink).max(1.0));
    m.set(
        "live.batch_p99_us",
        floors.units.quantile_wall(0..floors.units.units(), 0.99) / 1e3,
    );
}

/// [`fused_adapter_metrics`] from
/// two smoke-size capture-eecs passes — for the traced runs of the
/// workloads that are not capture workloads.
fn foreign_fused_capture(cfg: &RunConfig, scratch: &Path, m: &mut Metrics) -> std::io::Result<()> {
    let sizes = Sizes::smoke();
    let corpus = capture::set_up(
        capture_spec(&sizes, System::Eecs),
        cfg.seed,
        &scratch.join("foreign-fused.pcap"),
        None,
        &mut Floors::new(),
    )?;
    let mut floors = FusedFloors::default();
    for _ in 0..2 {
        capture::fused_pass(
            &corpus,
            &scratch.join("foreign-fused"),
            Some(&mut floors.timers()),
            None,
        )?;
        floors.end_pass()?;
    }
    fused_adapter_metrics(m, &floors, corpus.records.len() as u64);
    Ok(())
}

fn run_suite(cfg: &RunConfig, scratch: &Path, tracer: &mut Tracer) -> std::io::Result<RunResult> {
    let stores = scratch.join("stores");
    let mut setup = Floors::new();
    let corpus = if cfg.trace {
        suite::set_up(&cfg.sizes, cfg.seed, &stores, &mut setup)?
    } else {
        repeat_set_up(cfg, || {
            suite::set_up(&cfg.sizes, cfg.seed, &stores, &mut setup)
        })?
    };
    let q = suite::queries(&corpus, &cfg.sizes);
    eprintln!(
        "suite-store: {} records in two stores, {:.1} MiB, {} file queries, {} window scans",
        corpus.records,
        corpus.store_bytes as f64 / (1u64 << 20) as f64,
        q.files.len(),
        q.windows.len()
    );

    alloc::count_all_threads();
    let warm = suite::pass(&corpus, &q, None, None);
    let counted = alloc::stop();
    let mut last = warm?;

    let mut plain = Floors::new();
    let mut traced = Floors::new();
    let mut spins = Spins::default();
    let budget = Budget::until(if cfg.trace { TRACED_UNTIL.0 } else { 1.0 }, cfg);
    let mut passes = 0;
    while budget.more(passes) {
        let with_spans = cfg.trace && passes % 2 == 1;
        let side = if with_spans { &mut traced } else { &mut plain };
        if with_spans {
            tracer.enter("fused_pass");
        }
        last = suite::pass(
            &corpus,
            &q,
            Some(&mut *side),
            with_spans.then_some(&mut *tracer),
        )?;
        side.end_pass().map_err(std::io::Error::other)?;
        if with_spans {
            tracer.exit();
            tracer.next_pass();
        }
        spins.spin();
        passes += 1;
    }
    let verdict = suite::verify(&q, &last);

    let mut metrics = Metrics::new();
    if cfg.trace {
        let own = Budget::until(TRACED_UNTIL.1, cfg);
        let group = suite::suite_group(&corpus, &q, &own, tracer, &mut metrics)?;
        let which = Foreign {
            capture: true,
            serve: true,
            suite: false,
        };
        foreign_groups(cfg, which, scratch, tracer, &mut metrics)?;
        foreign_fused_capture(cfg, scratch, &mut metrics)?;
        let leaf = Budget::until(TRACED_UNTIL.2, cfg);
        let records: &[TraceRecord] = &q.records[0];
        micro::micro_group(records, &cfg.sizes, cfg.seed, &leaf, tracer, &mut metrics)?;
        bench_metrics(
            &mut metrics,
            &plain,
            &traced,
            &spins,
            group.critical_path_ns,
        );
        eprintln!("staged passes: {}", group.passes);
        return Ok(RunResult {
            verdict,
            metrics,
            health: Vec::new(),
        });
    }
    end_to_end(
        &mut metrics,
        &EndToEndInputs {
            records: corpus.records,
            setup: &setup,
            units: &plain,
            latency_units: suite::latency_units(&q),
            counted,
            store_bytes: corpus.store_bytes,
        },
    );
    Ok(RunResult {
        verdict,
        metrics,
        health: health(&plain, &spins),
    })
}
