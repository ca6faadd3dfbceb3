//! `suite-store`: the researcher's path. Both 8-day traces are
//! generated straight into chunked stores (`repro --store`'s front
//! half — what `setup_s` prices here); a pass opens both indices,
//! renders the full suite, and runs point and window queries.

use crate::capture::store_err;
use crate::corpus::{Labels, Sizes, UnitClock};
use crate::floors::Floors;
use crate::spans::Tracer;
use crate::spec::Metrics;
use crate::stages::StageSet;
use crate::timing::Stamp;
use crate::{Budget, Verdict};
use nfstrace_bench::scenarios::{self, campus_config, eecs_config};
use nfstrace_bench::suite::suite_text;
use nfstrace_bench::tables;
use nfstrace_core::index::{ReplayRequest, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, TraceRecord};
use nfstrace_core::sink::RecordSink;
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_store::codec::read_varint;
use nfstrace_store::format::FLAG_COMPRESSED;
use nfstrace_store::{compress, stream_records, StoreConfig, StoreIndex, StoreWriter};
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusWorkload, EecsWorkload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Generator scale of both suite traces: the smallest population the
/// generators make, ~290k records over eight days.
const SUITE_SCALE: f64 = 0.1;
/// Chunk size of the stores. A trace this small fits two default 4 MiB
/// chunks, which would leave filters and window pruning nothing to
/// choose between; 256 KiB gives a few dozen (as `benches/pipeline.rs`
/// does for its day-long traces).
const CHUNK_BYTES: usize = 256 << 10;
/// Length of a window query.
const WINDOW_MICROS: u64 = 4 * HOUR;
/// Records stored per set-up unit.
const SETUP_UNIT_RECORDS: u64 = 8_192;

fn store_config() -> StoreConfig {
    StoreConfig {
        target_chunk_bytes: CHUNK_BYTES,
        ..StoreConfig::default()
    }
}

/// Relabels each generated record on its way into the store, and
/// closes a set-up unit every [`SETUP_UNIT_RECORDS`] records (the first
/// unit of a system holds its whole simulation: `generate_into` pushes
/// nothing before every user is simulated).
struct Relabelled<'a, 'f> {
    labels: Labels,
    writer: &'a mut StoreWriter,
    clock: &'a mut UnitClock<'f>,
    stored: u64,
}

impl RecordSink for Relabelled<'_, '_> {
    type Err = nfstrace_store::StoreError;

    fn push_record(&mut self, mut record: TraceRecord) -> Result<(), Self::Err> {
        self.labels.apply(&mut record);
        self.writer.push(&record)?;
        self.stored += 1;
        if self.stored.is_multiple_of(SETUP_UNIT_RECORDS) {
            self.clock.lap();
        }
        Ok(())
    }
}

#[derive(Debug)]
pub struct SuiteCorpus {
    /// `[campus, eecs]` store files.
    pub paths: [PathBuf; 2],
    pub records: u64,
    pub store_bytes: u64,
    days: u64,
    seed: u64,
}

/// One set-up repetition: one `generate_into` a `StoreWriter` per
/// system (the canonical traces, relabelled by `seed` on the way in),
/// as one pass of `floors`.
pub fn set_up(
    sizes: &Sizes,
    seed: u64,
    dir: &Path,
    floors: &mut Floors,
) -> std::io::Result<SuiteCorpus> {
    std::fs::create_dir_all(dir)?;
    let threads = nfstrace_core::parallel::threads();
    let paths = [dir.join("campus.nfstore"), dir.join("eecs.nfstore")];
    let (mut records, mut store_bytes) = (0, 0);
    let mut clock = UnitClock::start(floors);
    for (system, path) in paths.iter().enumerate() {
        let mut w = StoreWriter::create(path, store_config()).map_err(store_err)?;
        let mut sink = Relabelled {
            labels: Labels::from_seed(seed),
            writer: &mut w,
            clock: &mut clock,
            stored: 0,
        };
        if system == 0 {
            CampusWorkload::new(campus_config(
                sizes.suite_days,
                SUITE_SCALE,
                scenarios::CAMPUS_SEED,
            ))
            .generate_into(threads, &mut sink)
        } else {
            EecsWorkload::new(eecs_config(
                sizes.suite_days,
                SUITE_SCALE,
                scenarios::EECS_SEED,
            ))
            .generate_into(threads, &mut sink)
        }
        .map_err(store_err)?;
        let summary = w.finish().map_err(store_err)?;
        clock.lap();
        records += summary.total_records;
        store_bytes += summary.file_bytes;
    }
    floors.end_pass().map_err(std::io::Error::other)?;
    Ok(SuiteCorpus {
        paths,
        records,
        store_bytes,
        days: sizes.suite_days,
        seed,
    })
}

/// The same traces in memory (the verifier's oracle), and the query
/// targets chosen from them.
#[derive(Debug)]
pub struct Queries {
    /// `[campus, eecs]` records, generated independently of the stores.
    pub records: [Vec<TraceRecord>; 2],
    /// `(system, file)` point queries.
    pub files: Vec<(usize, FileId)>,
    /// `(system, start)` four-hour windows.
    pub windows: Vec<(usize, u64)>,
}

pub fn queries(corpus: &SuiteCorpus, sizes: &Sizes) -> Queries {
    let mut records = [
        scenarios::campus(corpus.days, SUITE_SCALE, scenarios::CAMPUS_SEED),
        scenarios::eecs(corpus.days, SUITE_SCALE, scenarios::EECS_SEED),
    ];
    let labels = Labels::from_seed(corpus.seed);
    records.iter_mut().flatten().for_each(|r| labels.apply(r));
    // Stratified, so that every seed asks the same mix of questions:
    // files ranked by how many records name them, the middle one of
    // each stratum of ranks; one window at the start of each equal
    // stretch of the trace (an hour's shift from night into day moves
    // the records a window holds, and allocations per record by 1 %).
    let ranked: [Vec<FileId>; 2] = [0, 1].map(|s| {
        let mut counts: BTreeMap<FileId, usize> = BTreeMap::new();
        for r in &records[s] {
            *counts.entry(r.fh).or_default() += 1;
        }
        let mut ranked: Vec<(usize, FileId)> = counts.into_iter().map(|(id, n)| (n, id)).collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, id)| id).collect()
    });
    let per_system = sizes.file_queries.div_ceil(2);
    let files = (0..sizes.file_queries)
        .map(|i| {
            let (system, stratum) = (i % 2, i / 2);
            let n = ranked[system].len();
            let (lo, hi) = (stratum * n / per_system, (stratum + 1) * n / per_system);
            (system, ranked[system][(lo + hi) / 2])
        })
        .collect();
    let stretch = (corpus.days * 24 - WINDOW_MICROS / HOUR) / sizes.window_queries as u64;
    let windows = (0..sizes.window_queries)
        .map(|i| (i % 2, i as u64 * stretch * HOUR))
        .collect();
    Queries {
        records,
        files,
        windows,
    }
}

/// What [`suite_by_steps`] rendered, and the one-pass contracts it saw.
pub struct Rendered {
    pub text: String,
    /// Sort and decode passes, summed over the four views (2 and 4 when
    /// every view sorted and replayed at most once).
    pub sort_passes: u64,
    pub decode_passes: u64,
}

/// `nfstrace_bench::suite::suite_text`, step by step: the two week
/// windows, the four fused replays, the twelve renders — `step(name)`
/// is called as each completes, so that a caller can time them apart (as
/// one unit `suite_text` runs for half a second, too long for its
/// minimum to repeat). The verifier holds the text to `suite_text`'s own.
pub fn suite_by_steps<V: TraceView>(
    campus8: &V,
    eecs8: &V,
    step: &mut dyn FnMut(&'static str),
) -> Rendered {
    let week = scenarios::WEEK_DAYS * DAY;
    let campus_week = campus8.time_window(0, week);
    step("core.time_window");
    let eecs_week = eecs8.time_window(0, week);
    step("core.time_window");

    campus8.prepare(&[ReplayRequest::WeekdayLifetime]);
    step("core.fused_replay");
    eecs8.prepare(&[ReplayRequest::WeekdayLifetime]);
    step("core.fused_replay");
    campus_week.prepare(&[
        ReplayRequest::Names,
        ReplayRequest::Lifetime(tables::table1_lifetime_config(&campus_week)),
        ReplayRequest::Coverage(tables::COVERAGE_BUCKET_MICROS),
    ]);
    step("core.fused_replay");
    eecs_week.prepare(&[
        ReplayRequest::Names,
        ReplayRequest::Lifetime(tables::table1_lifetime_config(&eecs_week)),
    ]);
    step("core.fused_replay");

    let (cw, ew) = (&campus_week, &eecs_week);
    let renders: [&dyn Fn() -> String; 12] = [
        &|| tables::table1(cw, ew).text,
        &|| tables::table2(cw, ew).text,
        &|| tables::table3(cw, ew).text,
        &|| tables::table4(campus8, eecs8).text,
        &|| tables::table5(cw, ew).text,
        &|| tables::fig1(cw, ew).text,
        &|| tables::fig2(cw, ew).text,
        &|| tables::fig3(campus8, eecs8).text,
        &|| tables::fig4(cw, ew).text,
        &|| tables::fig5(cw, ew).text,
        &|| tables::names_report(cw),
        &|| tables::hierarchy_coverage(cw),
    ];
    let mut text = String::new();
    for render in renders {
        text.push_str(&render());
        text.push('\n');
        step("core.suite_render");
    }
    let views = [campus8, eecs8, cw, ew];
    Rendered {
        text,
        sort_passes: views.iter().map(|v| v.sort_passes()).sum(),
        decode_passes: views.iter().map(|v| v.decode_passes()).sum(),
    }
}

/// Units [`suite_by_steps`] makes.
const SUITE_STEPS: usize = 2 + 4 + 12;

/// What one pass computed: enough for the verifier.
#[derive(Debug)]
pub struct PassResult {
    pub text: String,
    pub file_results: Vec<Vec<TraceRecord>>,
    /// `(records, total ops)` of each window.
    pub window_results: Vec<(usize, u64)>,
}

/// Units of one pass, in order: two index opens, the suite's eighteen
/// steps, the file queries, the window scans. These are the queries'.
pub fn latency_units(q: &Queries) -> std::ops::Range<usize> {
    2 + SUITE_STEPS..2 + SUITE_STEPS + q.files.len()
}

/// One pass over the stores.
pub fn pass(
    corpus: &SuiteCorpus,
    q: &Queries,
    mut floors: Option<&mut Floors>,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<PassResult> {
    let mut unit = 0;
    let mut last = Stamp::now();
    let mut lap = |name: &'static str, tracer: &mut Option<&mut Tracer>| {
        let now = Stamp::now();
        if let Some(f) = floors.as_deref_mut() {
            let (wall, cpu) = now.since(&last);
            f.observe(unit, wall, cpu);
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.record(name, last.wall(), now.wall());
        }
        unit += 1;
        last = Stamp::now();
    };

    let campus = StoreIndex::open(&corpus.paths[0]).map_err(store_err)?;
    lap("store.index_open", &mut tracer);
    let eecs = StoreIndex::open(&corpus.paths[1]).map_err(store_err)?;
    lap("store.index_open", &mut tracer);
    let text = suite_by_steps(&campus, &eecs, &mut |name| lap(name, &mut tracer)).text;
    let indices = [&campus, &eecs];
    let mut file_results = Vec::with_capacity(q.files.len());
    for &(system, fh) in &q.files {
        file_results.push(indices[system].file_records(fh).map_err(store_err)?);
        lap("store.file_query", &mut tracer);
    }
    let mut window_results = Vec::with_capacity(q.windows.len());
    for &(system, start) in &q.windows {
        let w = indices[system].time_window(start, start + WINDOW_MICROS);
        window_results.push((TraceView::len(&w), w.summary().total_ops));
        lap("store.window_query", &mut tracer);
    }
    Ok(PassResult {
        text,
        file_results,
        window_results,
    })
}

/// The untimed check after the last pass: the suite over the stores is
/// the suite over in-memory indices, and every query is its
/// brute-force scan.
pub fn verify(q: &Queries, last: &PassResult) -> Verdict {
    let mut verdict = Verdict::new((1 + q.files.len() + q.windows.len()) as u64);
    let memory = [
        TraceIndex::new(q.records[0].clone()),
        TraceIndex::new(q.records[1].clone()),
    ];
    let text = suite_text(&memory[0], &memory[1]);
    verdict.fail(
        u64::from(text != last.text),
        "suite over the stores differs from the suite in memory",
    );
    let wrong_files = q
        .files
        .iter()
        .zip(&last.file_results)
        .filter(|(&(system, fh), got)| {
            let scan: Vec<&TraceRecord> = q.records[system].iter().filter(|r| r.fh == fh).collect();
            scan.len() != got.len() || scan.iter().zip(got.iter()).any(|(a, b)| *a != b)
        })
        .count()
        + q.files.len().abs_diff(last.file_results.len());
    verdict.fail(wrong_files as u64, "file queries differ from a scan");
    let wrong_windows = q
        .windows
        .iter()
        .zip(&last.window_results)
        .filter(|(&(system, start), got)| {
            let w = memory[system].time_window(start, start + WINDOW_MICROS);
            (w.len(), w.summary().total_ops) != **got
        })
        .count()
        + q.windows.len().abs_diff(last.window_results.len());
    verdict.fail(wrong_windows as u64, "window scans differ from a scan");
    verdict
}

/// What the suite group hands back besides the metrics it set.
pub struct SuiteGroup {
    pub critical_path_ns: f64,
    pub passes: usize,
}

/// Reads chunk `meta`'s stored bytes.
fn chunk_bytes(path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut f = std::fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0u8; len as usize];
    f.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Replays the read side stage by stage until `budget` runs out and
/// sets every store-read, query and core per-layer metric.
pub fn suite_group(
    corpus: &SuiteCorpus,
    q: &Queries,
    budget: &Budget,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<SuiteGroup> {
    let total = corpus.records as f64;
    let mut st = StageSet::new();
    let mut query_chunks = (0u64, 0u64, 0u64); // decoded, false positives, decoded by windows
    let mut window_chunks_possible = 0u64;
    let (mut sort_passes, mut decode_passes) = (0u64, 0u64);
    let mut decompressed_bytes = 0u64;
    let mut passes = 0;
    while budget.more(passes) {
        tracer.enter("staged_pass");
        let registry = Registry::new();

        // store: footer + per-chunk partial indices, merged.
        let mut indices = Vec::with_capacity(2);
        for (unit, path) in corpus.paths.iter().enumerate() {
            indices.push(
                st.once(tracer, "store.index_open", unit, || {
                    StoreIndex::open_with_registry(path, &registry)
                })
                .map_err(store_err)?,
            );
        }

        // store: every chunk read, checked, decompressed and decoded.
        let chunks: Vec<(usize, usize)> = (0..2)
            .flat_map(|s| (0..indices[s].reader().chunk_count()).map(move |c| (s, c)))
            .collect();
        st.over(tracer, "store.decode", chunks.len(), 1, |i| {
            let (s, c) = chunks[i];
            black_box(
                indices[s]
                    .reader()
                    .read_chunk(c)
                    .expect("sealed chunks decode")
                    .len(),
            );
        });

        // store: the LZ streams alone.
        decompressed_bytes = 0;
        tracer.enter("store.decompress");
        for (unit, &(s, c)) in chunks.iter().enumerate() {
            let meta = &indices[s].reader().chunks()[c];
            let stored = chunk_bytes(&corpus.paths[s], meta.offset, meta.len)?;
            let t = Instant::now();
            if stored[0] & FLAG_COMPRESSED != 0 {
                let mut pos = 1;
                let raw_len = read_varint(&stored, &mut pos).map_err(store_err)? as usize;
                decompressed_bytes += compress::decompress(&stored[pos..], raw_len)
                    .map_err(store_err)?
                    .len() as u64;
            }
            st.floors("store.decompress")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
        }
        tracer.exit();

        // store: the in-order record stream the replays ride.
        for (unit, index) in indices.iter().enumerate() {
            let mut n = 0u64;
            st.once(tracer, "store.stream", unit, || {
                stream_records(index.readers(), 0, u64::MAX, &mut |_| n += 1)
            });
            black_box(n);
        }

        // queries, with the planner's counters read around them.
        let decoded = registry.counter("store.chunks_decoded");
        let false_positives = registry.counter("store.filter_false_positives");
        let (d0, f0) = (decoded.value(), false_positives.value());
        tracer.enter("store.file_query");
        for (unit, &(system, fh)) in q.files.iter().enumerate() {
            let t = Instant::now();
            black_box(indices[system].file_records(fh).map_err(store_err)?.len());
            st.floors("store.file_query")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
        }
        tracer.exit();
        let d1 = decoded.value();
        tracer.enter("store.window_query");
        window_chunks_possible = 0;
        for (unit, &(system, start)) in q.windows.iter().enumerate() {
            let t = Instant::now();
            black_box(TraceView::len(
                &indices[system].time_window(start, start + WINDOW_MICROS),
            ));
            st.floors("store.window_query")
                .observe(unit, t.elapsed().as_nanos() as u64, 0);
            window_chunks_possible += indices[system].reader().chunk_count() as u64;
        }
        tracer.exit();
        query_chunks = (d1 - d0, false_positives.value() - f0, decoded.value() - d1);

        // core: the in-memory index, built from the same records.
        for (unit, records) in q.records.iter().enumerate() {
            let owned = records.clone();
            black_box(
                st.once(tracer, "core.index_build", unit, || TraceIndex::new(owned))
                    .len(),
            );
        }

        // core: the suite, step by step.
        let mut next_unit: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut last = Instant::now();
        let rendered = suite_by_steps(&indices[0], &indices[1], &mut |name| {
            let now = Instant::now();
            let unit = next_unit.entry(name).or_default();
            st.floors(name)
                .observe(*unit, now.duration_since(last).as_nanos() as u64, 0);
            *unit += 1;
            tracer.record(name, last, now);
            last = Instant::now();
        });
        black_box(rendered.text.len());
        sort_passes = rendered.sort_passes;
        decode_passes = rendered.decode_passes;

        tracer.exit();
        tracer.next_pass();
        st.end_pass()?;
        passes += 1;
    }

    m.set(
        "store.index_open_ns_per_record",
        st.sum("store.index_open") / total,
    );
    m.set("store.decode_ns_per_record", st.sum("store.decode") / total);
    m.set(
        "store.decompress_mib_per_s",
        decompressed_bytes as f64 / (1u64 << 20) as f64 / (st.sum("store.decompress") / 1e9),
    );
    m.set("store.stream_ns_per_record", st.sum("store.stream") / total);
    let f = st.get("store.file_query");
    m.set(
        "store.file_query_p99_us",
        f.quantile_wall(0..f.units(), 0.99) / 1e3,
    );
    let w = st.get("store.window_query");
    m.set(
        "store.window_query_p50_us",
        w.quantile_wall(0..w.units(), 0.5) / 1e3,
    );
    m.set(
        "store.chunks_decoded_per_query",
        query_chunks.0 as f64 / q.files.len().max(1) as f64,
    );
    m.set(
        "store.filter_false_positive_share",
        query_chunks.1 as f64 / query_chunks.0.max(1) as f64,
    );
    m.set(
        "store.window_pruned_share",
        1.0 - query_chunks.2 as f64 / window_chunks_possible.max(1) as f64,
    );
    // `core.index_build_ns_per_record` is the capture group's (the
    // running partial); the full in-memory build is reported with the
    // rest of the suite's critical path below.
    m.set(
        "core.fused_replay_ns_per_record",
        st.sum("core.fused_replay") / total,
    );
    m.set(
        "core.suite_render_ns_per_record",
        st.sum("core.suite_render") / total,
    );
    m.set("core.sort_passes", sort_passes as f64);
    m.set("core.decode_passes", decode_passes as f64);

    Ok(SuiteGroup {
        critical_path_ns: st.sum("store.index_open")
            + st.sum("core.time_window")
            + st.sum("core.fused_replay")
            + st.sum("core.suite_render")
            + st.sum("store.file_query")
            + st.sum("store.window_query"),
        passes,
    })
}
