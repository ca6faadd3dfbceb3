//! End-to-end live ingest: rotation, mid-ingest queries, reopen,
//! sniffer feed — all against batch-path oracles.

use nfstrace_core::index::{TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{LiveConfig, LiveIngest, SnifferSource};
use nfstrace_store::{StoreConfig, StoreError, StoreIndex};
use nfstrace_workload::{CampusConfig, CampusWorkload, SlicedWorkload};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campus_cfg(days: u64) -> CampusConfig {
    CampusConfig {
        users: 4,
        duration_micros: days * DAY,
        seed: 42,
        ..CampusConfig::default()
    }
}

/// Small chunks + small rotation so a one-day trace exercises many
/// seals.
fn live_cfg(dir: &std::path::Path) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 64 << 10,
        },
        rotate_records: 4_000,
        rotate_micros: 6 * HOUR,
        ..LiveConfig::new(dir)
    }
}

/// Asserts that two views agree on the products the suite consumes.
fn assert_views_agree<A: TraceView, B: TraceView>(a: &A, b: &B, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: len");
    assert_eq!(a.summary(), b.summary(), "{ctx}: summary");
    assert_eq!(a.hourly(), b.hourly(), "{ctx}: hourly");
    assert_eq!(
        a.accesses(10).as_ref(),
        b.accesses(10).as_ref(),
        "{ctx}: accesses"
    );
    assert_eq!(
        a.runs(10, Default::default()).as_ref(),
        b.runs(10, Default::default()).as_ref(),
        "{ctx}: runs"
    );
    assert_eq!(a.names(), b.names(), "{ctx}: names");
}

#[test]
fn live_ingest_equals_batch_and_bounds_memory() {
    let dir = tmpdir("e2e");
    let batch = CampusWorkload::new(campus_cfg(1)).generate_with_threads(1);

    let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
    let mut source = SlicedWorkload::campus(campus_cfg(1), HOUR, 2);
    ingest.run(&mut source).expect("run");
    let peak_hot = ingest.peak_hot_records();
    let summary = ingest.finish().expect("finish");

    assert!(
        summary.segments > 1,
        "rotation produced {} segments",
        summary.segments
    );
    assert_eq!(summary.total_records, batch.len() as u64);
    assert!(
        peak_hot < batch.len() / 2,
        "hot tail peaked at {peak_hot} of {} — rotation must bound it",
        batch.len()
    );

    // The segment directory holds exactly the batch record stream...
    let merged = StoreIndex::open_dir(&dir).expect("open dir");
    let mut back = Vec::new();
    use nfstrace_core::index::RecordStream;
    merged.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(back, batch, "segment records differ from the batch trace");

    // ... and its analysis products equal the in-memory index's.
    let mem = TraceIndex::new(batch);
    assert_views_agree(&merged, &mem, "segment dir vs in-memory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_ingest_views_match_records_so_far() {
    let dir = tmpdir("mid");
    let batch = CampusWorkload::new(campus_cfg(1)).generate_with_threads(1);

    let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
    let mut sliced = SlicedWorkload::campus(campus_cfg(1), 2 * HOUR, 1);
    let mut checked = 0;
    while sliced
        .next_slice_into(&mut ingest)
        .expect("slice into ingest")
    {
        let boundary = sliced.emitted_to();
        if boundary >= 8 * HOUR && checked < 2 {
            checked += 1;
            // Everything ingested so far is exactly the batch records
            // before the slice boundary.
            let so_far: Vec<TraceRecord> = batch
                .iter()
                .filter(|r| r.micros < boundary)
                .cloned()
                .collect();
            let view = ingest.view();
            assert_eq!(view.len(), so_far.len(), "boundary {boundary}");
            let oracle = TraceIndex::new(so_far);
            assert_views_agree(&view, &oracle, "mid-ingest view");
            // Windowing a live view mid-ingest works too.
            let vw = view.time_window(2 * HOUR, 6 * HOUR);
            let ow = oracle.time_window(2 * HOUR, 6 * HOUR);
            assert_views_agree(&vw, &ow, "mid-ingest window");
        }
    }
    assert_eq!(checked, 2, "the mid-ingest checkpoints ran");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

/// Inverted, empty and past-the-end windows are empty views — on every
/// view type, and on a window of a window — never a panic.
fn assert_degenerate_windows_empty<V: TraceView>(view: &V, ctx: &str) {
    assert!(view.len() > 0, "{ctx}: the parent view holds records");
    let past = view.summary().last_micros + 1;
    let inner = view.time_window(2 * HOUR, 6 * HOUR);
    for (start, end) in [
        (10, 5),
        (u64::MAX, 0),
        (3 * HOUR, 3 * HOUR),
        (past, past + DAY),
    ] {
        for (parent, v) in [("view", view), ("window", &inner)] {
            let w = v.time_window(start, end);
            let ctx = format!("{ctx} {parent} [{start}, {end})");
            assert_eq!(w.len(), 0, "{ctx}: len");
            assert!(w.is_empty(), "{ctx}: is_empty");
            assert_eq!(w.summary().total_ops, 0, "{ctx}: summary");
            assert!(w.accesses(0).is_empty(), "{ctx}: accesses");
        }
    }
}

#[test]
fn degenerate_windows_are_empty_on_every_view_type() {
    let dir = tmpdir("degenerate");
    let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
    let mut sliced = SlicedWorkload::campus(campus_cfg(1), 2 * HOUR, 1);
    while sliced.emitted_to() < 14 * HOUR && sliced.next_slice_into(&mut ingest).expect("slice") {}
    assert!(ingest.sealed_segments() > 0 && ingest.hot_len() > 0);

    let live = ingest.view();
    assert_degenerate_windows_empty(&live, "live view");
    let sealed = StoreIndex::open_dir(&dir).expect("open sealed segments");
    assert_degenerate_windows_empty(&sealed, "StoreIndex");
    let mut records = Vec::new();
    use nfstrace_core::index::RecordStream;
    live.for_each_record(&mut |r| records.push(r.clone()));
    assert_degenerate_windows_empty(&TraceIndex::new(records), "TraceIndex");
    std::fs::remove_dir_all(&dir).ok();
}

/// A view taken before the first record is an empty index over no
/// segment: it replays and windows to nothing, without a panic.
#[test]
fn a_view_before_the_first_record_is_empty() {
    let dir = tmpdir("empty-view");
    let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
    let view = ingest.view();
    assert!(view.readers().is_empty());
    assert_eq!(view.len(), 0);
    use nfstrace_core::index::RecordStream;
    let mut replayed = 0;
    view.for_each_record(&mut |_| replayed += 1);
    assert_eq!(replayed, 0);
    for (start, end) in [(0, u64::MAX), (HOUR, 2 * HOUR), (10, 5)] {
        let window = view.time_window(start, end);
        assert_eq!(window.len(), 0, "window [{start}, {end})");
        assert!(window.accesses(0).is_empty(), "window [{start}, {end})");
    }
    assert_eq!(view.summary().total_ops, 0);
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_appends_where_the_last_run_stopped() {
    let dir = tmpdir("reopen");
    let batch = CampusWorkload::new(campus_cfg(1)).generate_with_threads(1);

    // First run: half the day, then stop (sealing the tail).
    let mut first = LiveIngest::create(live_cfg(&dir)).expect("create");
    let mut sliced = SlicedWorkload::campus(campus_cfg(1), 2 * HOUR, 1);
    while sliced.emitted_to() < 12 * HOUR && sliced.next_slice_into(&mut first).expect("slice") {}
    let stopped_at = sliced.emitted_to();
    let first_summary = first.finish().expect("finish first run");
    assert!(first_summary.segments >= 1);

    // Second run: reopen the directory, keep ingesting the same stream.
    let mut second = LiveIngest::open(live_cfg(&dir)).expect("reopen");
    assert_eq!(second.total_records(), first_summary.total_records);
    // A reopened ingest's view already covers the sealed records.
    let so_far: Vec<TraceRecord> = batch
        .iter()
        .filter(|r| r.micros < stopped_at)
        .cloned()
        .collect();
    assert_views_agree(&second.view(), &TraceIndex::new(so_far), "reopened view");
    while sliced.next_slice_into(&mut second).expect("slice") {}
    second.finish().expect("finish second run");

    let merged = StoreIndex::open_dir(&dir).expect("open dir");
    use nfstrace_core::index::RecordStream;
    let mut back = Vec::new();
    merged.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(back, batch, "stop+reopen must reproduce the batch trace");
    std::fs::remove_dir_all(&dir).ok();
}

/// Reopening over segments of many chunks each — indexed by the
/// store's chunk-parallel pass — and ingesting on writes the segments
/// one uninterrupted ingest writes and ends at the same products; the
/// order check resumes at the last capture time the footers hold.
#[test]
fn reopen_over_many_chunk_segments_continues_an_uninterrupted_ingest() {
    let batch = CampusWorkload::new(campus_cfg(1)).generate_with_threads(1);
    // Rotation by count only, so a stop right after a seal leaves the
    // segment boundaries an uninterrupted ingest draws.
    let rotate_records = 500;
    let cfg = |dir: &std::path::Path| LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 4 << 10,
        },
        rotate_records,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(dir)
    };
    let stop = 4 * rotate_records as usize;
    assert!(batch.len() > stop + rotate_records as usize);

    let whole_dir = tmpdir("many-chunks-whole");
    let mut whole = LiveIngest::create(cfg(&whole_dir)).expect("create");
    for r in &batch {
        whole.ingest(r).expect("ingest");
    }
    let want = whole.view().base().clone();
    whole.finish().expect("finish");

    let dir = tmpdir("many-chunks-reopened");
    let mut first = LiveIngest::create(cfg(&dir)).expect("create");
    for r in &batch[..stop] {
        first.ingest(r).expect("ingest");
    }
    first.finish().expect("finish first run");
    let sealed = StoreIndex::open_dir(&dir).expect("open dir");
    assert_eq!(sealed.readers().len(), 4);
    assert!(sealed.readers().iter().all(|r| r.chunk_count() >= 4));

    let mut second = LiveIngest::open(cfg(&dir)).expect("reopen");
    assert_eq!(second.total_records(), stop as u64);
    let last = batch[stop - 1].clone();
    let earlier = TraceRecord {
        micros: last.micros - 1,
        ..last
    };
    assert!(matches!(
        second.ingest(&earlier),
        Err(nfstrace_store::StoreError::OutOfOrder { .. })
    ));
    for r in &batch[stop..] {
        second.ingest(r).expect("ingest");
    }
    let got = second.view().base().clone();
    second.finish().expect("finish second run");

    assert_eq!(got.len, want.len);
    assert_eq!(got.summary, want.summary);
    assert_eq!(got.hourly, want.hourly);
    assert_eq!(got.raw, want.raw);
    assert_eq!(read_dir_sorted(&dir), read_dir_sorted(&whole_dir));
    for d in [&dir, &whole_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn segment_bytes_are_identical_for_any_slicing_and_threads() {
    let reference_dir = tmpdir("det-ref");
    let mut ingest = LiveIngest::create(live_cfg(&reference_dir)).expect("create");
    let mut src = SlicedWorkload::campus(campus_cfg(1), HOUR, 1);
    ingest.run(&mut src).expect("run");
    ingest.finish().expect("finish");
    let reference: Vec<(String, Vec<u8>)> = read_dir_sorted(&reference_dir);
    assert!(reference.len() > 1);

    for (slice, threads, tag) in [(3 * HOUR, 2, "a"), (5 * HOUR + 7, 4, "b")] {
        let dir = tmpdir(&format!("det-{tag}"));
        let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
        let mut src = SlicedWorkload::campus(campus_cfg(1), slice, threads);
        ingest.run(&mut src).expect("run");
        ingest.finish().expect("finish");
        assert_eq!(
            read_dir_sorted(&dir),
            reference,
            "slice={slice} threads={threads}: segment bytes must not depend on batching"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&reference_dir).ok();
}

fn read_dir_sorted(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read file"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn sniffer_source_streams_a_capture_into_segments() {
    use nfstrace_client::{ClientConfig, ClientMachine};
    use nfstrace_fssim::NfsServer;
    use nfstrace_sniffer::{Sniffer, WireEncoder};

    // A session's worth of real packets.
    let mut server = NfsServer::new(0x0a000002);
    let root = server.root_fh();
    let mut client = ClientMachine::new(ClientConfig {
        nfsiods: 2,
        ..ClientConfig::default()
    });
    let (fh, t) = client.create(&mut server, 0, &root, "inbox");
    let fh = fh.unwrap();
    let t = client.write(&mut server, t, &fh, 0, 600_000);
    let t = client.read_file(&mut server, t + 40_000_000, &fh);
    client.remove(&mut server, t, &root, "inbox");
    let events = client.take_events();
    let mut enc = WireEncoder::tcp_jumbo();
    let packets: Vec<_> = events.iter().flat_map(|e| enc.encode_event(e)).collect();

    // Oracle: the batch sniffer.
    let mut oracle = Sniffer::new();
    for p in &packets {
        oracle.observe(p);
    }
    let (expected, _) = oracle.finish();

    let dir = tmpdir("sniff");
    let mut ingest = LiveIngest::create(LiveConfig {
        rotate_records: 50,
        ..LiveConfig::new(&dir)
    })
    .expect("create");
    let mut source = SnifferSource::new(packets.into_iter(), 16);
    ingest.run(&mut source).expect("run");
    let summary = ingest.finish().expect("finish");
    assert!(summary.segments >= 1);
    assert!(source.stats().expect("stats once exhausted").calls > 0);

    let merged = StoreIndex::open_dir(&dir).expect("open dir");
    use nfstrace_core::index::RecordStream;
    let mut back = Vec::new();
    merged.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(
        back, expected,
        "live capture path diverged from batch sniffing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crashed_hot_segment_never_poisons_the_directory() {
    let dir = tmpdir("crash");
    let batch = CampusWorkload::new(campus_cfg(1)).generate_with_threads(1);

    // Ingest a few slices, then "crash": drop the ingest mid-hot-segment
    // without finish(), leaving an unsealed temp file behind.
    let sealed_records;
    {
        let mut ingest = LiveIngest::create(live_cfg(&dir)).expect("create");
        let mut sliced = SlicedWorkload::campus(campus_cfg(1), 2 * HOUR, 1);
        while sliced.emitted_to() < 10 * HOUR && sliced.next_slice_into(&mut ingest).expect("slice")
        {
        }
        assert!(ingest.hot_len() > 0, "the crash happens mid-hot-segment");
        assert!(ingest.sealed_segments() > 0);
        sealed_records = ingest.total_records() as usize - ingest.hot_len();
        // drop without finish = crash
    }
    let stale: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".tmp")
        })
        .collect();
    assert!(!stale.is_empty(), "the crash left an unsealed temp segment");

    // The sealed segments stay fully analyzable despite the leftover.
    let merged = StoreIndex::open_dir(&dir).expect("sealed segments stay readable");
    assert_eq!(TraceView::len(&merged), sealed_records);

    // Reopen resumes from the last seal and sweeps the stale temp.
    let reopened = LiveIngest::open(live_cfg(&dir)).expect("reopen after crash");
    assert_eq!(reopened.total_records() as usize, sealed_records);
    assert!(
        std::fs::read_dir(&dir).expect("read dir").all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")),
        "reopen sweeps stale temp segments"
    );
    drop(reopened);

    // Sanity: everything sealed is a prefix of the batch trace.
    use nfstrace_core::index::RecordStream;
    let mut back = Vec::new();
    merged.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(&back[..], &batch[..back.len()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn create_refuses_a_dirty_directory_and_ingest_rejects_time_travel() {
    let dir = tmpdir("guard");
    let mut ingest = LiveIngest::create(LiveConfig::new(&dir)).expect("create");
    let r1 = TraceRecord::new(
        1000,
        nfstrace_core::record::Op::Read,
        nfstrace_core::record::FileId(1),
    );
    ingest.ingest(&r1).expect("in order");
    let back = TraceRecord::new(
        999,
        nfstrace_core::record::Op::Read,
        nfstrace_core::record::FileId(1),
    );
    assert!(matches!(
        ingest.ingest(&back),
        Err(nfstrace_store::StoreError::OutOfOrder { .. })
    ));
    ingest.finish().expect("finish");
    assert!(
        LiveIngest::create(LiveConfig::new(&dir)).is_err(),
        "create must refuse a directory that already has segments"
    );
    LiveIngest::open(LiveConfig::new(&dir)).expect("open resumes instead");
    std::fs::remove_dir_all(&dir).ok();
}

/// Catalog names are untrusted input: a validly sealed segment renamed
/// to the last ordinal used to open fine and overflow `next_ordinal`
/// at the first `ingest` (a panic under overflow checks; in release a
/// wrap to `seg-000000`). The directory is refused up front instead.
#[test]
fn open_refuses_a_segment_named_for_the_last_ordinal() {
    let dir = tmpdir("last-ordinal");
    let mut ingest = LiveIngest::create(LiveConfig::new(&dir)).expect("create");
    let record = TraceRecord::new(
        1000,
        nfstrace_core::record::Op::Read,
        nfstrace_core::record::FileId(1),
    );
    ingest.ingest(&record).expect("ingest");
    assert_eq!(ingest.finish().expect("finish").segments, 1);
    let renamed = "seg-18446744073709551615.nfseg";
    std::fs::rename(dir.join("seg-000000.nfseg"), dir.join(renamed)).expect("rename");
    let Err(err) = LiveIngest::open(LiveConfig::new(&dir)) else {
        panic!("a directory holding {renamed} must not open");
    };
    assert!(
        matches!(err, nfstrace_store::StoreError::Format(_)),
        "{err:?}"
    );
    assert!(err.to_string().contains(renamed), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A view reads its hot segment through the store's planner, as it
/// reads sealed ones: a window that misses the hot segment prunes it
/// whole, and a window inside it decodes only the hot chunks it
/// overlaps — counted in `store.chunks_decoded` like any other.
#[test]
fn the_hot_segment_goes_through_the_planner() {
    let dir = tmpdir("hot-planner");
    let registry = nfstrace_telemetry::Registry::new();
    let config = LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 1 << 10,
        },
        rotate_records: 2_000,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(&dir)
    };
    let mut ingest = LiveIngest::create(config.with_registry(&registry)).expect("create");
    let records: Vec<TraceRecord> = (0..3_500u64)
        .map(|i| {
            TraceRecord::new(i * 1_000, nfstrace_core::record::Op::Read, FileId(i % 5))
                .with_range(i * 8192, 8192)
        })
        .collect();
    for r in &records {
        ingest.ingest(r).expect("ingest");
    }
    let view = ingest.view();
    // One sealed segment, then the hot one.
    let [sealed, hot] = view.readers() else {
        panic!("{} segments in the view", view.readers().len());
    };
    let metas = hot.chunks();
    assert!(metas.len() > 3, "flushed hot chunks and a pending one");
    let oracle = TraceIndex::new(records.clone());

    let decoded = registry.counter("store.chunks_decoded");
    let pruned = registry.counter("store.segments_pruned");
    let last = metas.len() - 1;
    let windows = [
        // Ends before the first hot record: the hot segment is pruned.
        (0, metas[0].min_micros, sealed.chunk_count(), 1),
        // Two flushed hot chunks, then the pending one alone.
        (metas[1].min_micros, metas[2].max_micros + 1, 2, 1),
        (metas[last].min_micros, u64::MAX, 1, 1),
    ];
    for (start, end, decodes, prunes) in windows {
        let (d0, p0) = (decoded.value(), pruned.value());
        let window = view.time_window(start, end);
        let ctx = format!("window [{start}, {end})");
        assert_eq!(
            decoded.value() - d0,
            decodes as u64,
            "{ctx}: chunks decoded"
        );
        assert_eq!(pruned.value() - p0, prunes, "{ctx}: segments pruned");
        assert_views_agree(&window, &oracle.time_window(start, end), &ctx);
    }
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}

/// An ingest that took no record seals no segment. `open_dir` refuses
/// its directory with a typed error, as it refuses any directory
/// without segments, while `LiveIngest::open` resumes it.
#[test]
fn an_empty_ingest_seals_nothing_that_open_dir_would_index() {
    let dir = tmpdir("empty");
    let summary = LiveIngest::create(live_cfg(&dir))
        .expect("create")
        .finish()
        .expect("finish");
    assert_eq!(summary.segments, 0);
    assert_eq!(summary.total_records, 0);
    match StoreIndex::open_dir(&dir) {
        Err(StoreError::Format(msg)) => assert!(msg.contains("no trace segments"), "{msg}"),
        other => panic!(
            "expected StoreError::Format, got {:?}",
            other.map(|i| i.len())
        ),
    }

    let mut resumed = LiveIngest::open(live_cfg(&dir)).expect("reopen the empty directory");
    assert_eq!(resumed.total_records(), 0);
    let mut r = TraceRecord::new(1_000, Op::Getattr, FileId(2));
    r.reply_micros = 1_100;
    resumed.ingest(&r).expect("ingest after reopen");
    assert_eq!(resumed.finish().expect("finish").segments, 1);
    assert_eq!(StoreIndex::open_dir(&dir).expect("one segment").len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
