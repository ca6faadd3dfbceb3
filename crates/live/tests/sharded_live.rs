//! End-to-end sharded ingest: shard layout, sequence sidecars,
//! manifest guards, reopen — against batch-path oracles.

use nfstrace_core::index::{RecordStream, TraceIndex, TraceView};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_core::time::{DAY, HOUR};
use nfstrace_live::{shard_for_client, LiveConfig, LiveIngest, ShardedLiveIngest, SHARD_MANIFEST};
use nfstrace_store::segments::shard_dir_name;
use nfstrace_store::{seqfile, StoreConfig};
use nfstrace_workload::{CampusConfig, CampusWorkload, SlicedWorkload};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nfstrace-sharded-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn campus_cfg() -> CampusConfig {
    CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    }
}

fn sharded_cfg(dir: &std::path::Path) -> LiveConfig {
    LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 64 << 10,
        },
        rotate_records: 4_000,
        rotate_micros: 6 * HOUR,
        ..LiveConfig::new(dir)
    }
}

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

/// The headline invariant, across shard counts: a sharded daemon over
/// the day-long campus workload answers the suite identically to the
/// in-memory index over the batch trace, and its merged replay is the
/// batch stream record for record.
#[test]
fn sharded_ingest_equals_batch_across_shard_counts() {
    let batch = CampusWorkload::new(campus_cfg()).generate_with_threads(1);
    for shards in [1usize, 2, 4] {
        let dir = tmpdir(&format!("counts-{shards}"));
        let mut ingest = ShardedLiveIngest::create(sharded_cfg(&dir), shards).expect("create");
        let mut source = SlicedWorkload::campus(campus_cfg(), HOUR, 2);
        ingest.run(&mut source).expect("run");
        assert_eq!(ingest.total_records(), batch.len() as u64);

        // Mid-ingest (pre-finish) merged view: replay + products.
        let view = ingest.view();
        let mut back = Vec::new();
        view.for_each_record(&mut |r| back.push(r.clone()));
        assert_eq!(back, batch, "{shards} shards: merged replay");
        let mem = TraceIndex::new(batch.clone());
        assert_views_agree(&view, &mem, &format!("{shards} shards vs in-memory"));

        // Every record landed on the shard its client hashes to.
        assert_eq!(view.chains().len(), shards);
        for (i, chain) in view.chains().iter().enumerate() {
            let mut clients = Vec::new();
            for reader in chain.sealed().iter().chain(chain.hot()) {
                reader
                    .for_each(|r| clients.push(r.client))
                    .expect("segment");
            }
            assert!(
                clients.iter().all(|&c| shard_for_client(c, shards) == i),
                "shard {i} holds a foreign client"
            );
        }

        let summary = ingest.finish().expect("finish");
        assert_eq!(summary.shards.len(), shards);
        assert_eq!(summary.total_records, batch.len() as u64);
        // Exactly the shards the clients hash to saw records.
        let expected_used: std::collections::BTreeSet<usize> = batch
            .iter()
            .map(|r| shard_for_client(r.client, shards))
            .collect();
        let used: std::collections::BTreeSet<usize> = summary
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.total_records > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(used, expected_used, "{shards} shards: shard occupancy");
        if shards > 1 {
            assert!(
                used.len() > 1,
                "the campus clients must actually spread across {shards} shards"
            );
        }

        // Layout: manifest + shard-NNN dirs, each segment with its
        // sequence sidecar.
        assert!(dir.join(SHARD_MANIFEST).exists());
        for i in 0..shards {
            let shard_dir = dir.join(shard_dir_name(i));
            for entry in std::fs::read_dir(&shard_dir).expect("shard dir") {
                let path = entry.expect("entry").path();
                if path.extension().is_some_and(|e| e == "nfseg") {
                    let seqs = seqfile::read_sidecar(&path).expect("sealed segment sidecar");
                    assert!(!seqs.is_empty());
                    assert!(
                        seqs.windows(2).all(|w| w[0] < w[1]),
                        "sidecar seqs increase"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reopen_resumes_sequences_and_appends_across_shards() {
    let dir = tmpdir("reopen");
    let batch = CampusWorkload::new(campus_cfg()).generate_with_threads(1);

    // First run: half the day, then stop (sealing every shard's tail).
    let mut first = ShardedLiveIngest::create(sharded_cfg(&dir), 3).expect("create");
    let mut sliced = SlicedWorkload::campus(campus_cfg(), 2 * HOUR, 1);
    let mut batch_buf: Vec<TraceRecord> = Vec::new();
    while sliced.emitted_to() < 12 * HOUR {
        batch_buf.clear();
        if !sliced.next_slice_into(&mut batch_buf).expect("slice") {
            break;
        }
        first.ingest_batch(&batch_buf).expect("ingest");
    }
    let stopped_at = sliced.emitted_to();
    let first_total = first.total_records();
    first.finish().expect("finish first");

    // Second run: reopen (shard count comes from the manifest), verify
    // the resumed view, keep ingesting the same stream.
    let mut second = ShardedLiveIngest::open(sharded_cfg(&dir)).expect("reopen");
    assert_eq!(second.shard_count(), 3);
    assert_eq!(second.total_records(), first_total);
    let so_far: Vec<TraceRecord> = batch
        .iter()
        .filter(|r| r.micros < stopped_at)
        .cloned()
        .collect();
    assert_views_agree(
        &second.view(),
        &TraceIndex::new(so_far),
        "reopened sharded view",
    );
    loop {
        batch_buf.clear();
        if !sliced.next_slice_into(&mut batch_buf).expect("slice") {
            break;
        }
        second.ingest_batch(&batch_buf).expect("ingest");
    }
    let view = second.view();
    let mut back = Vec::new();
    view.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(back, batch, "stop+reopen must reproduce the batch stream");
    second.finish().expect("finish second");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_and_order_guards() {
    let dir = tmpdir("guards");
    let mut ingest = ShardedLiveIngest::create(sharded_cfg(&dir), 2).expect("create");
    let r = |micros| TraceRecord::new(micros, Op::Read, FileId(1));
    ingest
        .ingest_batch(&[r(1000), r(1000), r(2000)])
        .expect("in order");
    // A time-travelling batch is rejected before touching any shard.
    assert!(matches!(
        ingest.ingest_batch(&[r(1999)]),
        Err(nfstrace_store::StoreError::OutOfOrder { .. })
    ));
    assert_eq!(ingest.total_records(), 3);
    ingest.finish().expect("finish");

    // Create over an existing sharded root must refuse.
    assert!(ShardedLiveIngest::create(sharded_cfg(&dir), 2).is_err());
    // Reopen ignores the caller's count and uses the manifest; a
    // manifest pinning fewer shards than exist on disk is rejected.
    std::fs::write(dir.join(SHARD_MANIFEST), "1\n").expect("shrink manifest");
    assert!(ShardedLiveIngest::open(sharded_cfg(&dir)).is_err());
    // ... and so is one pinning more: the manifest is input, not truth.
    // It must not conjure shard directories (or, at 4 000 000, try to)
    // and re-route every client.
    let listing = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .expect("read root")
            .map(|e| e.expect("entry").file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing(&dir);
    assert_eq!(before.len(), 3, "SHARDS + two shard directories");
    for wider in ["3\n", "4000000\n"] {
        std::fs::write(dir.join(SHARD_MANIFEST), wider).expect("widen manifest");
        let err = ShardedLiveIngest::open(sharded_cfg(&dir)).expect_err("wider manifest");
        let (pinned, msg) = (wider.trim(), err.to_string());
        assert!(
            msg.contains(&format!("pins {pinned} shards")) && msg.contains("2 shard directories"),
            "{msg}"
        );
        assert_eq!(listing(&dir), before, "a refused open must create nothing");
    }
    std::fs::write(dir.join(SHARD_MANIFEST), "2\n").expect("restore manifest");
    ShardedLiveIngest::open(sharded_cfg(&dir)).expect("open resumes");
    // A garbage or missing manifest is an error, not a guess.
    std::fs::write(dir.join(SHARD_MANIFEST), "two\n").expect("garbage manifest");
    assert!(ShardedLiveIngest::open(sharded_cfg(&dir)).is_err());
    std::fs::remove_file(dir.join(SHARD_MANIFEST)).expect("drop manifest");
    assert!(ShardedLiveIngest::open(sharded_cfg(&dir)).is_err());
    assert!(ShardedLiveIngest::create(sharded_cfg(&dir), 0).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Two shards, one segment each, sealed: the 24 records alternate
/// clients, so shard 0 holds the even arrival sequences and shard 1
/// the odd ones. Returns the root and each shard's one segment.
fn two_sealed_shards(tag: &str) -> (std::path::PathBuf, [std::path::PathBuf; 2]) {
    let dir = tmpdir(tag);
    let mut ingest = ShardedLiveIngest::create(sharded_cfg(&dir), 2).expect("create");
    let clients: Vec<u32> = {
        let a = (0..).find(|&c| shard_for_client(c, 2) == 0).unwrap();
        let b = (0..).find(|&c| shard_for_client(c, 2) == 1).unwrap();
        vec![a, b]
    };
    let records: Vec<TraceRecord> = (0..24u64)
        .map(|i| {
            let mut r = TraceRecord::new(1000 + i, Op::Read, FileId(i % 5));
            r.client = clients[i as usize % 2];
            r
        })
        .collect();
    ingest.ingest_batch(&records).expect("ingest");
    let summary = ingest.finish().expect("finish");
    assert!(summary.shards.iter().all(|s| s.segments == 1));
    let segments = [0, 1].map(|i| dir.join(shard_dir_name(i)).join("seg-000000.nfseg"));
    for (i, segment) in segments.iter().enumerate() {
        assert_eq!(
            seqfile::read_sidecar(segment).expect("sidecar"),
            (i as u64..24).step_by(2).collect::<Vec<u64>>()
        );
    }
    (dir, segments)
}

fn assert_sidecar_error(err: nfstrace_store::StoreError, want: &std::path::Path) {
    match &err {
        nfstrace_store::StoreError::Sidecar { segment, .. } => assert_eq!(segment, want),
        other => panic!(
            "expected a Sidecar error naming {}, got {other}",
            want.display()
        ),
    }
}

/// A checksummed sidecar ending at `u64::MAX` leaves no sequence to
/// resume stamping at: reopen refuses it, naming the segment, instead
/// of overflowing.
#[test]
fn a_sidecar_ending_at_u64_max_is_a_sidecar_error() {
    let (dir, [segment, _]) = two_sealed_shards("seq-max");
    let mut seqs = seqfile::read_sidecar(&segment).expect("sidecar");
    *seqs.last_mut().unwrap() = u64::MAX;
    seqfile::write_sidecar(&segment, &seqs).expect("rewrite");
    let err = ShardedLiveIngest::open(sharded_cfg(&dir)).expect_err("u64::MAX sidecar");
    assert_sidecar_error(err, &segment);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sequences that do not strictly increase across the merged replay —
/// reversed within one chain, or equal to another chain's — would
/// reorder the stream and let stamping resume below sequences on disk:
/// reopen refuses them, naming the segment.
#[test]
fn sequences_that_do_not_increase_are_a_sidecar_error() {
    let (dir, segments) = two_sealed_shards("seq-order");
    // Shard 0 reversed: [22, 20, …, 0].
    let mut reversed = seqfile::read_sidecar(&segments[0]).expect("sidecar");
    reversed.reverse();
    // Shard 1 still increasing, but holding shard 0's 4: [1, 3, 4, 7, …].
    let mut colliding = seqfile::read_sidecar(&segments[1]).expect("sidecar");
    colliding[2] = 4;
    for (segment, bad) in segments.iter().zip([reversed, colliding]) {
        let original = seqfile::read_sidecar(segment).expect("sidecar");
        seqfile::write_sidecar(segment, &bad).expect("rewrite");
        let err = ShardedLiveIngest::open(sharded_cfg(&dir)).expect_err("bad sequences");
        let msg = err.to_string();
        assert_sidecar_error(err, segment);
        assert!(msg.contains("does not follow"), "{msg}");
        seqfile::write_sidecar(segment, &original).expect("restore");
    }
    let reopened = ShardedLiveIngest::open(sharded_cfg(&dir)).expect("reopen");
    assert_eq!(reopened.total_records(), 24);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sequence_stamping_guards_and_plain_ingest_stays_sidecar_free() {
    // The public single-writer ingest writes no sidecars: its segment
    // directory stays byte-identical to pre-sharding layouts.
    let dir = tmpdir("plain");
    let mut plain = LiveIngest::create(LiveConfig {
        rotate_records: 4,
        ..LiveConfig::new(&dir)
    })
    .expect("create plain");
    for i in 0..10u64 {
        plain
            .ingest(&TraceRecord::new(i * 1000, Op::Read, FileId(1)))
            .expect("ingest");
    }
    plain.finish().expect("finish");
    assert!(
        std::fs::read_dir(&dir).expect("read dir").all(|e| {
            let name = e.expect("entry").file_name();
            !name.to_string_lossy().ends_with(".nfseq")
        }),
        "plain ingest must not write sequence sidecars"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded view's window whose edges fall inside a sealed chunk on
/// every chain, at timestamps tied across shards, equals the in-memory
/// window record for record: each chain's cursor builds only the
/// window's records of an edge chunk and finds their sidecar
/// sequences from the chunk's first kept index.
#[test]
fn a_window_cutting_chunks_on_every_chain_equals_the_memory_window() {
    let shards = 3;
    // Twelve clients a timestamp, spread over every shard; the files
    // are shared across clients, so a tie's order shows in the
    // per-file access lists too.
    let clients: Vec<u32> = (0..12).collect();
    for shard in 0..shards {
        assert!(clients
            .iter()
            .any(|&c| shard_for_client(c, shards) == shard));
    }
    let records: Vec<TraceRecord> = (0..1_500u64)
        .flat_map(|t| {
            clients.iter().map(move |&c| {
                let mut r = TraceRecord::new(t * 10, Op::Read, FileId((t + u64::from(c)) % 7));
                r.client = c;
                r.offset = u64::from(c) * 4096;
                r.count = 4096;
                r
            })
        })
        .collect();
    let dir = tmpdir("window-edges");
    let config = LiveConfig {
        store: StoreConfig {
            target_chunk_bytes: 1 << 10,
        },
        rotate_records: 1_000,
        rotate_micros: u64::MAX,
        ..LiveConfig::new(&dir)
    };
    let mut ingest = ShardedLiveIngest::create(config, shards).expect("create");
    ingest.ingest_batch(&records).expect("ingest");
    let view = ingest.view();

    // The first tie group past `from` that lies strictly inside a
    // sealed chunk of every chain (some of the chunk before it).
    let inside_on_every_chain = |micros: u64| {
        view.chains().iter().all(|chain| {
            let metas = chain.sealed().iter().flat_map(|r| r.chunks());
            metas
                .into_iter()
                .any(|m| m.min_micros < micros && micros <= m.max_micros)
        })
    };
    let edge = |from: u64| {
        (from..)
            .step_by(10)
            .take(200)
            .find(|&micros| inside_on_every_chain(micros))
            .expect("an edge inside a chunk on every chain")
    };
    let (start, end) = (edge(3_000), edge(9_000));

    let want: Vec<TraceRecord> = records
        .iter()
        .filter(|r| r.micros >= start && r.micros < end)
        .cloned()
        .collect();
    let window = view.time_window(start, end);
    let mut back = Vec::new();
    window.for_each_record(&mut |r| back.push(r.clone()));
    assert_eq!(back.len(), want.len(), "window [{start}, {end})");
    assert!(back == want, "window [{start}, {end}) replays out of order");
    let mem = TraceIndex::new(records.clone()).time_window(start, end);
    assert_views_agree(&window, &mem, "window cutting chunks");
    ingest.finish().expect("finish");
    std::fs::remove_dir_all(&dir).ok();
}
