//! Telemetry must never change what the pipeline prints: the full
//! analysis suite renders byte-identical text whether components run
//! with their default private registries or share one [`Registry`]
//! with a live [`Exporter`] sampling it. This is the in-process twin
//! of the CI `cmp` between `live --metrics` and plain `repro` stdout.

use nfstrace::live::{LiveConfig, ShardedLiveIngest};
use nfstrace::store::{StoreConfig, StoreIndex, StoreWriter};
use nfstrace::telemetry::{Exporter, ExporterConfig, Registry};
use nfstrace_bench::scenarios;
use nfstrace_bench::suite::suite_text;
use std::path::PathBuf;
use std::time::Duration;

const SCALE: f64 = 0.02;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nfstrace-telemetry-determinism-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn suite_text_is_byte_identical_with_telemetry_enabled() {
    // One generation per system; every path below consumes these
    // exact records, so any output difference is telemetry's fault.
    let campus = scenarios::campus(8, SCALE, scenarios::CAMPUS_SEED);
    let eecs = scenarios::eecs(8, SCALE, scenarios::EECS_SEED);

    // Baseline: in-memory indexes, default private registries.
    let baseline = suite_text(
        &nfstrace::core::index::TraceIndex::new(campus.clone()),
        &nfstrace::core::index::TraceIndex::new(eecs.clone()),
    );

    // Everything below shares one registry with an exporter running
    // against it the whole time.
    let dir = temp_dir("work");
    let registry = Registry::new();
    let exporter = Exporter::spawn(
        registry.clone(),
        ExporterConfig {
            interval: Duration::from_secs(1),
            jsonl_path: Some(dir.join("metrics.jsonl")),
            prometheus_path: Some(dir.join("metrics.prom")),
            stderr: false,
        },
    )
    .expect("spawn exporter");

    // Store path: write both systems through instrumented writers,
    // answer the suite over instrumented chunk-decoding indexes.
    let store_text = {
        let mut paths = Vec::new();
        for (name, records) in [("campus", &campus), ("eecs", &eecs)] {
            let path = dir.join(format!("{name}.nfstore"));
            let mut w = StoreWriter::create_with_registry(&path, StoreConfig::default(), &registry)
                .expect("create store");
            for r in records {
                w.push(r).expect("push record");
            }
            w.finish().expect("finish store");
            paths.push(path);
        }
        let campus8 = StoreIndex::open_with_registry(&paths[0], &registry).expect("open campus");
        let eecs8 = StoreIndex::open_with_registry(&paths[1], &registry).expect("open eecs");
        suite_text(&campus8, &eecs8)
    };
    assert!(
        store_text == baseline,
        "store suite text diverged with telemetry enabled"
    );

    // Live path: two-shard ingests sharing the registry, suite over
    // their merged snapshot views.
    let live_text = {
        let mut views = Vec::new();
        for (name, records) in [("campus", &campus), ("eecs", &eecs)] {
            let config = LiveConfig::new(dir.join(format!("live-{name}"))).with_registry(&registry);
            let mut ingest = ShardedLiveIngest::create(config, 2).expect("create ingest");
            for batch in records.chunks(4096) {
                ingest.ingest_batch(batch).expect("ingest batch");
            }
            views.push(ingest.view());
            // Store writers count a chunk's records when it reaches the
            // file: finish, so the hot tails' chunks do.
            ingest.finish().expect("finish ingest");
        }
        suite_text(&views[0], &views[1])
    };
    assert!(
        live_text == baseline,
        "live suite text diverged with telemetry enabled"
    );

    // The exporter really was watching: its final snapshot holds the
    // stages' metrics, and both export files exist with content.
    let snapshot = exporter.stop().expect("stop exporter");
    // Every record went through an instrumented StoreWriter twice:
    // once on the store path, once into a live hot segment.
    assert_eq!(
        snapshot.counter("store.records_written"),
        Some(2 * (campus.len() + eecs.len()) as u64)
    );
    assert_eq!(
        snapshot.counter("live.records_emitted"),
        Some((campus.len() + eecs.len()) as u64)
    );
    assert!(snapshot.counter("query.requests").unwrap_or(0) > 0);
    let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("read jsonl");
    assert!(!jsonl.trim().is_empty());
    assert!(
        std::fs::metadata(dir.join("metrics.prom"))
            .expect("prom file")
            .len()
            > 0
    );

    std::fs::remove_dir_all(&dir).ok();
}
