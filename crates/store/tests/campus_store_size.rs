//! On-disk size guarantee on a realistic trace: for the scale-0.1
//! CAMPUS workload, per-chunk compression makes the stored chunk bytes
//! strictly smaller than the encoded payloads they hold — read from the
//! writer's own `store.chunk_bytes_*` counters — while the file decodes
//! to bit-identical records.

use nfstrace_core::record::TraceRecord;
use nfstrace_core::time::DAY;
use nfstrace_store::{StoreConfig, StoreReader, StoreWriter};
use nfstrace_telemetry::Registry;
use nfstrace_workload::{CampusConfig, CampusWorkload};

/// One day of CAMPUS at scale 0.1 (the repro suite's scaling:
/// `max(4, 40 × 0.1)` users).
fn campus_scale_01() -> Vec<TraceRecord> {
    CampusWorkload::new(CampusConfig {
        users: 4,
        duration_micros: DAY,
        seed: 42,
        ..CampusConfig::default()
    })
    .generate()
}

#[test]
fn compressed_store_is_smaller_on_campus_trace() {
    let records = campus_scale_01();
    assert!(records.len() > 1000, "workload generated a real trace");
    let dir = std::env::temp_dir().join("nfstrace-store-size");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("campus-{}", std::process::id()));

    let registry = Registry::new();
    let mut w = StoreWriter::create_with_registry(&path, StoreConfig::default(), &registry)
        .expect("create");
    for r in &records {
        w.push(r).expect("push");
    }
    w.finish().expect("finish");
    let stored = registry.counter("store.chunk_bytes_stored").value();
    let raw = registry.counter("store.chunk_bytes_raw").value();
    assert!(
        stored < raw,
        "compressed chunks ({stored} B) must be smaller than their payloads ({raw} B)"
    );

    let reader = StoreReader::open(&path).expect("open");
    let mut back = Vec::with_capacity(records.len());
    reader.for_each(|r| back.push(r.clone())).expect("stream");
    std::fs::remove_file(&path).ok();
    assert_eq!(back, records);
}
