//! What the benchmark declares: its workloads and metrics. `--list`
//! renders this as the `BENCHMARK.json` document; a test keeps the
//! checked-in file equal to it.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Seconds of measuring per run (`run_seconds`): set-up repetitions
/// take at most a fifth, the timed passes the rest.
pub const RUN_SECONDS: u64 = 30;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "capture-campus",
        why: "the tracer on mail traffic: 32000 CAMPUS records, ~7 KiB each, pcap to sealed segments; cost is per byte (pcap read, packet parse, reassembly, record marking)",
    },
    Workload {
        name: "capture-eecs",
        why: "the same code path on research traffic: 96000 EECS records, mostly small metadata calls; cost is per record (rpc/nfs views, xid pairing, convert, store codec, index)",
    },
    Workload {
        name: "serve-campus",
        why: "the closed loop over real sockets: 6000 CAMPUS calls served, replayed, tapped and re-captured, then 256 window-1 probe calls; the only place the serve crate runs",
    },
    Workload {
        name: "suite-store",
        why: "the researcher's path, reads beside the capture workloads' writes: open two 8-day stores, render the suite, 128 file queries, 16 window scans; store decode and core do everything",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_record",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "allocs_per_record",
        unit: "count",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "alloc_bytes_per_record",
        unit: "B",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "store_bytes_per_record",
        unit: "B",
        better: Lower,
        bound: 0.02,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Grouped by layer; README.md says what each means, which workload
/// owns it and which end-to-end metric it should move.
pub const PER_LAYER: [PerLayer; 80] = [
    pl("net.pcap_read_ns_per_packet", "ns", Lower),
    pl("net.pcap_read_mib_per_s", "MiB/s", Higher),
    pl("net.packet_parse_ns_per_packet", "ns", Lower),
    pl("net.reassembly_ns_per_segment", "ns", Lower),
    pl("net.reassembly_mib_per_s", "MiB/s", Higher),
    pl("net.mirror_offer_ns_per_packet", "ns", Lower),
    pl("rpc.record_split_ns_per_record", "ns", Lower),
    pl("rpc.record_scratch_share", "share", Lower),
    pl("rpc.msg_view_ns_per_msg", "ns", Lower),
    pl("rpc.xid_pair_ns_per_call", "ns", Lower),
    pl("rpc.mark_record_ns_per_msg", "ns", Lower),
    pl("xdr.decode_u32_ns", "ns", Lower),
    pl("xdr.opaque_ref_ns_per_kib", "ns", Lower),
    pl("nfs.call_view_ns_per_call", "ns", Lower),
    pl("nfs.reply_facts_ns_per_reply", "ns", Lower),
    pl("nfs.owned_decode_ns_per_call", "ns", Lower),
    pl("nfs.encode_ns_per_msg", "ns", Lower),
    pl("sniffer.source_ns_per_record", "ns", Lower),
    pl("sniffer.source_share", "share", Lower),
    pl("sniffer.observe_ns_per_packet", "ns", Lower),
    pl("sniffer.drain_ns_per_record", "ns", Lower),
    pl("sniffer.convert_ns_per_record", "ns", Lower),
    pl("sniffer.alloc_fallbacks_per_record", "count", Lower),
    pl("sniffer.estimated_loss_rate", "share", Lower),
    pl("sniffer.wire_encode_ns_per_msg", "ns", Lower),
    pl("store.encode_ns_per_record", "ns", Lower),
    pl("store.compress_mib_per_s", "MiB/s", Higher),
    pl("store.compression_ratio", "ratio", Lower),
    pl("store.write_ns_per_record", "ns", Lower),
    pl("store.footer_bytes_per_record", "B", Lower),
    pl("store.compact_ns_per_record", "ns", Lower),
    pl("store.compact_write_amplification", "ratio", Lower),
    pl("store.decode_ns_per_record", "ns", Lower),
    pl("store.decompress_mib_per_s", "MiB/s", Higher),
    pl("store.index_open_ns_per_record", "ns", Lower),
    pl("store.stream_ns_per_record", "ns", Lower),
    pl("store.file_query_p99_us", "us", Lower),
    pl("store.window_query_p50_us", "us", Lower),
    pl("store.chunks_decoded_per_query", "count", Lower),
    pl("store.filter_false_positive_share", "share", Lower),
    pl("store.window_pruned_share", "share", Higher),
    pl("core.index_build_ns_per_record", "ns", Lower),
    pl("core.fused_replay_ns_per_record", "ns", Lower),
    pl("core.suite_render_ns_per_record", "ns", Lower),
    pl("core.sort_passes", "count", Lower),
    pl("core.decode_passes", "count", Lower),
    pl("live.sink_ns_per_record", "ns", Lower),
    pl("live.batch_p99_us", "us", Lower),
    pl("live.rotate_p50_us", "us", Lower),
    pl("live.peak_hot_records", "count", Lower),
    pl("live.view_snapshot_p50_us", "us", Lower),
    pl("live.sharded_ingest_ns_per_record", "ns", Lower),
    pl("serve.socket_leg_ns_per_call", "ns", Lower),
    pl("serve.capture_leg_ns_per_call", "ns", Lower),
    pl("serve.tap_frame_ns_per_call", "ns", Lower),
    pl("serve.wire_mib_per_s", "MiB/s", Higher),
    pl("serve.spawn_shutdown_us", "us", Lower),
    pl("serve.sys_cpu_share", "share", Lower),
    pl("serve.probe_rtt_p99_us", "us", Lower),
    pl("serve.fs_service_rtt_p50_us", "us", Lower),
    pl("serve.eecs_socket_leg_ns_per_call", "ns", Lower),
    pl("serve.retransmits", "count", Lower),
    pl("serve.unplanned_calls", "count", Lower),
    pl("serve.plan_compile_ns_per_call", "ns", Lower),
    pl("workload.campus_gen_ns_per_record", "ns", Lower),
    pl("workload.eecs_gen_ns_per_record", "ns", Lower),
    pl("fssim.handle_v3_ns_per_call", "ns", Lower),
    pl("telemetry.counter_inc_ns", "ns", Lower),
    pl("telemetry.histogram_record_ns", "ns", Lower),
    pl("telemetry.snapshot_us", "us", Lower),
    pl("telemetry.shared_registry_overhead_pct", "%", Lower),
    pl("anonymize.ns_per_record", "ns", Lower),
    pl("bench.passes", "count", Higher),
    pl("bench.pass_median_over_floor", "ratio", Lower),
    pl("bench.pass_iqr_pct", "%", Lower),
    pl("bench.spin_floor_ns", "ns", Lower),
    pl("bench.spin_median_over_floor", "ratio", Lower),
    pl("bench.trace_overhead_pct", "%", Lower),
    pl("bench.span_residual_pct", "%", Lower),
    pl("bench.vm_hwm_mib", "MiB", Lower),
];

/// The directory that holds the benchmark, relative to the repository
/// root, and the command that runs it from there.
pub const BENCH_DIR: &str = "nfsbench";
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "nfsbench/Cargo.toml",
    "--",
];

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| json_string(s)).collect();
    writeln!(out, "  \"command\": [{}],", command.join(", ")).unwrap();
    writeln!(out, "  \"paths\": [{}],", json_string(BENCH_DIR)).unwrap();
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Metric values gathered during a run, checked against the
/// declarations when set and when emitted.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// # Panics
    ///
    /// On an undeclared name, a second value for one name, or a value
    /// that is not finite — each a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every declared metric of the kind
    /// `traced` selects, in declaration order.
    ///
    /// # Panics
    ///
    /// If a declared metric has no value.
    pub fn emit(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let declared: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        declared
            .into_iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
                (name, value, unit)
            })
            .collect()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn checked_in_benchmark_json_is_what_list_prints() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            benchmark_json(),
            "BENCHMARK.json differs from `nfsbench --list`; regenerate it"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 << 10);
        assert!(COMMAND.len() <= 32 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn emit_wants_every_declared_metric_once() {
        let mut m = Metrics::new();
        for e in &END_TO_END {
            m.set(e.name, 1.5);
        }
        let out = m.emit(false);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(out[0], ("setup_s", 1.5, "s"));
        assert!(std::panic::catch_unwind(|| m.emit(true)).is_err());
    }
}
