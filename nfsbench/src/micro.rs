//! The set-up side and the leaf layers (`--trace 1`): what generating,
//! encoding and framing a trace costs per record, and the per-call cost
//! of the primitives every layer above leans on (xdr, telemetry). None
//! of this is on a timed path of an end-to-end pass except through
//! `setup_s`.

use crate::corpus::{self, Sizes, System, UnitClock};
use crate::floors::Floors;
use crate::spans::Tracer;
use crate::spec::Metrics;
use crate::stages::StageSet;
use crate::Budget;
use nfstrace_anonymize::{Anonymizer, AnonymizerConfig};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::SharedNfsServer;
use nfstrace_nfs::v3::{Call3, Reply3};
use nfstrace_serve::reverse::{call_of_record, reply_of_record};
use nfstrace_serve::ReplayPlan;
use nfstrace_sniffer::WireEncoder;
use nfstrace_telemetry::Registry;
use nfstrace_xdr::{Decoder, Encoder};
use std::hint::black_box;

/// Records the per-record stages run over (a prefix of the run's own).
const MICRO_RECORDS: usize = 8_000;
/// Iterations of a primitive per unit.
const PRIMITIVE_OPS: usize = 1 << 16;

/// Sets the workload/fssim/nfs-encode/wire-encode/anonymize/xdr and
/// telemetry-primitive metrics, over a prefix of `records` and freshly
/// generated traces at a quarter of `sizes`.
pub fn micro_group(
    records: &[TraceRecord],
    sizes: &Sizes,
    seed: u64,
    budget: &Budget,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> std::io::Result<usize> {
    let records = &records[..records.len().min(MICRO_RECORDS)];
    let calls: Vec<Call3> = records.iter().map(call_of_record).collect();
    let replies: Vec<Reply3> = records.iter().filter_map(reply_of_record).collect();
    let plan = ReplayPlan::from_records(records);
    let generated = [sizes.campus_records / 4, sizes.eecs_records / 4];

    // XDR inputs: a run of words, and a run of 8 KiB variable opaques.
    let words: Vec<u8> = (0..PRIMITIVE_OPS as u32)
        .flat_map(u32::to_be_bytes)
        .collect();
    let mut enc = Encoder::new();
    for _ in 0..256 {
        enc.put_opaque_var(&[0x5a; 8192]);
    }
    let opaques = enc.into_bytes();

    let mut st = StageSet::new();
    let mut generation = [Floors::new(), Floors::new()];
    let mut passes = 0;
    while budget.more(passes) {
        tracer.enter("staged_pass");

        for (i, system) in [System::Campus, System::Eecs].into_iter().enumerate() {
            tracer.enter(if i == 0 {
                "workload.campus_gen"
            } else {
                "workload.eecs_gen"
            });
            let mut clock = UnitClock::start(&mut generation[i]);
            black_box(corpus::first_records_timed(
                system,
                0.5,
                seed,
                generated[i],
                &mut clock,
            ));
            tracer.exit();
            generation[i].end_pass().map_err(std::io::Error::other)?;
        }

        let server = SharedNfsServer::new(1);
        st.over(tracer, "fssim.handle_v3", calls.len(), 1_024, |i| {
            black_box(server.handle_v3(&calls[i], i as u64));
        });

        st.over(
            tracer,
            "nfs.encode",
            calls.len() + replies.len(),
            1_024,
            |i| {
                black_box(match calls.get(i) {
                    Some(call) => call.encode_args().len(),
                    None => replies[i - calls.len()].encode_results().len(),
                });
            },
        );

        let mut wire = WireEncoder::tcp_standard();
        st.over(tracer, "sniffer.wire_encode", plan.calls.len(), 512, |i| {
            corpus::frame_call(&mut wire, &plan.calls[i], |p| {
                black_box(p.data.len());
            });
        });

        let mut anonymizer = Anonymizer::new(AnonymizerConfig::default());
        st.over(tracer, "anonymize", records.len(), 1_024, |i| {
            black_box(anonymizer.anonymize(&records[i]));
        });

        st.once(tracer, "xdr.decode_u32", 0, || {
            let mut dec = Decoder::new(&words);
            let mut sum = 0u32;
            while let Ok(v) = dec.get_u32() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        });
        st.once(tracer, "xdr.opaque_ref", 0, || {
            let mut dec = Decoder::new(&opaques);
            let mut bytes = 0;
            while let Ok(v) = dec.get_opaque_var_ref() {
                bytes += v.len();
            }
            assert_eq!(bytes, 256 * 8192);
        });

        let registry = Registry::new();
        let counter = registry.counter("bench.counter");
        st.once(tracer, "telemetry.counter_inc", 0, || {
            for _ in 0..PRIMITIVE_OPS {
                counter.inc();
            }
        });
        let histogram = registry.histogram("bench.histogram");
        st.once(tracer, "telemetry.histogram_record", 0, || {
            for v in 0..PRIMITIVE_OPS as u64 {
                histogram.record(v);
            }
        });
        // A daemon-sized registry: the pipeline registers ~50 metrics.
        for i in 0..48 {
            registry.counter(&format!("bench.filler.{i}")).inc();
        }
        st.once(tracer, "telemetry.snapshot", 0, || {
            black_box(registry.snapshot().counters.len())
        });

        tracer.exit();
        tracer.next_pass();
        st.end_pass()?;
        passes += 1;
    }

    let n = records.len() as f64;
    m.set(
        "workload.campus_gen_ns_per_record",
        generation[0].sum_wall() / generated[0] as f64,
    );
    m.set(
        "workload.eecs_gen_ns_per_record",
        generation[1].sum_wall() / generated[1] as f64,
    );
    m.set(
        "fssim.handle_v3_ns_per_call",
        st.sum("fssim.handle_v3") / calls.len() as f64,
    );
    m.set(
        "nfs.encode_ns_per_msg",
        st.sum("nfs.encode") / (calls.len() + replies.len()) as f64,
    );
    let wire_messages: usize = plan
        .calls
        .iter()
        .map(|c| 1 + usize::from(c.reply_bytes.is_some()))
        .sum();
    m.set(
        "sniffer.wire_encode_ns_per_msg",
        st.sum("sniffer.wire_encode") / wire_messages as f64,
    );
    m.set("anonymize.ns_per_record", st.sum("anonymize") / n);
    m.set(
        "xdr.decode_u32_ns",
        st.sum("xdr.decode_u32") / PRIMITIVE_OPS as f64,
    );
    m.set(
        "xdr.opaque_ref_ns_per_kib",
        st.sum("xdr.opaque_ref") / (256.0 * 8.0),
    );
    m.set(
        "telemetry.counter_inc_ns",
        st.sum("telemetry.counter_inc") / PRIMITIVE_OPS as f64,
    );
    m.set(
        "telemetry.histogram_record_ns",
        st.sum("telemetry.histogram_record") / PRIMITIVE_OPS as f64,
    );
    m.set("telemetry.snapshot_us", st.sum("telemetry.snapshot") / 1e3);
    Ok(passes)
}
