//! Incremental record producers: the seam between "where records come
//! from" and the ingest loop.

use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::into_ok;
use nfstrace_net::pcap::CapturedPacket;
use nfstrace_sniffer::{Sniffer, SnifferStats};
use nfstrace_workload::SlicedWorkload;

/// An incremental producer of time-ordered trace records.
///
/// A source yields its stream in *batches*: each batch is internally
/// time-sorted and follows every previous batch in time, so the
/// concatenation of all batches is one time-ordered trace. Sources are
/// pull-driven — the ingest asks for the next batch when it has sunk
/// the previous one — which is what keeps the whole pipeline's resident
/// record memory bounded by one batch.
pub trait RecordSource {
    /// Appends the next batch to `out` (which the caller has cleared).
    /// Returns `false` once the stream is exhausted; a `true` return
    /// with an empty `out` is legal (e.g. a capture batch whose records
    /// are all still awaiting replies).
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool;
}

/// The time-sliced workload generator as a source: each batch is one
/// simulated time slice of the merged CAMPUS or EECS trace —
/// bit-identical, concatenated, to the batch generator's output.
impl RecordSource for SlicedWorkload {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        into_ok(self.next_slice_into(out))
    }
}

/// A [`RecordSource`] over a packet feed: each batch feeds a bounded
/// number of packets to the passive [`Sniffer`] and drains the records
/// that are final ([`Sniffer::drain_ready`]) — so the capture is never
/// buffered whole. When the packet feed ends, the sniffer is finished
/// (expiring outstanding calls) and the tail drained.
pub struct SnifferSource<I> {
    sniffer: Option<Sniffer>,
    packets: I,
    packets_per_batch: usize,
    stats: Option<SnifferStats>,
}

impl<I> std::fmt::Debug for SnifferSource<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnifferSource")
            .field("live", &self.sniffer.is_some())
            .field("packets_per_batch", &self.packets_per_batch)
            .finish_non_exhaustive()
    }
}

impl<I: Iterator<Item = CapturedPacket>> SnifferSource<I> {
    /// Wraps a packet iterator; each batch observes up to
    /// `packets_per_batch` packets.
    pub fn new(packets: I, packets_per_batch: usize) -> Self {
        SnifferSource {
            sniffer: Some(Sniffer::new()),
            packets,
            packets_per_batch: packets_per_batch.max(1),
            stats: None,
        }
    }

    /// Capture statistics — available once the source is exhausted.
    pub fn stats(&self) -> Option<SnifferStats> {
        self.stats
    }
}

impl<I: Iterator<Item = CapturedPacket>> RecordSource for SnifferSource<I> {
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>) -> bool {
        let Some(sniffer) = self.sniffer.as_mut() else {
            return false;
        };
        let mut fed = 0;
        while fed < self.packets_per_batch {
            match self.packets.next() {
                Some(p) => {
                    sniffer.observe(&p);
                    fed += 1;
                }
                None => break,
            }
        }
        if fed == 0 {
            // Feed exhausted: final drain (expires outstanding calls).
            let (tail, stats) = self.sniffer.take().expect("still live").finish();
            self.stats = Some(stats);
            out.extend(tail);
            return !out.is_empty();
        }
        // Appending hand-off: the ready records land straight in the
        // caller's batch buffer, with no per-poll Vec.
        sniffer.drain_ready_into(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_workload::EecsConfig;

    #[test]
    fn sliced_source_replays_the_batch_trace() {
        // EECS users emit records with equal timestamps, so the replay
        // must keep tie order too.
        let cfg = EecsConfig {
            users: 3,
            duration_micros: nfstrace_core::time::DAY,
            seed: 3,
            ..EecsConfig::default()
        };
        // The reference: one slice spanning the run, so every user's
        // simulation runs to the end in one step before the merge.
        let mut batch = Vec::new();
        nfstrace_core::sink::into_ok(
            SlicedWorkload::eecs(cfg.clone(), u64::MAX, 1).run_into(&mut batch),
        );
        let mut src = SlicedWorkload::eecs(cfg, nfstrace_core::time::HOUR, 1);
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while {
            buf.clear();
            src.next_batch(&mut buf)
        } {
            all.extend(buf.iter().cloned());
        }
        assert_eq!(all, batch);
    }
}
