//! The sharded write path: N single-writer ingests behind a client
//! router.
//!
//! The paper's collector is one passive tap producing one totally
//! ordered stream, and one [`crate::LiveIngest`] keeps that stream in
//! one segment directory. [`ShardedLiveIngest`] splits it by client
//! across N of them instead. It is kept only for the benchmark's
//! `live.sharded_ingest` row, which measures whether several writers
//! outrun one (on two cores they do not); the row and this type go
//! together.

use crate::ingest::{LiveConfig, LiveIngest, LiveSummary};
use nfstrace_core::parallel;
use nfstrace_core::record::TraceRecord;
use nfstrace_store::{Result, StoreError};

/// The shard a client id routes to: a splitmix64-style mix so
/// consecutive client ids spread evenly, reduced by fixed-point
/// multiply (uses the mix's high bits, which scatter better than its
/// low bits for near-identical IPs). Stable across runs — the same
/// client always lands on the same shard, which is what keeps each
/// shard's stream time-ordered.
pub fn shard_for_client(client: u32, shards: usize) -> usize {
    let mut x = u64::from(client).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    ((u128::from(x) * shards as u128) >> 64) as usize
}

/// N plain [`LiveIngest`]s under `config.dir/shard-NNN/`, each record
/// routed to the one [`shard_for_client`] picks. Each shard directory
/// is an ordinary single-writer segment directory: open it with
/// [`nfstrace_store::StoreIndex::open_dir`] to read the records routed
/// there, in input order. Nothing reads the shards back as one stream.
#[derive(Debug)]
pub struct ShardedLiveIngest {
    shards: Vec<LiveIngest>,
    /// The capture time of the last record ingested, on any shard.
    last_micros: Option<u64>,
}

impl ShardedLiveIngest {
    /// Starts `shards` fresh ingests under `config.dir`, each with
    /// `config`'s rotation thresholds, store layout, compaction and
    /// registry.
    ///
    /// # Errors
    ///
    /// If `shards` is zero, or as [`LiveIngest::create`] for any shard.
    pub fn create(config: LiveConfig, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(StoreError::Format("shard count must be at least 1".into()));
        }
        let shards = (0..shards)
            .map(|i| {
                LiveIngest::create(LiveConfig {
                    dir: config.dir.join(format!("shard-{i:03}")),
                    ..config.clone()
                })
            })
            .collect::<Result<_>>()?;
        Ok(ShardedLiveIngest {
            shards,
            last_micros: None,
        })
    }

    /// Ingests one batch: checks that it continues the stream in time
    /// order before any shard is touched, then hands each shard its
    /// records, the shards ingesting side by side on
    /// [`nfstrace_core::parallel::threads`] workers.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record (nothing
    /// is written then), or the first shard's [`LiveIngest::ingest`]
    /// error.
    pub fn ingest_batch(&mut self, records: &[TraceRecord]) -> Result<()> {
        let mut last = self.last_micros;
        for r in records {
            if let Some(prev) = last.filter(|&prev| r.micros < prev) {
                return Err(StoreError::OutOfOrder {
                    prev,
                    next: r.micros,
                });
            }
            last = Some(r.micros);
        }
        self.last_micros = last;
        let n = self.shards.len();
        let mut routed: Vec<(&mut LiveIngest, Vec<&TraceRecord>)> =
            self.shards.iter_mut().map(|s| (s, Vec::new())).collect();
        for r in records {
            routed[shard_for_client(r.client, n)].1.push(r);
        }
        let run_len = parallel::run_len(n, parallel::threads());
        // Every shard of a run ingests; a run reports its first error.
        parallel::fork_join(routed.chunks_mut(run_len), |run| {
            run.iter_mut()
                .map(|(shard, records)| records.iter().try_for_each(|r| shard.ingest(r)))
                .fold(Ok(()), Result::and)
        })
        .into_iter()
        .collect()
    }

    /// Finishes every shard, in shard order, and returns their
    /// summaries.
    ///
    /// # Errors
    ///
    /// The first shard's [`LiveIngest::finish`] error.
    pub fn finish(self) -> Result<Vec<LiveSummary>> {
        self.shards.into_iter().map(LiveIngest::finish).collect()
    }
}
