//! Bounded-memory **live ingest**: consume an NFS trace as it happens,
//! rotate it through durable on-disk segments, and answer the full
//! analysis suite at any instant mid-ingest.
//!
//! The paper's collector ran *continuously for months*, passively
//! appending anonymized records as traffic flowed. Everything in this
//! workspace before this crate was batch: generate or sniff a whole
//! trace, then store it, then analyze it. `nfstrace-live` is the
//! online shape, built from three pieces:
//!
//! - **[`RecordSource`]** — an incremental, pull-driven producer of
//!   time-ordered record batches. Two sources ship: the time-sliced
//!   workload generator itself ([`nfstrace_workload::SlicedWorkload`]
//!   — every user's simulation advanced one bounded slice at a time,
//!   k-way merged slice by slice), and [`SnifferSource`], which feeds
//!   a packet capture through the passive sniffer's incremental
//!   `drain_ready` API, so neither path ever buffers a whole trace.
//! - **[`LiveIngest`]** — the daemon loop. Records accumulate in a
//!   *hot segment* (a pending [`nfstrace_store::StoreWriter`] chunk
//!   stream, the records held only there, encoded) at the end of one
//!   segment chain, and each is folded into
//!   a running [`nfstrace_core::index::PartialIndex`]; crossing a
//!   record-count or time-span threshold **seals** the hot segment
//!   into an immutable store file named by ordinal
//!   ([`nfstrace_store::segments`]). A stopped ingest reopens its
//!   directory and appends where it left off. [`LiveIngest::view`]
//!   snapshots it at any instant mid-ingest as a
//!   [`nfstrace_store::StoreIndex`] over *sealed + hot* — the same
//!   [`nfstrace_core::index::TraceView`] a segment directory opens as,
//!   built from the running index without a decode. Every table and
//!   figure in the repro suite runs against it unchanged, and its
//!   products are bit-identical to an in-memory index over the same
//!   records.
//! - **[`ShardedLiveIngest`]** — the multi-writer shape: the stream's
//!   storage splits by client hash across N segment chains (each with
//!   its own hot segment, rotation clock, and `shard-NNN/` directory),
//!   the router stamps every record with a global arrival sequence
//!   (persisted in [`nfstrace_store::seqfile`] sidecars) and folds the
//!   stream into one running index, as the single writer does. Its
//!   [`ShardedView`]'s replays k-way merge the chains back into the
//!   exact original stream — the analysis suite over it stays
//!   byte-identical to a single-writer daemon and to the batch
//!   pipeline, for any shard count.
//!
//! # The bounded-memory contract
//!
//! Peak resident record memory across the whole pipeline is
//! `O(slice) + O(chunk)` — two source batches (one being sunk, one
//! being filled), plus the hot segment's pending chunk, plus a decoded
//! chunk or two during replays — never `O(trace)`. The hot segment is
//! held once, encoded, by its writer: each record is encoded and
//! dropped as it arrives, and a view takes the segment as the
//! writer holds it — a [`nfstrace_store::StoreReader`], like each
//! sealed segment — and decodes its chunks as it decodes sealed ones,
//! one at a time. A view holds one open file handle per segment it
//! reads. A rotated segment seals on a thread of its own behind the
//! sink, at most one at a time per chain, holding the writer's
//! buffers.
//! `crates/bench/tests/paths.rs` asserts this shape and
//! `crates/live/tests/hot_segment_resident.rs` the bytes a hot record
//! costs; the observed peaks are the benchmark's
//! `live.peak_hot_records` and `peak_heap_mib` rows
//! (`nfsbench/README.md`).
//!
//! # Example: ingest a workload live, query it mid-stream
//!
//! ```
//! use nfstrace_core::index::TraceView;
//! use nfstrace_core::time::HOUR;
//! use nfstrace_live::{LiveConfig, LiveIngest};
//! use nfstrace_workload::{CampusConfig, SlicedWorkload};
//!
//! let dir = std::env::temp_dir().join(format!("nfstrace-live-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let mut ingest = LiveIngest::create(LiveConfig {
//!     rotate_records: 2_000,
//!     ..LiveConfig::new(&dir)
//! })
//! .unwrap();
//!
//! let config = CampusConfig { users: 2, duration_micros: 8 * HOUR, ..CampusConfig::default() };
//! let mut source = SlicedWorkload::campus(config, HOUR, 1);
//! ingest.run(&mut source).unwrap();
//!
//! // Mid-ingest (here: post-run, pre-finish) queries see everything so far.
//! let view = ingest.view();
//! assert_eq!(view.len() as u64, ingest.total_records());
//! let _summary = view.summary();
//!
//! let summary = ingest.finish().unwrap();
//! assert!(summary.peak_hot_records as u64 <= 2_000);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

mod chain;
pub mod ingest;
pub mod sharded;
pub mod source;

pub use ingest::{LiveConfig, LiveIngest, LiveSummary};
pub use sharded::{
    shard_for_client, ShardChain, ShardedLiveIngest, ShardedSummary, ShardedView, SHARD_MANIFEST,
};
pub use source::{RecordSource, SnifferSource};
