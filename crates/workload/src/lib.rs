//! Synthetic generation of the CAMPUS and EECS NFS workloads.
//!
//! The paper's traces are proprietary (privacy-gated, per its §4), so
//! this crate substitutes generative models parameterized from every
//! quantitative statement in the paper:
//!
//! - [`campus`]: the email system. ~10,000 accounts across 14 arrays;
//!   mail delivery appends to flat-file inboxes under lock files,
//!   POP/login sessions scan and rewrite mailboxes, composer temporaries
//!   come and go, and file-grain client caching turns every delivery
//!   into a multi-megabyte re-read (§3.2, §6.1.2).
//! - [`eecs`]: the research system. Home directories served to
//!   single-user workstations; traffic dominated by cache-revalidation
//!   metadata, with writes from builds, logs, browser caches, and
//!   window-manager Applet churn (§3.1, §6.1.1).
//! - [`rate`]: the diurnal/weekly activity rhythm both models share
//!   (§6.2).
//! - [`convert`]: turning client wire events into analysis-ready
//!   [`nfstrace_core::TraceRecord`]s.
//! - [`driver`]: the discrete-event scaffolding and deterministic
//!   random samplers.
//!
//! # Generation
//!
//! Both generators simulate every user independently — its own
//! filesystem replica (disjoint inode base), its own client machines,
//! its own `driver::user_seed`-derived RNG — and merge the per-user
//! streams by timestamp, ties broken by user index. One driver,
//! [`SlicedWorkload`], runs every path: it keeps each user's simulation
//! resident, advances all of them one time slice at a time across
//! `std::thread` workers, and k-way merges each slice's final records
//! into any [`nfstrace_core::sink::RecordSink`] — an on-disk
//! `nfstrace_store::StoreWriter`, a
//! [`nfstrace_core::index::PartialIndex`], a live ingest, or a plain
//! `Vec` — before the next slice runs. Peak resident record memory is
//! O(records per slice) whatever the trace length. `generate_into`
//! runs it at [`SLICE_MICROS`], and `generate` collects that run into a
//! `Vec`. The `NFSTRACE_THREADS` environment variable (default:
//! available parallelism) sets the pool size, and neither it nor the
//! slice length ever changes the output.

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod campus;
pub mod convert;
pub mod driver;
pub mod eecs;
pub mod rate;
pub mod sliced;

pub use campus::{CampusConfig, CampusWorkload};
pub use convert::emitted_to_record;
pub use eecs::{EecsConfig, EecsWorkload};
pub use sliced::{SlicedWorkload, SLICE_MICROS};
