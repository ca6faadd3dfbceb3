//! `nfstrace-serve` — the serving loop that closes the project's
//! generate → serve → capture → analyze circle over real sockets.
//!
//! Everything upstream of this crate treats the trace as data: the
//! workload models synthesize records, the wire encoder frames them,
//! the sniffer recovers them, the store persists them. This crate
//! treats the trace as *traffic*. Three layers:
//!
//! 1. **The serving loop** ([`server`]) — a concurrent RFC 1813-shaped
//!    NFS/RPC server on loopback TCP: record-marked framing
//!    ([`nfstrace_rpc::record`]), one thread per connection, XID-correct
//!    replies written a burst at a time (one `write` for all the calls
//!    one `read` delivered), v3 and v2 dispatch. What it answers comes
//!    from an [`NfsService`]: either a genuine shared filesystem
//!    ([`service::FsService`] over [`nfstrace_fssim::SharedNfsServer`])
//!    or a trace-faithful replay plan with a duplicate-request cache
//!    ([`service::ReplayService`]).
//! 2. **The replay client** ([`client`]) — turns a generated or
//!    store-loaded trace into timed RPC calls: per-client connections,
//!    a bounded in-flight window, as-fast-as-possible or
//!    trace-timestamp pacing, and timeout-driven retransmission.
//! 3. **The capture tap** ([`pipeline`]) — mirrors the replayed byte
//!    streams back into the passive capture path (frame synthesis →
//!    mirror port → sniffer → live ingest), so a store captured off
//!    the serving loop is byte-for-byte the store the batch pipeline
//!    writes for the same trace.
//!
//! The [`reverse`] module holds the inverse of the sniffer's record
//! flattening — trace record back to wire call/reply messages — and
//! [`plan`] precompiles a whole trace into a [`ReplayPlan`] both sides
//! of the loop share.

pub mod client;
pub mod pipeline;
pub mod plan;
pub mod reverse;
pub mod server;
pub mod service;

pub use client::{replay, Pacing, ReplayOptions, ReplayOutcome, TapEvent};
pub use pipeline::{serve_roundtrip, tap_frames, tap_to_packets, RoundtripOutcome};
pub use plan::{PlannedCall, ReplayPlan};
pub use server::NfsTcpServer;
pub use service::{FsService, NfsService, ReplayService};
