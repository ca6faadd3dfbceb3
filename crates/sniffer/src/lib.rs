//! The passive NFS tracer.
//!
//! This crate is the paper's tracing tool (§2): it watches raw packets
//! (live from a mirror port in the original; from the simulator or a
//! pcap file here), decodes Ethernet/IPv4/UDP/TCP, reassembles TCP
//! streams and splits RPC records out of them, pairs every NFS reply
//! with its call by XID, and emits analysis-ready
//! [`nfstrace_core::TraceRecord`]s. It "can handle any combination of
//! NFSv2 and NFSv3, TCP or UDP transport, gigabit Ethernet, and jumbo
//! frames", tolerates packet loss (counting unmatched calls and
//! replies, §4.1.4), and TCP packet coalescing.
//!
//! - [`wire`]: the inverse path, encoding simulated call/reply events
//!   into real packets — what puts honest bytes on the simulated wire.
//! - [`capture`]: the sniffer itself.
//! - [`convert`]: the canonical call/reply → record flattening shared
//!   with the fast (non-wire) simulation path.

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod capture;
pub mod convert;
pub mod wire;

pub use capture::{Sniffer, SnifferStats};
pub use convert::{v2_to_record, v3_to_record, CallMeta};
pub use wire::{MessageFrames, WireEncoder};
