//! Trace anonymization (paper §2).
//!
//! "The anonymization process replaces all UIDs, GIDs, and IP addresses
//! in the traces with arbitrary but consistent values. ... filename
//! suffixes are anonymized separately from the rest of the filename, so
//! all files that share the same suffix will have anonymized names that
//! end in the anonymized form of that suffix. ... We do not use hashing
//! or any other deterministic method to do the anonymization", because
//! deterministic maps enable offline known-text attacks and cross-site
//! joins.
//!
//! Key properties, each covered by tests:
//!
//! - **consistency**: the same value maps to the same token within one
//!   anonymizer;
//! - **non-determinism**: two anonymizers built with different secrets
//!   produce different mappings;
//! - **suffix sharing**: `a.c` and `b.c` both end in the same
//!   anonymized suffix;
//! - **special prefixes/suffixes** (`#x#`, `x~`, `x,v`, `.lock`):
//!   structure is preserved so `#foo#` anonymizes to the wrapped
//!   anonymization of `foo`;
//! - **passthrough**: configured well-known names (`CVS`, `.pinerc`,
//!   `inbox`, `lock`, uid 0, ...) survive verbatim;
//! - **omission mode**: names/identities can be dropped entirely.

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod anonymizer;
mod blob;
pub mod names;
pub mod tables;

pub use anonymizer::{Anonymizer, AnonymizerConfig};
pub use names::NameAnonymizer;
pub use tables::IdTable;
