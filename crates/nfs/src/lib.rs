//! Complete NFSv2 (RFC 1094) and NFSv3 (RFC 1813) protocol types.
//!
//! Both traced systems in the FAST 2003 paper spoke NFS: EECS clients
//! used a mix of NFSv2 and NFSv3 over UDP, CAMPUS used NFSv3 over TCP.
//! The tracer therefore "can handle any combination of NFSv2 and NFSv3,
//! TCP or UDP transport" (§2). This crate provides:
//!
//! - [`fh`]: file handles (fixed 32 bytes in v2, up to 64 variable in v3).
//! - [`types`]: attributes, times, status codes, and other shared types.
//! - [`v3`]: all 22 NFSv3 procedures with argument/result codecs.
//! - [`v2`]: all 18 NFSv2 procedures with argument/result codecs.
//!
//! # Examples
//!
//! ```
//! use nfstrace_nfs::v3::{Call3, Read3Args};
//! use nfstrace_nfs::fh::FileHandle;
//!
//! let call = Call3::Read(Read3Args {
//!     file: FileHandle::from_u64(42),
//!     offset: 8192,
//!     count: 8192,
//! });
//! let bytes = call.encode_args();
//! let decoded = Call3::decode(call.proc(), &bytes).unwrap();
//! assert_eq!(decoded, call);
//! ```

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod fh;
pub mod types;
pub mod v2;
pub mod v3;

pub use fh::FileHandle;
pub use types::{Fattr3, Ftype3, NfsStat3, NfsTime3, Sattr3};
