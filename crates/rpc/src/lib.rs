//! ONC RPC (Sun RPC, RFC 1831) message layer.
//!
//! NFS requests and responses travel as RPC calls and replies. A passive
//! tracer must decode the RPC envelope to find the program (NFS is
//! program 100003), version, procedure, and transaction id (XID), then
//! pair each reply with its call — "it is impossible to decode an NFS
//! response without seeing the call" (paper §4.1.4).
//!
//! - [`msg`]: call and reply bodies with XDR codecs.
//! - [`auth`]: `AUTH_UNIX` credentials carrying the UID/GID the
//!   anonymizer must rewrite.
//! - [`record`]: RPC record marking for TCP streams.
//! - [`xid`]: the call/reply matcher.

// The zero-copy capture path is only as good as the code around it:
// flag clones of values whose last use this was.
#![warn(clippy::redundant_clone)]

pub mod auth;
pub mod msg;
pub mod record;
pub mod xid;

/// The NFS program number.
pub const PROG_NFS: u32 = 100_003;

pub use auth::AuthRef;
pub use msg::{
    CallBody, CallView, MsgBody, MsgBodyView, ReplyBody, ReplyStat, ReplyView, RpcMessage,
    RpcMessageView,
};
pub use record::RecordRef;
pub use xid::XidMatcher;
