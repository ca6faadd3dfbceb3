//! The version-independent trace record.
//!
//! The sniffer pairs each NFS call with its reply and flattens both into
//! one [`TraceRecord`] carrying everything the paper's analyses need:
//! timing, identities, the operation, byte ranges, and the attribute
//! snapshots (sizes) that replies piggyback. NFSv2 and NFSv3 procedures
//! are folded into one [`Op`] enumeration, as the paper's own analyses
//! treat the two protocol versions uniformly.

use std::fmt;

/// A server-assigned file identity (derived from the file handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// Version-independent NFS operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    Null,
    Getattr,
    Setattr,
    Lookup,
    Access,
    Readlink,
    Read,
    Write,
    Create,
    Mkdir,
    Symlink,
    Mknod,
    Remove,
    Rmdir,
    Rename,
    Link,
    Readdir,
    Readdirplus,
    Fsstat,
    Fsinfo,
    Pathconf,
    Commit,
    /// NFSv2 STATFS (v3's FSSTAT analogue, kept distinct for op counts).
    Statfs,
}

impl Op {
    /// All operations, for table-driven tests and histograms.
    pub const ALL: [Op; 23] = [
        Op::Null,
        Op::Getattr,
        Op::Setattr,
        Op::Lookup,
        Op::Access,
        Op::Readlink,
        Op::Read,
        Op::Write,
        Op::Create,
        Op::Mkdir,
        Op::Symlink,
        Op::Mknod,
        Op::Remove,
        Op::Rmdir,
        Op::Rename,
        Op::Link,
        Op::Readdir,
        Op::Readdirplus,
        Op::Fsstat,
        Op::Fsinfo,
        Op::Pathconf,
        Op::Commit,
        Op::Statfs,
    ];

    /// Whether this op transfers data from the server (a read).
    pub fn is_read(self) -> bool {
        self == Op::Read
    }

    /// Whether this op transfers data to the server (a write).
    pub fn is_write(self) -> bool {
        self == Op::Write
    }

    /// The paper's data/metadata split: READ, WRITE, and COMMIT move
    /// data; everything else is metadata.
    pub fn is_data(self) -> bool {
        matches!(self, Op::Read | Op::Write | Op::Commit)
    }

    /// The attribute calls (`lookup`, `getattr`, `access`) that §6.1.1
    /// says dominate the EECS workload.
    pub fn is_attribute_call(self) -> bool {
        matches!(self, Op::Lookup | Op::Getattr | Op::Access)
    }

    /// Stable lower-case token used by the text trace format.
    pub fn token(self) -> &'static str {
        match self {
            Op::Null => "null",
            Op::Getattr => "getattr",
            Op::Setattr => "setattr",
            Op::Lookup => "lookup",
            Op::Access => "access",
            Op::Readlink => "readlink",
            Op::Read => "read",
            Op::Write => "write",
            Op::Create => "create",
            Op::Mkdir => "mkdir",
            Op::Symlink => "symlink",
            Op::Mknod => "mknod",
            Op::Remove => "remove",
            Op::Rmdir => "rmdir",
            Op::Rename => "rename",
            Op::Link => "link",
            Op::Readdir => "readdir",
            Op::Readdirplus => "readdirplus",
            Op::Fsstat => "fsstat",
            Op::Fsinfo => "fsinfo",
            Op::Pathconf => "pathconf",
            Op::Commit => "commit",
            Op::Statfs => "statfs",
        }
    }

    /// Parses a text-format token.
    pub fn from_token(s: &str) -> Option<Self> {
        Op::ALL.into_iter().find(|op| op.token() == s)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One paired NFS call/reply, flattened for analysis.
///
/// Optional fields are populated when the operation carries them: `name`
/// for directory ops, `offset`/`count` for data ops, sizes from reply
/// attributes, and so on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Capture time of the call, microseconds since the trace epoch.
    pub micros: u64,
    /// Capture time of the reply; 0 when the reply was lost.
    pub reply_micros: u64,
    /// Client identity (IPv4 as u32, possibly anonymized).
    pub client: u32,
    /// Server identity.
    pub server: u32,
    /// Caller UID from the AUTH_UNIX credential.
    pub uid: u32,
    /// Caller GID.
    pub gid: u32,
    /// RPC transaction id.
    pub xid: u32,
    /// NFS protocol version (2 or 3).
    pub vers: u8,
    /// The operation.
    pub op: Op,
    /// Primary file or directory identity.
    pub fh: FileId,
    /// Secondary identity (rename destination directory, link target dir).
    pub fh2: Option<FileId>,
    /// Name argument (lookup/create/remove/rename-from...).
    pub name: Option<String>,
    /// Second name argument (rename-to).
    pub name2: Option<String>,
    /// Byte offset for READ/WRITE/COMMIT.
    pub offset: u64,
    /// Requested byte count.
    pub count: u32,
    /// Byte count the reply reported transferred.
    pub ret_count: u32,
    /// Whether a READ reply reported end-of-file.
    pub eof: bool,
    /// NFS status from the reply (0 = OK); `u32::MAX` when no reply.
    pub status: u32,
    /// File size before the operation (from WCC pre-op attributes).
    pub pre_size: Option<u64>,
    /// File size after the operation (from post-op attributes).
    pub post_size: Option<u64>,
    /// Target size of a SETATTR truncate/extend.
    pub truncate_to: Option<u64>,
    /// Identity of an object created by this op (from the reply).
    pub new_fh: Option<FileId>,
    /// File type from reply attributes (1 = regular, 2 = directory, ...).
    pub ftype: Option<u8>,
}

impl TraceRecord {
    /// A minimal record for `op` on `fh` at `micros`; the builders below
    /// fill in the rest.
    pub fn new(micros: u64, op: Op, fh: FileId) -> Self {
        TraceRecord {
            micros,
            reply_micros: micros,
            client: 0,
            server: 0,
            uid: 0,
            gid: 0,
            xid: 0,
            vers: 3,
            op,
            fh,
            fh2: None,
            name: None,
            name2: None,
            offset: 0,
            count: 0,
            ret_count: 0,
            eof: false,
            status: 0,
            pre_size: None,
            post_size: None,
            truncate_to: None,
            new_fh: None,
            ftype: None,
        }
    }

    /// Builder: sets the byte range.
    pub fn with_range(mut self, offset: u64, count: u32) -> Self {
        self.offset = offset;
        self.count = count;
        self.ret_count = count;
        self
    }

    /// Builder: sets the name argument.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builder: sets the client identity.
    pub fn with_client(mut self, client: u32) -> Self {
        self.client = client;
        self
    }

    /// Builder: sets the post-op file size.
    pub fn with_post_size(mut self, size: u64) -> Self {
        self.post_size = Some(size);
        self
    }

    /// Builder: marks the reply as reporting EOF.
    pub fn with_eof(mut self, eof: bool) -> Self {
        self.eof = eof;
        self
    }

    /// Whether the reply reported success.
    pub fn is_ok(&self) -> bool {
        self.status == 0
    }

    /// Whether the reply was never captured.
    pub fn reply_lost(&self) -> bool {
        self.status == u32::MAX
    }

    /// Server-to-call round trip in microseconds, when the reply exists.
    pub fn latency_micros(&self) -> Option<u64> {
        (!self.reply_lost() && self.reply_micros >= self.micros)
            .then(|| self.reply_micros - self.micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_token_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_token(op.token()), Some(op));
        }
        assert_eq!(Op::from_token("bogus"), None);
    }

    #[test]
    fn data_metadata_split_matches_paper() {
        let data: Vec<Op> = Op::ALL.into_iter().filter(|o| o.is_data()).collect();
        assert_eq!(data, vec![Op::Read, Op::Write, Op::Commit]);
    }

    #[test]
    fn attribute_calls_match_paper() {
        let attrs: Vec<Op> = Op::ALL
            .into_iter()
            .filter(|o| o.is_attribute_call())
            .collect();
        assert_eq!(attrs, vec![Op::Getattr, Op::Lookup, Op::Access]);
    }

    #[test]
    fn builders_compose() {
        let r = TraceRecord::new(1_000, Op::Read, FileId(7))
            .with_range(8192, 8192)
            .with_client(42)
            .with_post_size(1 << 20)
            .with_eof(false);
        assert_eq!(r.offset, 8192);
        assert_eq!(r.ret_count, 8192);
        assert_eq!(r.client, 42);
        assert_eq!(r.post_size, Some(1 << 20));
        assert!(r.is_ok());
    }

    #[test]
    fn latency_requires_reply() {
        let mut r = TraceRecord::new(100, Op::Read, FileId(1));
        r.reply_micros = 350;
        assert_eq!(r.latency_micros(), Some(250));
        r.status = u32::MAX;
        assert_eq!(r.latency_micros(), None);
    }
}
