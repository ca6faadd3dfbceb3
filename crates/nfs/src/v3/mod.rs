//! NFS version 3 (RFC 1813): procedures, arguments, and results.
//!
//! Every CAMPUS client spoke NFSv3 over TCP, and most EECS clients spoke
//! NFSv3 over UDP (paper §3). All 22 procedures are implemented with
//! full wire codecs.

mod call;
mod reply;

pub use call::*;
pub use reply::*;

/// One sample of every procedure's call and replies (ok and error),
/// shared with the v2 ↔ v3 correspondence sweep in [`crate::v2`].
#[cfg(test)]
pub(crate) use {call::tests::sample_calls, reply::tests::sample_replies};

use nfstrace_xdr::Error;

/// NFSv3 procedure numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
pub enum Proc3 {
    /// Do nothing (ping).
    Null = 0,
    /// Get file attributes.
    Getattr = 1,
    /// Set file attributes.
    Setattr = 2,
    /// Look up a name in a directory.
    Lookup = 3,
    /// Check access permission.
    Access = 4,
    /// Read a symbolic link.
    Readlink = 5,
    /// Read from a file.
    Read = 6,
    /// Write to a file.
    Write = 7,
    /// Create a file.
    Create = 8,
    /// Create a directory.
    Mkdir = 9,
    /// Create a symbolic link.
    Symlink = 10,
    /// Create a special node.
    Mknod = 11,
    /// Remove a file.
    Remove = 12,
    /// Remove a directory.
    Rmdir = 13,
    /// Rename a file or directory.
    Rename = 14,
    /// Create a hard link.
    Link = 15,
    /// Read a directory.
    Readdir = 16,
    /// Read a directory with attributes.
    Readdirplus = 17,
    /// Get file system statistics.
    Fsstat = 18,
    /// Get static file system info.
    Fsinfo = 19,
    /// Get POSIX pathconf info.
    Pathconf = 20,
    /// Commit cached writes to stable storage.
    Commit = 21,
}

impl Proc3 {
    /// All procedures in numeric order.
    pub const ALL: [Proc3; 22] = [
        Proc3::Null,
        Proc3::Getattr,
        Proc3::Setattr,
        Proc3::Lookup,
        Proc3::Access,
        Proc3::Readlink,
        Proc3::Read,
        Proc3::Write,
        Proc3::Create,
        Proc3::Mkdir,
        Proc3::Symlink,
        Proc3::Mknod,
        Proc3::Remove,
        Proc3::Rmdir,
        Proc3::Rename,
        Proc3::Link,
        Proc3::Readdir,
        Proc3::Readdirplus,
        Proc3::Fsstat,
        Proc3::Fsinfo,
        Proc3::Pathconf,
        Proc3::Commit,
    ];

    /// The wire procedure number.
    pub fn as_u32(self) -> u32 {
        self as u32
    }

    /// Parses a wire procedure number.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDiscriminant`] for numbers above 21.
    pub fn from_u32(v: u32) -> Result<Self, Error> {
        Proc3::ALL
            .get(v as usize)
            .copied()
            .ok_or(Error::InvalidDiscriminant {
                what: "nfsv3 procedure",
                value: v,
            })
    }

    /// The procedure's conventional upper-case name.
    pub fn name(self) -> &'static str {
        match self {
            Proc3::Null => "NULL",
            Proc3::Getattr => "GETATTR",
            Proc3::Setattr => "SETATTR",
            Proc3::Lookup => "LOOKUP",
            Proc3::Access => "ACCESS",
            Proc3::Readlink => "READLINK",
            Proc3::Read => "READ",
            Proc3::Write => "WRITE",
            Proc3::Create => "CREATE",
            Proc3::Mkdir => "MKDIR",
            Proc3::Symlink => "SYMLINK",
            Proc3::Mknod => "MKNOD",
            Proc3::Remove => "REMOVE",
            Proc3::Rmdir => "RMDIR",
            Proc3::Rename => "RENAME",
            Proc3::Link => "LINK",
            Proc3::Readdir => "READDIR",
            Proc3::Readdirplus => "READDIRPLUS",
            Proc3::Fsstat => "FSSTAT",
            Proc3::Fsinfo => "FSINFO",
            Proc3::Pathconf => "PATHCONF",
            Proc3::Commit => "COMMIT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_numbers_match_rfc() {
        assert_eq!(Proc3::Getattr.as_u32(), 1);
        assert_eq!(Proc3::Read.as_u32(), 6);
        assert_eq!(Proc3::Write.as_u32(), 7);
        assert_eq!(Proc3::Commit.as_u32(), 21);
    }

    #[test]
    fn from_u32_roundtrip() {
        for p in Proc3::ALL {
            assert_eq!(Proc3::from_u32(p.as_u32()).unwrap(), p);
        }
        assert!(Proc3::from_u32(22).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Proc3::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }
}
