//! NFS version 2 (RFC 1094): procedures, arguments, and results.
//!
//! "Most of the EECS clients use NFSv3, but many use NFSv2" (paper §3.1),
//! so the tracer decodes both. NFSv2 uses fixed 32-byte handles, 32-bit
//! sizes and offsets, and `timeval` (seconds/microseconds) timestamps.

use crate::fh::FileHandle;
use crate::types::{Fattr3, Ftype3, NfsStat3, NfsTime3, Sattr3};
use crate::v3::{self, Call3, Reply3, Reply3Body};
use nfstrace_xdr::{Decoder, Encoder, Error, Pack, Result, Unpack};

/// NFSv2 procedure numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
pub enum Proc2 {
    /// Do nothing.
    Null = 0,
    /// Get file attributes.
    Getattr = 1,
    /// Set file attributes.
    Setattr = 2,
    /// Obsolete (was: get filesystem root).
    Root = 3,
    /// Look up a name.
    Lookup = 4,
    /// Read a symlink.
    Readlink = 5,
    /// Read from a file.
    Read = 6,
    /// Never used on the wire.
    Writecache = 7,
    /// Write to a file.
    Write = 8,
    /// Create a file.
    Create = 9,
    /// Remove a file.
    Remove = 10,
    /// Rename.
    Rename = 11,
    /// Hard link.
    Link = 12,
    /// Create a symlink.
    Symlink = 13,
    /// Create a directory.
    Mkdir = 14,
    /// Remove a directory.
    Rmdir = 15,
    /// Read a directory.
    Readdir = 16,
    /// Filesystem statistics.
    Statfs = 17,
}

impl Proc2 {
    /// All procedures in numeric order.
    pub const ALL: [Proc2; 18] = [
        Proc2::Null,
        Proc2::Getattr,
        Proc2::Setattr,
        Proc2::Root,
        Proc2::Lookup,
        Proc2::Readlink,
        Proc2::Read,
        Proc2::Writecache,
        Proc2::Write,
        Proc2::Create,
        Proc2::Remove,
        Proc2::Rename,
        Proc2::Link,
        Proc2::Symlink,
        Proc2::Mkdir,
        Proc2::Rmdir,
        Proc2::Readdir,
        Proc2::Statfs,
    ];

    /// The wire procedure number.
    pub fn as_u32(self) -> u32 {
        self as u32
    }

    /// Parses a wire procedure number.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidDiscriminant`] above 17.
    pub fn from_u32(v: u32) -> Result<Self> {
        Proc2::ALL
            .get(v as usize)
            .copied()
            .ok_or(Error::InvalidDiscriminant {
                what: "nfsv2 procedure",
                value: v,
            })
    }

    /// Conventional upper-case name.
    pub fn name(self) -> &'static str {
        match self {
            Proc2::Null => "NULL",
            Proc2::Getattr => "GETATTR",
            Proc2::Setattr => "SETATTR",
            Proc2::Root => "ROOT",
            Proc2::Lookup => "LOOKUP",
            Proc2::Readlink => "READLINK",
            Proc2::Read => "READ",
            Proc2::Writecache => "WRITECACHE",
            Proc2::Write => "WRITE",
            Proc2::Create => "CREATE",
            Proc2::Remove => "REMOVE",
            Proc2::Rename => "RENAME",
            Proc2::Link => "LINK",
            Proc2::Symlink => "SYMLINK",
            Proc2::Mkdir => "MKDIR",
            Proc2::Rmdir => "RMDIR",
            Proc2::Readdir => "READDIR",
            Proc2::Statfs => "STATFS",
        }
    }
}

/// NFSv2 `timeval`: seconds and microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeVal2 {
    /// Seconds.
    pub seconds: u32,
    /// Microseconds.
    pub useconds: u32,
}

impl Pack for TimeVal2 {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_u32(self.seconds);
        enc.put_u32(self.useconds);
    }
}

impl Unpack for TimeVal2 {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TimeVal2 {
            seconds: dec.get_u32()?,
            useconds: dec.get_u32()?,
        })
    }
}

/// NFSv2 file attributes (`fattr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fattr2 {
    /// File type (shares the v3 enumeration; v2's NON type maps to error).
    pub ftype: Ftype3,
    /// Mode bits.
    pub mode: u32,
    /// Link count.
    pub nlink: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes (32-bit in v2).
    pub size: u32,
    /// Filesystem block size.
    pub blocksize: u32,
    /// Device number.
    pub rdev: u32,
    /// Blocks used.
    pub blocks: u32,
    /// Filesystem id.
    pub fsid: u32,
    /// File id (inode).
    pub fileid: u32,
    /// Access time.
    pub atime: TimeVal2,
    /// Modification time.
    pub mtime: TimeVal2,
    /// Change time.
    pub ctime: TimeVal2,
}

impl Pack for Fattr2 {
    fn pack(&self, enc: &mut Encoder) {
        // v2 ftype wire values: NFNON=0, NFREG=1, NFDIR=2, NFBLK=3,
        // NFCHR=4, NFLNK=5 — the same numbering as v3 for 1..=5.
        enc.put_u32(self.ftype.as_u32());
        enc.put_u32(self.mode);
        enc.put_u32(self.nlink);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.size);
        enc.put_u32(self.blocksize);
        enc.put_u32(self.rdev);
        enc.put_u32(self.blocks);
        enc.put_u32(self.fsid);
        enc.put_u32(self.fileid);
        self.atime.pack(enc);
        self.mtime.pack(enc);
        self.ctime.pack(enc);
    }
}

impl Unpack for Fattr2 {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Fattr2 {
            ftype: Ftype3::from_u32(dec.get_u32()?)?,
            mode: dec.get_u32()?,
            nlink: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u32()?,
            blocksize: dec.get_u32()?,
            rdev: dec.get_u32()?,
            blocks: dec.get_u32()?,
            fsid: dec.get_u32()?,
            fileid: dec.get_u32()?,
            atime: TimeVal2::unpack(dec)?,
            mtime: TimeVal2::unpack(dec)?,
            ctime: TimeVal2::unpack(dec)?,
        })
    }
}

/// NFSv2 settable attributes; `u32::MAX` (-1) means "do not set".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sattr2 {
    /// Mode, or -1.
    pub mode: u32,
    /// Uid, or -1.
    pub uid: u32,
    /// Gid, or -1.
    pub gid: u32,
    /// Size, or -1 (a non-negative size is a truncate/extend).
    pub size: u32,
    /// Atime, or (-1,-1).
    pub atime: TimeVal2,
    /// Mtime, or (-1,-1).
    pub mtime: TimeVal2,
}

impl Default for Sattr2 {
    fn default() -> Self {
        let unset = TimeVal2 {
            seconds: u32::MAX,
            useconds: u32::MAX,
        };
        Sattr2 {
            mode: u32::MAX,
            uid: u32::MAX,
            gid: u32::MAX,
            size: u32::MAX,
            atime: unset,
            mtime: unset,
        }
    }
}

impl Sattr2 {
    /// The size field as an option.
    pub fn size_opt(&self) -> Option<u32> {
        (self.size != u32::MAX).then_some(self.size)
    }
}

impl Pack for Sattr2 {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_u32(self.mode);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u32(self.size);
        self.atime.pack(enc);
        self.mtime.pack(enc);
    }
}

impl Unpack for Sattr2 {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Sattr2 {
            mode: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u32()?,
            atime: TimeVal2::unpack(dec)?,
            mtime: TimeVal2::unpack(dec)?,
        })
    }
}

/// Directory + name arguments (`diropargs`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirOpArgs2 {
    /// The directory handle.
    pub dir: FileHandle,
    /// The name.
    pub name: String,
}

fn pack_dirop(a: &DirOpArgs2, enc: &mut Encoder) {
    a.dir.pack_v2(enc);
    enc.put_string(&a.name);
}

/// A decoded NFSv2 call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call2 {
    /// NULL ping.
    Null,
    /// Get attributes.
    Getattr(FileHandle),
    /// Set attributes.
    Setattr {
        /// The file.
        file: FileHandle,
        /// Attributes to set.
        attributes: Sattr2,
    },
    /// Obsolete ROOT (void).
    Root,
    /// Name lookup.
    Lookup(DirOpArgs2),
    /// Read symlink.
    Readlink(FileHandle),
    /// Read data.
    Read {
        /// The file.
        file: FileHandle,
        /// Byte offset (32-bit).
        offset: u32,
        /// Bytes requested.
        count: u32,
        /// Unused by servers; carried for fidelity.
        totalcount: u32,
    },
    /// Unused WRITECACHE (void).
    Writecache,
    /// Write data.
    Write {
        /// The file.
        file: FileHandle,
        /// Unused "beginoffset".
        beginoffset: u32,
        /// Byte offset.
        offset: u32,
        /// Unused "totalcount".
        totalcount: u32,
        /// The data.
        data: Vec<u8>,
    },
    /// Create a file.
    Create {
        /// Where to create.
        where_: DirOpArgs2,
        /// Initial attributes.
        attributes: Sattr2,
    },
    /// Remove a file.
    Remove(DirOpArgs2),
    /// Rename.
    Rename {
        /// Source.
        from: DirOpArgs2,
        /// Destination.
        to: DirOpArgs2,
    },
    /// Hard link.
    Link {
        /// Existing file.
        from: FileHandle,
        /// New entry.
        to: DirOpArgs2,
    },
    /// Create a symlink.
    Symlink {
        /// Where to create.
        where_: DirOpArgs2,
        /// Target path.
        target: String,
        /// Attributes.
        attributes: Sattr2,
    },
    /// Create a directory.
    Mkdir {
        /// Where to create.
        where_: DirOpArgs2,
        /// Attributes.
        attributes: Sattr2,
    },
    /// Remove a directory.
    Rmdir(DirOpArgs2),
    /// List a directory.
    Readdir {
        /// The directory.
        dir: FileHandle,
        /// Opaque 4-byte resume cookie.
        cookie: u32,
        /// Maximum reply bytes.
        count: u32,
    },
    /// Filesystem statistics.
    Statfs(FileHandle),
}

impl Call2 {
    /// The procedure this call invokes.
    pub fn proc(&self) -> Proc2 {
        match self {
            Call2::Null => Proc2::Null,
            Call2::Getattr(_) => Proc2::Getattr,
            Call2::Setattr { .. } => Proc2::Setattr,
            Call2::Root => Proc2::Root,
            Call2::Lookup(_) => Proc2::Lookup,
            Call2::Readlink(_) => Proc2::Readlink,
            Call2::Read { .. } => Proc2::Read,
            Call2::Writecache => Proc2::Writecache,
            Call2::Write { .. } => Proc2::Write,
            Call2::Create { .. } => Proc2::Create,
            Call2::Remove(_) => Proc2::Remove,
            Call2::Rename { .. } => Proc2::Rename,
            Call2::Link { .. } => Proc2::Link,
            Call2::Symlink { .. } => Proc2::Symlink,
            Call2::Mkdir { .. } => Proc2::Mkdir,
            Call2::Rmdir(_) => Proc2::Rmdir,
            Call2::Readdir { .. } => Proc2::Readdir,
            Call2::Statfs(_) => Proc2::Statfs,
        }
    }

    /// Encodes the call arguments.
    pub fn encode_args(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Call2::Null | Call2::Root | Call2::Writecache => {}
            Call2::Getattr(fh) | Call2::Readlink(fh) | Call2::Statfs(fh) => fh.pack_v2(&mut enc),
            Call2::Setattr { file, attributes } => {
                file.pack_v2(&mut enc);
                attributes.pack(&mut enc);
            }
            Call2::Lookup(a) | Call2::Remove(a) | Call2::Rmdir(a) => pack_dirop(a, &mut enc),
            Call2::Read {
                file,
                offset,
                count,
                totalcount,
            } => {
                file.pack_v2(&mut enc);
                enc.put_u32(*offset);
                enc.put_u32(*count);
                enc.put_u32(*totalcount);
            }
            Call2::Write {
                file,
                beginoffset,
                offset,
                totalcount,
                data,
            } => {
                file.pack_v2(&mut enc);
                enc.put_u32(*beginoffset);
                enc.put_u32(*offset);
                enc.put_u32(*totalcount);
                enc.put_opaque_var(data);
            }
            Call2::Create { where_, attributes } | Call2::Mkdir { where_, attributes } => {
                pack_dirop(where_, &mut enc);
                attributes.pack(&mut enc);
            }
            Call2::Rename { from, to } => {
                pack_dirop(from, &mut enc);
                pack_dirop(to, &mut enc);
            }
            Call2::Link { from, to } => {
                from.pack_v2(&mut enc);
                pack_dirop(to, &mut enc);
            }
            Call2::Symlink {
                where_,
                target,
                attributes,
            } => {
                pack_dirop(where_, &mut enc);
                enc.put_string(target);
                attributes.pack(&mut enc);
            }
            Call2::Readdir { dir, cookie, count } => {
                dir.pack_v2(&mut enc);
                enc.put_u32(*cookie);
                enc.put_u32(*count);
            }
        }
        enc.into_bytes()
    }

    /// Decodes call arguments for `proc`.
    ///
    /// This is [`Call2View::decode`] plus one owned materialization, so
    /// both decoders accept and reject exactly the same wire bytes.
    ///
    /// # Errors
    ///
    /// Any XDR error for malformed arguments.
    pub fn decode(proc: Proc2, args: &[u8]) -> Result<Self> {
        Call2View::decode(proc, args).map(|v| v.to_owned())
    }
}

/// Borrowed `diropargs`: the name is a view into the wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOpView2<'a> {
    /// The directory handle.
    pub dir: FileHandle,
    /// The name, borrowed from the argument bytes.
    pub name: &'a str,
}

impl DirOpView2<'_> {
    /// Materializes the owned form; the only allocation is the name.
    pub fn to_owned(self) -> DirOpArgs2 {
        DirOpArgs2 {
            dir: self.dir,
            name: self.name.to_owned(),
        }
    }
}

fn dirop_view<'a>(dec: &mut Decoder<'a>) -> Result<DirOpView2<'a>> {
    Ok(DirOpView2 {
        dir: FileHandle::unpack_v2(dec)?,
        name: dec.get_str_ref()?,
    })
}

/// A decoded NFSv2 call that borrows names and write data from the
/// argument bytes instead of copying them.
///
/// This is the allocation-free twin of [`Call2`]: [`Call2::decode`] is
/// implemented as [`Call2View::decode`] followed by [`Call2View::to_owned`],
/// so the two decoders cannot drift. Handle and attribute fields are
/// plain inline values; only names, symlink targets, and write payloads
/// stay borrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call2View<'a> {
    /// NULL ping.
    Null,
    /// Get attributes.
    Getattr(FileHandle),
    /// Set attributes.
    Setattr {
        /// The file.
        file: FileHandle,
        /// Attributes to set.
        attributes: Sattr2,
    },
    /// Obsolete ROOT (void).
    Root,
    /// Name lookup.
    Lookup(DirOpView2<'a>),
    /// Read symlink.
    Readlink(FileHandle),
    /// Read data.
    Read {
        /// The file.
        file: FileHandle,
        /// Byte offset (32-bit).
        offset: u32,
        /// Bytes requested.
        count: u32,
        /// Unused by servers; carried for fidelity.
        totalcount: u32,
    },
    /// Unused WRITECACHE (void).
    Writecache,
    /// Write data.
    Write {
        /// The file.
        file: FileHandle,
        /// Unused "beginoffset".
        beginoffset: u32,
        /// Byte offset.
        offset: u32,
        /// Unused "totalcount".
        totalcount: u32,
        /// The data, borrowed from the argument bytes.
        data: &'a [u8],
    },
    /// Create a file.
    Create {
        /// Where to create.
        where_: DirOpView2<'a>,
        /// Initial attributes.
        attributes: Sattr2,
    },
    /// Remove a file.
    Remove(DirOpView2<'a>),
    /// Rename.
    Rename {
        /// Source.
        from: DirOpView2<'a>,
        /// Destination.
        to: DirOpView2<'a>,
    },
    /// Hard link.
    Link {
        /// Existing file.
        from: FileHandle,
        /// New entry.
        to: DirOpView2<'a>,
    },
    /// Create a symlink.
    Symlink {
        /// Where to create.
        where_: DirOpView2<'a>,
        /// Target path, borrowed from the argument bytes.
        target: &'a str,
        /// Attributes.
        attributes: Sattr2,
    },
    /// Create a directory.
    Mkdir {
        /// Where to create.
        where_: DirOpView2<'a>,
        /// Attributes.
        attributes: Sattr2,
    },
    /// Remove a directory.
    Rmdir(DirOpView2<'a>),
    /// List a directory.
    Readdir {
        /// The directory.
        dir: FileHandle,
        /// Opaque 4-byte resume cookie.
        cookie: u32,
        /// Maximum reply bytes.
        count: u32,
    },
    /// Filesystem statistics.
    Statfs(FileHandle),
}

impl<'a> Call2View<'a> {
    /// The procedure this call invokes.
    pub fn proc(&self) -> Proc2 {
        match self {
            Call2View::Null => Proc2::Null,
            Call2View::Getattr(_) => Proc2::Getattr,
            Call2View::Setattr { .. } => Proc2::Setattr,
            Call2View::Root => Proc2::Root,
            Call2View::Lookup(_) => Proc2::Lookup,
            Call2View::Readlink(_) => Proc2::Readlink,
            Call2View::Read { .. } => Proc2::Read,
            Call2View::Writecache => Proc2::Writecache,
            Call2View::Write { .. } => Proc2::Write,
            Call2View::Create { .. } => Proc2::Create,
            Call2View::Remove(_) => Proc2::Remove,
            Call2View::Rename { .. } => Proc2::Rename,
            Call2View::Link { .. } => Proc2::Link,
            Call2View::Symlink { .. } => Proc2::Symlink,
            Call2View::Mkdir { .. } => Proc2::Mkdir,
            Call2View::Rmdir(_) => Proc2::Rmdir,
            Call2View::Readdir { .. } => Proc2::Readdir,
            Call2View::Statfs(_) => Proc2::Statfs,
        }
    }

    /// Decodes call arguments for `proc` without copying names or data.
    ///
    /// # Errors
    ///
    /// Any XDR error for malformed arguments; fails exactly when
    /// [`Call2::decode`] fails.
    pub fn decode(proc: Proc2, args: &'a [u8]) -> Result<Self> {
        let mut dec = Decoder::new(args);
        let call = match proc {
            Proc2::Null => Call2View::Null,
            Proc2::Root => Call2View::Root,
            Proc2::Writecache => Call2View::Writecache,
            Proc2::Getattr => Call2View::Getattr(FileHandle::unpack_v2(&mut dec)?),
            Proc2::Setattr => Call2View::Setattr {
                file: FileHandle::unpack_v2(&mut dec)?,
                attributes: Sattr2::unpack(&mut dec)?,
            },
            Proc2::Lookup => Call2View::Lookup(dirop_view(&mut dec)?),
            Proc2::Readlink => Call2View::Readlink(FileHandle::unpack_v2(&mut dec)?),
            Proc2::Read => Call2View::Read {
                file: FileHandle::unpack_v2(&mut dec)?,
                offset: dec.get_u32()?,
                count: dec.get_u32()?,
                totalcount: dec.get_u32()?,
            },
            Proc2::Write => Call2View::Write {
                file: FileHandle::unpack_v2(&mut dec)?,
                beginoffset: dec.get_u32()?,
                offset: dec.get_u32()?,
                totalcount: dec.get_u32()?,
                data: dec.get_opaque_var_ref()?,
            },
            Proc2::Create => Call2View::Create {
                where_: dirop_view(&mut dec)?,
                attributes: Sattr2::unpack(&mut dec)?,
            },
            Proc2::Remove => Call2View::Remove(dirop_view(&mut dec)?),
            Proc2::Rename => Call2View::Rename {
                from: dirop_view(&mut dec)?,
                to: dirop_view(&mut dec)?,
            },
            Proc2::Link => Call2View::Link {
                from: FileHandle::unpack_v2(&mut dec)?,
                to: dirop_view(&mut dec)?,
            },
            Proc2::Symlink => Call2View::Symlink {
                where_: dirop_view(&mut dec)?,
                target: dec.get_str_ref()?,
                attributes: Sattr2::unpack(&mut dec)?,
            },
            Proc2::Mkdir => Call2View::Mkdir {
                where_: dirop_view(&mut dec)?,
                attributes: Sattr2::unpack(&mut dec)?,
            },
            Proc2::Rmdir => Call2View::Rmdir(dirop_view(&mut dec)?),
            Proc2::Readdir => Call2View::Readdir {
                dir: FileHandle::unpack_v2(&mut dec)?,
                cookie: dec.get_u32()?,
                count: dec.get_u32()?,
            },
            Proc2::Statfs => Call2View::Statfs(FileHandle::unpack_v2(&mut dec)?),
        };
        Ok(call)
    }

    /// Materializes the owned [`Call2`], copying names and data once.
    pub fn to_owned(self) -> Call2 {
        match self {
            Call2View::Null => Call2::Null,
            Call2View::Root => Call2::Root,
            Call2View::Writecache => Call2::Writecache,
            Call2View::Getattr(fh) => Call2::Getattr(fh),
            Call2View::Readlink(fh) => Call2::Readlink(fh),
            Call2View::Statfs(fh) => Call2::Statfs(fh),
            Call2View::Setattr { file, attributes } => Call2::Setattr { file, attributes },
            Call2View::Lookup(a) => Call2::Lookup(a.to_owned()),
            Call2View::Remove(a) => Call2::Remove(a.to_owned()),
            Call2View::Rmdir(a) => Call2::Rmdir(a.to_owned()),
            Call2View::Read {
                file,
                offset,
                count,
                totalcount,
            } => Call2::Read {
                file,
                offset,
                count,
                totalcount,
            },
            Call2View::Write {
                file,
                beginoffset,
                offset,
                totalcount,
                data,
            } => Call2::Write {
                file,
                beginoffset,
                offset,
                totalcount,
                data: data.to_vec(),
            },
            Call2View::Create { where_, attributes } => Call2::Create {
                where_: where_.to_owned(),
                attributes,
            },
            Call2View::Mkdir { where_, attributes } => Call2::Mkdir {
                where_: where_.to_owned(),
                attributes,
            },
            Call2View::Rename { from, to } => Call2::Rename {
                from: from.to_owned(),
                to: to.to_owned(),
            },
            Call2View::Link { from, to } => Call2::Link {
                from,
                to: to.to_owned(),
            },
            Call2View::Symlink {
                where_,
                target,
                attributes,
            } => Call2::Symlink {
                where_: where_.to_owned(),
                target: target.to_owned(),
                attributes,
            },
            Call2View::Readdir { dir, cookie, count } => Call2::Readdir { dir, cookie, count },
        }
    }
}

/// One NFSv2 `READDIR` entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirEntry2 {
    /// File id.
    pub fileid: u32,
    /// Name.
    pub name: String,
    /// Resume cookie.
    pub cookie: u32,
}

/// A decoded NFSv2 reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply2 {
    /// NULL, ROOT, WRITECACHE: void.
    Void,
    /// `attrstat`: GETATTR, SETATTR, WRITE.
    AttrStat {
        /// Status.
        status: NfsStat3,
        /// Attributes on success.
        attributes: Option<Fattr2>,
    },
    /// `diropres`: LOOKUP, CREATE, MKDIR.
    DirOpRes {
        /// Status.
        status: NfsStat3,
        /// New/found handle on success.
        file: Option<FileHandle>,
        /// Attributes on success.
        attributes: Option<Fattr2>,
    },
    /// READLINK result.
    Readlink {
        /// Status.
        status: NfsStat3,
        /// Target path on success.
        target: String,
    },
    /// READ result.
    Read {
        /// Status.
        status: NfsStat3,
        /// Attributes on success.
        attributes: Option<Fattr2>,
        /// Data on success.
        data: Vec<u8>,
    },
    /// Bare status: REMOVE, RENAME, LINK, SYMLINK, RMDIR.
    Stat(NfsStat3),
    /// READDIR result.
    Readdir {
        /// Status.
        status: NfsStat3,
        /// Entries on success.
        entries: Vec<DirEntry2>,
        /// Whether the listing completed.
        eof: bool,
    },
    /// STATFS result.
    Statfs {
        /// Status.
        status: NfsStat3,
        /// Transfer size, block size, total/free/available blocks.
        info: [u32; 5],
    },
}

impl Reply2 {
    /// The status of this reply (`Ok` for void replies).
    pub fn status(&self) -> NfsStat3 {
        match self {
            Reply2::Void => NfsStat3::Ok,
            Reply2::AttrStat { status, .. }
            | Reply2::DirOpRes { status, .. }
            | Reply2::Readlink { status, .. }
            | Reply2::Read { status, .. }
            | Reply2::Readdir { status, .. }
            | Reply2::Statfs { status, .. } => *status,
            Reply2::Stat(status) => *status,
        }
    }

    /// Encodes the reply results.
    pub fn encode_results(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Reply2::Void => {}
            Reply2::AttrStat { status, attributes } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    attributes.unwrap_or_default().pack(&mut enc);
                }
            }
            Reply2::DirOpRes {
                status,
                file,
                attributes,
            } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    file.clone().unwrap_or_default().pack_v2(&mut enc);
                    attributes.unwrap_or_default().pack(&mut enc);
                }
            }
            Reply2::Readlink { status, target } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    enc.put_string(target);
                }
            }
            Reply2::Read {
                status,
                attributes,
                data,
            } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    attributes.unwrap_or_default().pack(&mut enc);
                    enc.put_opaque_var(data);
                }
            }
            Reply2::Stat(status) => status.pack(&mut enc),
            Reply2::Readdir {
                status,
                entries,
                eof,
            } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    for e in entries {
                        enc.put_bool(true);
                        enc.put_u32(e.fileid);
                        enc.put_string(&e.name);
                        enc.put_u32(e.cookie);
                    }
                    enc.put_bool(false);
                    enc.put_bool(*eof);
                }
            }
            Reply2::Statfs { status, info } => {
                status.pack(&mut enc);
                if status.is_ok() {
                    for v in info {
                        enc.put_u32(*v);
                    }
                }
            }
        }
        enc.into_bytes()
    }

    /// Decodes reply results for `proc`.
    ///
    /// # Errors
    ///
    /// Any XDR error for malformed results.
    pub fn decode(proc: Proc2, results: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(results);
        let reply = match proc {
            Proc2::Null | Proc2::Root | Proc2::Writecache => Reply2::Void,
            Proc2::Getattr | Proc2::Setattr | Proc2::Write => {
                let status = NfsStat3::unpack(&mut dec)?;
                let attributes = if status.is_ok() {
                    Some(Fattr2::unpack(&mut dec)?)
                } else {
                    None
                };
                Reply2::AttrStat { status, attributes }
            }
            Proc2::Lookup | Proc2::Create | Proc2::Mkdir => {
                let status = NfsStat3::unpack(&mut dec)?;
                if status.is_ok() {
                    Reply2::DirOpRes {
                        status,
                        file: Some(FileHandle::unpack_v2(&mut dec)?),
                        attributes: Some(Fattr2::unpack(&mut dec)?),
                    }
                } else {
                    Reply2::DirOpRes {
                        status,
                        file: None,
                        attributes: None,
                    }
                }
            }
            Proc2::Readlink => {
                let status = NfsStat3::unpack(&mut dec)?;
                let target = if status.is_ok() {
                    dec.get_string()?
                } else {
                    String::new()
                };
                Reply2::Readlink { status, target }
            }
            Proc2::Read => {
                let status = NfsStat3::unpack(&mut dec)?;
                if status.is_ok() {
                    Reply2::Read {
                        status,
                        attributes: Some(Fattr2::unpack(&mut dec)?),
                        data: dec.get_opaque_var()?,
                    }
                } else {
                    Reply2::Read {
                        status,
                        attributes: None,
                        data: Vec::new(),
                    }
                }
            }
            Proc2::Remove | Proc2::Rename | Proc2::Link | Proc2::Symlink | Proc2::Rmdir => {
                Reply2::Stat(NfsStat3::unpack(&mut dec)?)
            }
            Proc2::Readdir => {
                let status = NfsStat3::unpack(&mut dec)?;
                if status.is_ok() {
                    let mut entries = Vec::new();
                    while dec.get_bool()? {
                        entries.push(DirEntry2 {
                            fileid: dec.get_u32()?,
                            name: dec.get_string()?,
                            cookie: dec.get_u32()?,
                        });
                    }
                    Reply2::Readdir {
                        status,
                        entries,
                        eof: dec.get_bool()?,
                    }
                } else {
                    Reply2::Readdir {
                        status,
                        entries: Vec::new(),
                        eof: false,
                    }
                }
            }
            Proc2::Statfs => {
                let status = NfsStat3::unpack(&mut dec)?;
                if status.is_ok() {
                    let mut info = [0u32; 5];
                    for v in &mut info {
                        *v = dec.get_u32()?;
                    }
                    Reply2::Statfs { status, info }
                } else {
                    Reply2::Statfs {
                        status,
                        info: [0; 5],
                    }
                }
            }
        };
        Ok(reply)
    }
}

/// The subset of an NFSv2 reply that flows into a flattened trace
/// record, decoded in one streaming pass with no heap allocation.
///
/// [`ReplyFacts2::decode`] consumes and validates a results body
/// exactly as [`Reply2::decode`] does — the same reads in the same
/// order, failing in the same cases — but borrows over read data,
/// symlink targets, and directory entries instead of materializing
/// them. `ret_count` is the returned data length for `READ` (v2 has no
/// count field; the flattener uses the payload length) and is left
/// `None` elsewhere — the v2 `WRITE` count and the inferred `READ` eof
/// are derived by the flattener from the call side plus `post_size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyFacts2 {
    /// Reply status.
    pub status: NfsStat3,
    /// Post-op file size.
    pub post_size: Option<u64>,
    /// Post-op file type.
    pub ftype: Option<Ftype3>,
    /// Returned data length (`READ` only; zero on error replies).
    pub ret_count: Option<u32>,
    /// Handle of a created or looked-up object.
    pub new_fh: Option<FileHandle>,
}

impl ReplyFacts2 {
    fn empty(status: NfsStat3) -> Self {
        ReplyFacts2 {
            status,
            post_size: None,
            ftype: None,
            ret_count: None,
            new_fh: None,
        }
    }

    fn post(&mut self, a: &Fattr2) {
        self.post_size = Some(u64::from(a.size));
        self.ftype = Some(a.ftype);
    }

    /// Decodes the facts for `proc` from an RPC results body.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Reply2::decode`] would fail on the same
    /// bytes.
    pub fn decode(proc: Proc2, results: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(results);
        let facts = match proc {
            Proc2::Null | Proc2::Root | Proc2::Writecache => Self::empty(NfsStat3::Ok),
            Proc2::Getattr | Proc2::Setattr | Proc2::Write => {
                let mut f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    let a = Fattr2::unpack(&mut dec)?;
                    f.post(&a);
                }
                f
            }
            Proc2::Lookup | Proc2::Create | Proc2::Mkdir => {
                let mut f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    f.new_fh = Some(FileHandle::unpack_v2(&mut dec)?);
                    let a = Fattr2::unpack(&mut dec)?;
                    f.post(&a);
                }
                f
            }
            Proc2::Readlink => {
                let f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    dec.get_str_ref()?;
                }
                f
            }
            Proc2::Read => {
                let mut f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    let a = Fattr2::unpack(&mut dec)?;
                    f.post(&a);
                    f.ret_count = Some(dec.get_opaque_var_ref()?.len() as u32);
                } else {
                    f.ret_count = Some(0);
                }
                f
            }
            Proc2::Remove | Proc2::Rename | Proc2::Link | Proc2::Symlink | Proc2::Rmdir => {
                Self::empty(NfsStat3::unpack(&mut dec)?)
            }
            Proc2::Readdir => {
                let f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    while dec.get_bool()? {
                        dec.get_u32()?;
                        dec.get_str_ref()?;
                        dec.get_u32()?;
                    }
                    dec.get_bool()?;
                }
                f
            }
            Proc2::Statfs => {
                let f = Self::empty(NfsStat3::unpack(&mut dec)?);
                if f.status.is_ok() {
                    for _ in 0..5 {
                        dec.get_u32()?;
                    }
                }
                f
            }
        };
        Ok(facts)
    }
}

/// How often narrowing a v3 message into v2's 32-bit fields had to
/// **saturate**. A cookie or file id past `u32::MAX` becomes `u32::MAX`
/// and counts here — never a silent `as u32` truncation, which would
/// fabricate a small, valid-looking cookie or file id out of a large
/// one. [`Call2::from_v3`] and [`Reply2::from_v3`] add to the tally
/// they are handed; where the counts end up (the simulated server's
/// own tally, the caller of the wire encoder's `build_rpc_pair`) is the
/// caller's business, so this crate needs no telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DowngradeStats {
    /// READDIR/READDIRPLUS cookies that exceeded 32 bits.
    pub saturated_cookies: u64,
    /// File ids and filesystem ids that exceeded 32 bits, in directory
    /// entries and in attributes alike.
    pub saturated_fileids: u64,
}

impl DowngradeStats {
    /// Total saturated narrowings.
    pub fn total(&self) -> u64 {
        self.saturated_cookies + self.saturated_fileids
    }
}

/// Narrows a 64-bit wire field to v2's 32 bits, saturating (and
/// counting) instead of truncating.
fn narrow32(v: u64, saturations: &mut u64) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| {
        *saturations += 1;
        u32::MAX
    })
}

/// Byte offsets and sizes past v2's 32 bits clamp to the largest one
/// v2 can name.
fn clamp32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Narrows v3 attributes to v2's: the size and block count clamp, and
/// the file id and filesystem id saturate and count in
/// `saturated_fileids` exactly as a directory entry's file id does — so
/// one id never reads `u32::MAX` in an entry and its low 32 bits in
/// that entry's attributes.
fn narrow_fattr(a: Fattr3, narrowed: &mut DowngradeStats) -> Fattr2 {
    let time = |t: NfsTime3| TimeVal2 {
        seconds: t.seconds,
        useconds: t.nseconds / 1000,
    };
    Fattr2 {
        ftype: a.ftype,
        mode: a.mode,
        nlink: a.nlink,
        uid: a.uid,
        gid: a.gid,
        size: clamp32(a.size),
        blocksize: 8192,
        rdev: a.rdev.0,
        blocks: clamp32(a.used / 512),
        fsid: narrow32(a.fsid, &mut narrowed.saturated_fileids),
        fileid: narrow32(a.fileid, &mut narrowed.saturated_fileids),
        atime: time(a.atime),
        mtime: time(a.mtime),
        ctime: time(a.ctime),
    }
}

fn dirop3(a: &DirOpArgs2) -> v3::DirOpArgs {
    v3::DirOpArgs {
        dir: a.dir.clone(),
        name: a.name.clone(),
    }
}

fn dirop2(a: &v3::DirOpArgs) -> DirOpArgs2 {
    DirOpArgs2 {
        dir: a.dir.clone(),
        name: a.name.clone(),
    }
}

/// How the two protocol versions correspond, call side. Together with
/// [`Reply2::from_v3`] this is the one statement of it: the wire
/// encoder narrows a v2-tagged client's v3 exchange with `from_v3`,
/// and the simulated server answers a v2 call by widening it with
/// [`Call2::to_v3`], serving the v3 call and narrowing the reply.
impl Call2 {
    /// Widens this call to the NFSv3 call that asks for the same thing:
    /// 32-bit offsets, counts and cookies become 64-bit, a set
    /// [`Sattr2::size_opt`] becomes a 64-bit size, `STATFS` becomes
    /// `FSSTAT`, `CREATE` becomes an `UNCHECKED` create, and the two
    /// procedures no server implements (`ROOT`, `WRITECACHE`) become
    /// `NULL`, whose void reply is theirs too.
    ///
    /// v3 has nowhere to put `beginoffset`, `totalcount` or the
    /// non-size [`Sattr2`] fields; they are dropped. Up to those,
    /// [`Call2::from_v3`] gives the call back.
    pub fn to_v3(&self) -> Call3 {
        let fh = |object: &FileHandle| v3::FhArgs {
            object: object.clone(),
        };
        match self {
            Call2::Null | Call2::Root | Call2::Writecache => Call3::Null,
            Call2::Getattr(f) => Call3::Getattr(fh(f)),
            Call2::Setattr { file, attributes } => Call3::Setattr(v3::Setattr3Args {
                object: file.clone(),
                new_attributes: Sattr3 {
                    size: attributes.size_opt().map(u64::from),
                    ..Sattr3::default()
                },
                guard_ctime: None,
            }),
            Call2::Lookup(a) => Call3::Lookup(dirop3(a)),
            Call2::Readlink(f) => Call3::Readlink(fh(f)),
            Call2::Read {
                file,
                offset,
                count,
                ..
            } => Call3::Read(v3::Read3Args {
                file: file.clone(),
                offset: u64::from(*offset),
                count: *count,
            }),
            // A v2 write is synchronous and as long as its payload.
            Call2::Write {
                file, offset, data, ..
            } => Call3::Write(v3::Write3Args {
                file: file.clone(),
                offset: u64::from(*offset),
                count: data.len() as u32,
                stable: v3::StableHow::FileSync,
                data: data.clone(),
            }),
            Call2::Create { where_, .. } => Call3::Create(v3::Create3Args {
                where_: dirop3(where_),
                how: v3::CreateHow::Unchecked,
                attributes: Sattr3::default(),
            }),
            Call2::Remove(a) => Call3::Remove(dirop3(a)),
            Call2::Rename { from, to } => Call3::Rename(v3::Rename3Args {
                from: dirop3(from),
                to: dirop3(to),
            }),
            Call2::Link { from, to } => Call3::Link(v3::Link3Args {
                file: from.clone(),
                link: dirop3(to),
            }),
            Call2::Symlink { where_, target, .. } => Call3::Symlink(v3::Symlink3Args {
                where_: dirop3(where_),
                attributes: Sattr3::default(),
                target: target.clone(),
            }),
            Call2::Mkdir { where_, .. } => Call3::Mkdir(v3::Mkdir3Args {
                where_: dirop3(where_),
                attributes: Sattr3::default(),
            }),
            Call2::Rmdir(a) => Call3::Rmdir(dirop3(a)),
            Call2::Readdir { dir, cookie, count } => Call3::Readdir(v3::Readdir3Args {
                dir: dir.clone(),
                cookie: u64::from(*cookie),
                cookieverf: [0; 8],
                count: *count,
            }),
            Call2::Statfs(f) => Call3::Fsstat(fh(f)),
        }
    }

    /// Narrows a v3 call to the v2 call a v2 client would have sent in
    /// its place. v3-only procedures fall back to their closest v2
    /// equivalent, mirroring how v2 clients actually behaved: `ACCESS`
    /// → `GETATTR`, `READDIRPLUS` → `READDIR`, `MKNOD` → `CREATE`,
    /// `FSINFO` / `PATHCONF` → `STATFS`, and `COMMIT` (v2 writes are
    /// synchronous) → the `NULL` ping. Offsets and sizes clamp to
    /// `u32::MAX`; READDIR cookies saturate and count in `narrowed`.
    pub fn from_v3(call: &Call3, narrowed: &mut DowngradeStats) -> Call2 {
        match call {
            Call3::Null => Call2::Null,
            Call3::Getattr(a) => Call2::Getattr(a.object.clone()),
            Call3::Readlink(a) => Call2::Readlink(a.object.clone()),
            // v2 has no ACCESS: clients issued GETATTR instead.
            Call3::Access(a) => Call2::Getattr(a.object.clone()),
            Call3::Fsstat(a) | Call3::Fsinfo(a) | Call3::Pathconf(a) => {
                Call2::Statfs(a.object.clone())
            }
            Call3::Setattr(a) => Call2::Setattr {
                file: a.object.clone(),
                attributes: Sattr2 {
                    size: a.new_attributes.size.map_or(u32::MAX, clamp32),
                    ..Sattr2::default()
                },
            },
            Call3::Lookup(a) => Call2::Lookup(dirop2(a)),
            Call3::Remove(a) => Call2::Remove(dirop2(a)),
            Call3::Rmdir(a) => Call2::Rmdir(dirop2(a)),
            Call3::Read(a) => Call2::Read {
                file: a.file.clone(),
                offset: clamp32(a.offset),
                count: a.count,
                totalcount: 0,
            },
            Call3::Write(a) => Call2::Write {
                file: a.file.clone(),
                beginoffset: 0,
                offset: clamp32(a.offset),
                totalcount: 0,
                data: a.data.clone(),
            },
            Call3::Create(a) => Call2::Create {
                where_: dirop2(&a.where_),
                attributes: Sattr2::default(),
            },
            Call3::Mkdir(a) => Call2::Mkdir {
                where_: dirop2(&a.where_),
                attributes: Sattr2::default(),
            },
            Call3::Symlink(a) => Call2::Symlink {
                where_: dirop2(&a.where_),
                target: a.target.clone(),
                attributes: Sattr2::default(),
            },
            Call3::Mknod(a) => Call2::Create {
                where_: dirop2(&a.where_),
                attributes: Sattr2::default(),
            },
            Call3::Rename(a) => Call2::Rename {
                from: dirop2(&a.from),
                to: dirop2(&a.to),
            },
            Call3::Link(a) => Call2::Link {
                from: a.file.clone(),
                to: dirop2(&a.link),
            },
            Call3::Readdir(a) => Call2::Readdir {
                dir: a.dir.clone(),
                cookie: narrow32(a.cookie, &mut narrowed.saturated_cookies),
                count: a.count,
            },
            Call3::Readdirplus(a) => Call2::Readdir {
                dir: a.dir.clone(),
                cookie: narrow32(a.cookie, &mut narrowed.saturated_cookies),
                count: a.maxcount,
            },
            // v2 has no COMMIT; a null ping is the closest no-op.
            Call3::Commit(_) => Call2::Null,
        }
    }
}

impl Reply2 {
    /// Narrows a v3 reply to the v2 reply for the narrowed call
    /// ([`Call2::from_v3`] of the call it answers): the reply decodes
    /// under that call's procedure. The post-op attributes a v3 error
    /// reply may still carry are dropped — a v2 error is its status
    /// alone. File ids, filesystem ids and cookies saturate and count in
    /// `narrowed`; `STATFS` reports one fixed filesystem geometry
    /// whichever of `FSSTAT` / `FSINFO` / `PATHCONF` it stands in for.
    pub fn from_v3(reply: &Reply3, narrowed: &mut DowngradeStats) -> Reply2 {
        let status = reply.status;
        let mut attr = |a: Option<Fattr3>| {
            a.filter(|_| status.is_ok())
                .map(|a| narrow_fattr(a, &mut *narrowed))
        };
        let entry =
            |fileid: u64, name: &str, cookie: u64, narrowed: &mut DowngradeStats| DirEntry2 {
                fileid: narrow32(fileid, &mut narrowed.saturated_fileids),
                name: name.to_owned(),
                cookie: narrow32(cookie, &mut narrowed.saturated_cookies),
            };
        match &reply.body {
            Reply3Body::Null | Reply3Body::Commit(_) => Reply2::Void,
            Reply3Body::Getattr(res) => Reply2::AttrStat {
                status,
                attributes: attr(res.attributes),
            },
            Reply3Body::Access(res) => Reply2::AttrStat {
                status,
                attributes: attr(res.obj_attributes),
            },
            Reply3Body::Setattr(res) => Reply2::AttrStat {
                status,
                attributes: attr(res.wcc.after),
            },
            Reply3Body::Write(res) => Reply2::AttrStat {
                status,
                attributes: attr(res.wcc.after),
            },
            Reply3Body::Lookup(res) => Reply2::DirOpRes {
                status,
                file: res.object.clone(),
                attributes: attr(res.obj_attributes),
            },
            Reply3Body::Create(res) | Reply3Body::Mkdir(res) | Reply3Body::Mknod(res) => {
                Reply2::DirOpRes {
                    status,
                    file: res.obj.clone(),
                    attributes: attr(res.obj_attributes),
                }
            }
            Reply3Body::Readlink(res) => Reply2::Readlink {
                status,
                target: res.target.clone(),
            },
            Reply3Body::Read(res) => Reply2::Read {
                status,
                attributes: attr(res.file_attributes),
                data: res.data.clone(),
            },
            Reply3Body::Symlink(_)
            | Reply3Body::Remove(_)
            | Reply3Body::Rmdir(_)
            | Reply3Body::Rename(_)
            | Reply3Body::Link(_) => Reply2::Stat(status),
            Reply3Body::Readdir(res) => Reply2::Readdir {
                status,
                entries: res
                    .entries
                    .iter()
                    .map(|e| entry(e.fileid, &e.name, e.cookie, narrowed))
                    .collect(),
                eof: res.eof,
            },
            Reply3Body::Readdirplus(res) => Reply2::Readdir {
                status,
                entries: res
                    .entries
                    .iter()
                    .map(|e| entry(e.fileid, &e.name, e.cookie, narrowed))
                    .collect(),
                eof: res.eof,
            },
            Reply3Body::Fsstat(_) | Reply3Body::Fsinfo(_) | Reply3Body::Pathconf(_) => {
                Reply2::Statfs {
                    status,
                    info: if status.is_ok() {
                        [8192, 8192, 6_400_000, 2_400_000, 2_400_000]
                    } else {
                        [0; 5]
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_call(call: Call2) {
        let bytes = call.encode_args();
        assert_eq!(Call2::decode(call.proc(), &bytes).unwrap(), call);
    }

    fn roundtrip_reply(proc: Proc2, reply: Reply2) {
        let bytes = reply.encode_results();
        assert_eq!(Reply2::decode(proc, &bytes).unwrap(), reply);
    }

    #[test]
    fn proc_numbers_match_rfc() {
        assert_eq!(Proc2::Read.as_u32(), 6);
        assert_eq!(Proc2::Write.as_u32(), 8);
        assert_eq!(Proc2::Statfs.as_u32(), 17);
        for p in Proc2::ALL {
            assert_eq!(Proc2::from_u32(p.as_u32()).unwrap(), p);
        }
        assert!(Proc2::from_u32(18).is_err());
    }

    #[test]
    fn calls_roundtrip() {
        roundtrip_call(Call2::Null);
        roundtrip_call(Call2::Getattr(FileHandle::from_u64(1)));
        roundtrip_call(Call2::Setattr {
            file: FileHandle::from_u64(2),
            attributes: Sattr2 {
                size: 0,
                ..Sattr2::default()
            },
        });
        roundtrip_call(Call2::Lookup(DirOpArgs2 {
            dir: FileHandle::from_u64(3),
            name: ".cshrc".into(),
        }));
        roundtrip_call(Call2::Read {
            file: FileHandle::from_u64(4),
            offset: 8192,
            count: 8192,
            totalcount: 0,
        });
        roundtrip_call(Call2::Write {
            file: FileHandle::from_u64(5),
            beginoffset: 0,
            offset: 16384,
            totalcount: 0,
            data: vec![7; 100],
        });
        roundtrip_call(Call2::Create {
            where_: DirOpArgs2 {
                dir: FileHandle::from_u64(6),
                name: "core.12345".into(),
            },
            attributes: Sattr2::default(),
        });
        roundtrip_call(Call2::Rename {
            from: DirOpArgs2 {
                dir: FileHandle::from_u64(7),
                name: "a".into(),
            },
            to: DirOpArgs2 {
                dir: FileHandle::from_u64(7),
                name: "b".into(),
            },
        });
        roundtrip_call(Call2::Link {
            from: FileHandle::from_u64(8),
            to: DirOpArgs2 {
                dir: FileHandle::from_u64(9),
                name: "ln".into(),
            },
        });
        roundtrip_call(Call2::Symlink {
            where_: DirOpArgs2 {
                dir: FileHandle::from_u64(10),
                name: "sl".into(),
            },
            target: "/tmp/x".into(),
            attributes: Sattr2::default(),
        });
        roundtrip_call(Call2::Readdir {
            dir: FileHandle::from_u64(11),
            cookie: 0,
            count: 4096,
        });
        roundtrip_call(Call2::Statfs(FileHandle::from_u64(12)));
        roundtrip_call(Call2::Remove(DirOpArgs2 {
            dir: FileHandle::from_u64(13),
            name: "#tmp#".into(),
        }));
        roundtrip_call(Call2::Rmdir(DirOpArgs2 {
            dir: FileHandle::from_u64(14),
            name: "dir".into(),
        }));
        roundtrip_call(Call2::Mkdir {
            where_: DirOpArgs2 {
                dir: FileHandle::from_u64(15),
                name: "CVS".into(),
            },
            attributes: Sattr2::default(),
        });
        roundtrip_call(Call2::Readlink(FileHandle::from_u64(16)));
    }

    #[test]
    fn replies_roundtrip() {
        roundtrip_reply(Proc2::Null, Reply2::Void);
        roundtrip_reply(
            Proc2::Getattr,
            Reply2::AttrStat {
                status: NfsStat3::Ok,
                attributes: Some(Fattr2 {
                    size: 100,
                    fileid: 5,
                    ..Fattr2::default()
                }),
            },
        );
        roundtrip_reply(
            Proc2::Getattr,
            Reply2::AttrStat {
                status: NfsStat3::Stale,
                attributes: None,
            },
        );
        roundtrip_reply(
            Proc2::Lookup,
            Reply2::DirOpRes {
                status: NfsStat3::Ok,
                file: Some(FileHandle::from_u64(44)),
                attributes: Some(Fattr2::default()),
            },
        );
        roundtrip_reply(
            Proc2::Read,
            Reply2::Read {
                status: NfsStat3::Ok,
                attributes: Some(Fattr2::default()),
                data: vec![0; 1024],
            },
        );
        roundtrip_reply(Proc2::Remove, Reply2::Stat(NfsStat3::Ok));
        roundtrip_reply(
            Proc2::Readdir,
            Reply2::Readdir {
                status: NfsStat3::Ok,
                entries: vec![DirEntry2 {
                    fileid: 1,
                    name: "inbox".into(),
                    cookie: 1,
                }],
                eof: true,
            },
        );
        roundtrip_reply(
            Proc2::Statfs,
            Reply2::Statfs {
                status: NfsStat3::Ok,
                info: [8192, 8192, 1000000, 500000, 500000],
            },
        );
    }

    #[test]
    fn fattr2_from_fattr3_clamps_size() {
        let big = Fattr3 {
            size: u64::from(u32::MAX) + 10,
            used: u64::MAX,
            fileid: (3 << 32) | 7,
            fsid: 1,
            ..Fattr3::default()
        };
        let mut narrowed = DowngradeStats::default();
        let v2 = narrow_fattr(big, &mut narrowed);
        assert_eq!((v2.size, v2.blocks), (u32::MAX, u32::MAX));
        assert_eq!(
            (v2.fileid, v2.fsid),
            (u32::MAX, 1),
            "saturated, not truncated to 7"
        );
        assert_eq!(narrowed.saturated_fileids, 1);
    }

    #[test]
    fn sattr2_size_option() {
        assert_eq!(Sattr2::default().size_opt(), None);
        let s = Sattr2 {
            size: 0,
            ..Sattr2::default()
        };
        assert_eq!(s.size_opt(), Some(0));
    }

    fn sample_calls() -> Vec<Call2> {
        vec![
            Call2::Null,
            Call2::Getattr(FileHandle::from_u64(1)),
            Call2::Setattr {
                file: FileHandle::from_u64(2),
                attributes: Sattr2 {
                    size: 0,
                    ..Sattr2::default()
                },
            },
            Call2::Root,
            Call2::Lookup(DirOpArgs2 {
                dir: FileHandle::from_u64(3),
                name: ".cshrc".into(),
            }),
            Call2::Readlink(FileHandle::from_u64(13)),
            Call2::Writecache,
            Call2::Read {
                file: FileHandle::from_u64(4),
                offset: 8192,
                count: 8192,
                totalcount: 0,
            },
            Call2::Write {
                file: FileHandle::from_u64(5),
                beginoffset: 0,
                offset: 16384,
                totalcount: 0,
                data: vec![7; 100],
            },
            Call2::Create {
                where_: DirOpArgs2 {
                    dir: FileHandle::from_u64(6),
                    name: "core.12345".into(),
                },
                attributes: Sattr2::default(),
            },
            Call2::Remove(DirOpArgs2 {
                dir: FileHandle::from_u64(6),
                name: "core.12345".into(),
            }),
            Call2::Rename {
                from: DirOpArgs2 {
                    dir: FileHandle::from_u64(7),
                    name: "a".into(),
                },
                to: DirOpArgs2 {
                    dir: FileHandle::from_u64(7),
                    name: "b".into(),
                },
            },
            Call2::Link {
                from: FileHandle::from_u64(8),
                to: DirOpArgs2 {
                    dir: FileHandle::from_u64(9),
                    name: "ln".into(),
                },
            },
            Call2::Symlink {
                where_: DirOpArgs2 {
                    dir: FileHandle::from_u64(10),
                    name: "sl".into(),
                },
                target: "/tmp/x".into(),
                attributes: Sattr2::default(),
            },
            Call2::Mkdir {
                where_: DirOpArgs2 {
                    dir: FileHandle::from_u64(14),
                    name: "CVS".into(),
                },
                attributes: Sattr2 {
                    mode: 0o755,
                    ..Sattr2::default()
                },
            },
            Call2::Rmdir(DirOpArgs2 {
                dir: FileHandle::from_u64(14),
                name: "CVS".into(),
            }),
            Call2::Readdir {
                dir: FileHandle::from_u64(11),
                cookie: 0,
                count: 4096,
            },
            Call2::Statfs(FileHandle::from_u64(12)),
        ]
    }

    #[test]
    fn call_view_matches_owned_decode_and_borrows() {
        for call in sample_calls() {
            let bytes = call.encode_args();
            let view = Call2View::decode(call.proc(), &bytes).unwrap();
            assert_eq!(view.proc(), call.proc());
            if let Call2View::Write { data, .. } = &view {
                assert!(bytes.as_ptr_range().contains(&data.as_ptr()));
            }
            assert_eq!(view.to_owned(), call);
            for cut in 0..bytes.len() {
                let owned = Call2::decode(call.proc(), &bytes[..cut]);
                let view = Call2View::decode(call.proc(), &bytes[..cut]);
                assert_eq!(owned.is_ok(), view.is_ok(), "{:?} cut {cut}", call.proc());
                assert_eq!(owned.err(), view.err());
            }
        }
    }

    fn sample_replies() -> Vec<(Proc2, Reply2)> {
        let attrs = Fattr2 {
            size: 4096,
            fileid: 5,
            ..Fattr2::default()
        };
        vec![
            (Proc2::Null, Reply2::Void),
            (
                Proc2::Getattr,
                Reply2::AttrStat {
                    status: NfsStat3::Ok,
                    attributes: Some(attrs),
                },
            ),
            (
                Proc2::Getattr,
                Reply2::AttrStat {
                    status: NfsStat3::Stale,
                    attributes: None,
                },
            ),
            (
                Proc2::Write,
                Reply2::AttrStat {
                    status: NfsStat3::Ok,
                    attributes: Some(attrs),
                },
            ),
            (
                Proc2::Lookup,
                Reply2::DirOpRes {
                    status: NfsStat3::Ok,
                    file: Some(FileHandle::from_u64(44)),
                    attributes: Some(attrs),
                },
            ),
            (
                Proc2::Create,
                Reply2::DirOpRes {
                    status: NfsStat3::NoEnt,
                    file: None,
                    attributes: None,
                },
            ),
            (
                Proc2::Readlink,
                Reply2::Readlink {
                    status: NfsStat3::Ok,
                    target: "/tmp/x".into(),
                },
            ),
            (
                Proc2::Read,
                Reply2::Read {
                    status: NfsStat3::Ok,
                    attributes: Some(attrs),
                    data: vec![0; 1024],
                },
            ),
            (
                Proc2::Read,
                Reply2::Read {
                    status: NfsStat3::Io,
                    attributes: None,
                    data: Vec::new(),
                },
            ),
            (
                Proc2::Setattr,
                Reply2::AttrStat {
                    status: NfsStat3::Ok,
                    attributes: Some(attrs),
                },
            ),
            (Proc2::Root, Reply2::Void),
            (Proc2::Writecache, Reply2::Void),
            (
                Proc2::Mkdir,
                Reply2::DirOpRes {
                    status: NfsStat3::Ok,
                    file: Some(FileHandle::from_u64(45)),
                    attributes: Some(attrs),
                },
            ),
            (Proc2::Remove, Reply2::Stat(NfsStat3::Ok)),
            (Proc2::Rename, Reply2::Stat(NfsStat3::Stale)),
            (Proc2::Link, Reply2::Stat(NfsStat3::Ok)),
            (Proc2::Symlink, Reply2::Stat(NfsStat3::Access)),
            (Proc2::Rmdir, Reply2::Stat(NfsStat3::NotEmpty)),
            (
                Proc2::Readdir,
                Reply2::Readdir {
                    status: NfsStat3::Ok,
                    entries: vec![
                        DirEntry2 {
                            fileid: 1,
                            name: "inbox".into(),
                            cookie: 1,
                        },
                        DirEntry2 {
                            fileid: 2,
                            name: "sent-mail".into(),
                            cookie: 2,
                        },
                    ],
                    eof: true,
                },
            ),
            (
                Proc2::Statfs,
                Reply2::Statfs {
                    status: NfsStat3::Ok,
                    info: [8192, 8192, 1_000_000, 500_000, 500_000],
                },
            ),
        ]
    }

    /// Test-local mirror of the canonical flattener's v2 reply mapping.
    fn facts_of(reply: &Reply2) -> ReplyFacts2 {
        let mut f = ReplyFacts2 {
            status: reply.status(),
            post_size: None,
            ftype: None,
            ret_count: None,
            new_fh: None,
        };
        match reply {
            Reply2::AttrStat {
                attributes: Some(a),
                ..
            } => {
                f.post_size = Some(u64::from(a.size));
                f.ftype = Some(a.ftype);
            }
            Reply2::DirOpRes {
                file, attributes, ..
            } => {
                f.new_fh = file.clone();
                if let Some(a) = attributes {
                    f.post_size = Some(u64::from(a.size));
                    f.ftype = Some(a.ftype);
                }
            }
            Reply2::Read {
                attributes, data, ..
            } => {
                f.ret_count = Some(data.len() as u32);
                if let Some(a) = attributes {
                    f.post_size = Some(u64::from(a.size));
                    f.ftype = Some(a.ftype);
                }
            }
            _ => {}
        }
        f
    }

    #[test]
    fn facts_decode_matches_full_decode() {
        for (proc, reply) in sample_replies() {
            let bytes = reply.encode_results();
            let full = Reply2::decode(proc, &bytes).unwrap();
            let facts = ReplyFacts2::decode(proc, &bytes).unwrap();
            assert_eq!(facts, facts_of(&full), "{proc:?}");
        }
    }

    #[test]
    fn facts_decode_fails_exactly_when_full_decode_fails() {
        for (proc, reply) in sample_replies() {
            let bytes = reply.encode_results();
            for cut in 0..bytes.len() {
                let facts = ReplyFacts2::decode(proc, &bytes[..cut]);
                let full = Reply2::decode(proc, &bytes[..cut]);
                match (facts, full) {
                    (Ok(f), Ok(r)) => assert_eq!(f, facts_of(&r), "{proc:?} cut {cut}"),
                    (Err(fe), Err(re)) => assert_eq!(fe, re, "{proc:?} cut {cut}"),
                    (f, r) => panic!("{proc:?} cut {cut}: facts {f:?} vs full {r:?}"),
                }
            }
        }
    }

    /// `encode ∘ decode == id` over every one of the 18 v2 procedures,
    /// calls and replies both, plus the truncation sweep: any strict
    /// prefix of a canonical encoding either fails to decode or decodes
    /// to a value whose re-encoding is exactly that prefix.
    #[test]
    fn every_procedure_roundtrips_and_survives_truncation() {
        let calls = sample_calls();
        let replies = sample_replies();
        for proc in Proc2::ALL {
            assert!(
                calls.iter().any(|c| c.proc() == proc),
                "{proc:?} has no call sample"
            );
            assert!(
                replies.iter().any(|(p, _)| *p == proc),
                "{proc:?} has no reply sample"
            );
        }
        for call in calls {
            let proc = call.proc();
            let bytes = call.encode_args();
            assert_eq!(Call2::decode(proc, &bytes).unwrap(), call, "{proc:?}");
            for cut in 0..bytes.len() {
                if let Ok(got) = Call2::decode(proc, &bytes[..cut]) {
                    assert_eq!(got.encode_args(), &bytes[..cut], "{proc:?} cut {cut}");
                }
            }
        }
        for (proc, reply) in replies {
            let bytes = reply.encode_results();
            assert_eq!(Reply2::decode(proc, &bytes).unwrap(), reply, "{proc:?}");
            for cut in 0..bytes.len() {
                if let Ok(got) = Reply2::decode(proc, &bytes[..cut]) {
                    assert_eq!(got.encode_results(), &bytes[..cut], "{proc:?} cut {cut}");
                }
            }
        }
    }

    /// Every v3 sample exchange, ok and error, narrowed: the call and
    /// the reply agree on the procedure — the reply encodes, decodes
    /// under the *narrowed call's* procedure to itself, and the
    /// streaming decoder accepts it. (READLINK once went out as a
    /// GETATTR call answered by a READLINK-shaped body, which the
    /// sniffer dropped.)
    #[test]
    fn narrowed_replies_decode_under_the_narrowed_calls_procedure() {
        let calls = v3::sample_calls();
        let mut narrowed = DowngradeStats::default();
        for (proc3, reply3) in v3::sample_replies() {
            let call3 = calls
                .iter()
                .find(|c| c.proc() == proc3)
                .expect("every procedure has a sample call");
            let call2 = Call2::from_v3(call3, &mut narrowed);
            let reply2 = Reply2::from_v3(&reply3, &mut narrowed);
            let proc2 = call2.proc();
            let ctx = format!("{proc3:?} ({:?}) as {proc2:?}", reply3.status);
            roundtrip_call(call2);
            let bytes = reply2.encode_results();
            assert_eq!(Reply2::decode(proc2, &bytes), Ok(reply2.clone()), "{ctx}");
            assert_eq!(
                ReplyFacts2::decode(proc2, &bytes),
                Ok(facts_of(&reply2)),
                "{ctx}"
            );
        }
        assert_eq!(narrowed.total(), 0, "no sample is wider than 32 bits");
    }

    /// Narrowing undoes widening, up to what v3 has nowhere to put:
    /// `beginoffset`, `totalcount`, the non-size `Sattr2` fields (all
    /// of them on the create family), and the two void procedures that
    /// widen to NULL.
    #[test]
    fn widening_then_narrowing_gives_the_call_back() {
        let fh = FileHandle::from_u64(4);
        let unset = Sattr2::default();
        let mut narrowed = DowngradeStats::default();
        let mut back = |call: &Call2| Call2::from_v3(&call.to_v3(), &mut narrowed);
        for call in sample_calls() {
            let want = match call.clone() {
                Call2::Root | Call2::Writecache => Call2::Null,
                Call2::Mkdir { where_, .. } => Call2::Mkdir {
                    where_,
                    attributes: unset,
                },
                carried_whole => carried_whole,
            };
            assert_eq!(back(&call), want, "{call:?}");
        }
        // The widest values a v2 field holds come back exactly; the
        // fields no sample sets come back zeroed or unset.
        let read = |totalcount| Call2::Read {
            file: fh.clone(),
            offset: u32::MAX,
            count: u32::MAX,
            totalcount,
        };
        assert_eq!(back(&read(99)), read(0));
        let write = |beginoffset, totalcount| Call2::Write {
            file: fh.clone(),
            beginoffset,
            offset: u32::MAX,
            totalcount,
            data: vec![1, 2],
        };
        assert_eq!(back(&write(3, 5)), write(0, 0));
        let setattr = |mode| Call2::Setattr {
            file: fh.clone(),
            attributes: Sattr2 {
                mode,
                size: u32::MAX - 1,
                ..unset
            },
        };
        assert_eq!(back(&setattr(0o600)), setattr(u32::MAX));
        let readdir = Call2::Readdir {
            dir: fh.clone(),
            cookie: u32::MAX,
            count: 512,
        };
        assert_eq!(back(&readdir), readdir);
        assert_eq!(narrowed.total(), 0, "a widened v2 field always fits back");
    }
}
