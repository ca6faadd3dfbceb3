//! NFSv3 call arguments for all 22 procedures.

use super::Proc3;
use crate::fh::FileHandle;
use crate::types::Sattr3;
use nfstrace_xdr::{Decoder, Encoder, Error, Pack, Result, Unpack};

/// `GETATTR`, `READLINK`, `FSSTAT`, `FSINFO`, `PATHCONF` take just a handle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FhArgs {
    /// The object.
    pub object: FileHandle,
}

/// `SETATTR` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Setattr3Args {
    /// The object.
    pub object: FileHandle,
    /// Attributes to set (a set `size` is a truncate/extend).
    pub new_attributes: Sattr3,
    /// Guard ctime: the set only applies if the object's ctime matches.
    pub guard_ctime: Option<crate::types::NfsTime3>,
}

/// `LOOKUP`, `REMOVE`, `RMDIR` arguments: a directory and a name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirOpArgs {
    /// The directory.
    pub dir: FileHandle,
    /// The name within the directory.
    pub name: String,
}

/// `ACCESS` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Access3Args {
    /// The object.
    pub object: FileHandle,
    /// Requested access bits (READ=0x1, LOOKUP=0x2, MODIFY=0x4,
    /// EXTEND=0x8, DELETE=0x10, EXECUTE=0x20).
    pub access: u32,
}

/// `READ` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Read3Args {
    /// The file.
    pub file: FileHandle,
    /// Starting byte offset.
    pub offset: u64,
    /// Bytes requested.
    pub count: u32,
}

/// How the server must commit a `WRITE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StableHow {
    /// May be cached.
    #[default]
    Unstable,
    /// Data must be on stable storage.
    DataSync,
    /// Data and metadata must be on stable storage.
    FileSync,
}

impl StableHow {
    fn as_u32(self) -> u32 {
        match self {
            StableHow::Unstable => 0,
            StableHow::DataSync => 1,
            StableHow::FileSync => 2,
        }
    }

    fn from_u32(v: u32) -> Result<Self> {
        Ok(match v {
            0 => StableHow::Unstable,
            1 => StableHow::DataSync,
            2 => StableHow::FileSync,
            other => {
                return Err(Error::InvalidDiscriminant {
                    what: "stable_how",
                    value: other,
                })
            }
        })
    }
}

/// `WRITE` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Write3Args {
    /// The file.
    pub file: FileHandle,
    /// Starting byte offset.
    pub offset: u64,
    /// Bytes in `data` the server should write.
    pub count: u32,
    /// Commitment level.
    pub stable: StableHow,
    /// The data. In the simulator this is a zero-filled buffer of the
    /// right length so wire sizes are faithful.
    pub data: Vec<u8>,
}

/// How `CREATE` treats an existing file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CreateHow {
    /// Create or truncate, applying the attributes.
    #[default]
    Unchecked,
    /// Fail if the name exists.
    Guarded,
    /// Exclusive create keyed by an 8-byte verifier.
    Exclusive([u8; 8]),
}

/// `CREATE` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Create3Args {
    /// Where to create.
    pub where_: DirOpArgs,
    /// Creation semantics.
    pub how: CreateHow,
    /// Initial attributes (unchecked/guarded modes).
    pub attributes: Sattr3,
}

/// `MKDIR` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mkdir3Args {
    /// Where to create.
    pub where_: DirOpArgs,
    /// Initial attributes.
    pub attributes: Sattr3,
}

/// `SYMLINK` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Symlink3Args {
    /// Where to create.
    pub where_: DirOpArgs,
    /// Attributes of the link itself.
    pub attributes: Sattr3,
    /// Link target path.
    pub target: String,
}

/// `MKNOD` arguments (device nodes reduced to their type + attrs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mknod3Args {
    /// Where to create.
    pub where_: DirOpArgs,
    /// Node type (as `ftype3` wire value).
    pub node_type: u32,
    /// Attributes.
    pub attributes: Sattr3,
}

/// `RENAME` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rename3Args {
    /// Source directory and name.
    pub from: DirOpArgs,
    /// Destination directory and name.
    pub to: DirOpArgs,
}

/// `LINK` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Link3Args {
    /// Existing file.
    pub file: FileHandle,
    /// New directory entry to create.
    pub link: DirOpArgs,
}

/// `READDIR` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readdir3Args {
    /// The directory.
    pub dir: FileHandle,
    /// Resume cookie (0 to start).
    pub cookie: u64,
    /// Cookie verifier from a previous call.
    pub cookieverf: [u8; 8],
    /// Maximum reply size in bytes.
    pub count: u32,
}

/// `READDIRPLUS` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readdirplus3Args {
    /// The directory.
    pub dir: FileHandle,
    /// Resume cookie.
    pub cookie: u64,
    /// Cookie verifier.
    pub cookieverf: [u8; 8],
    /// Maximum bytes of directory information.
    pub dircount: u32,
    /// Maximum total reply size.
    pub maxcount: u32,
}

/// `COMMIT` arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Commit3Args {
    /// The file.
    pub file: FileHandle,
    /// Start of the range to commit.
    pub offset: u64,
    /// Length of the range (0 = to end).
    pub count: u32,
}

/// A decoded NFSv3 call: one variant per procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call3 {
    /// NULL ping.
    Null,
    /// Get attributes.
    Getattr(FhArgs),
    /// Set attributes.
    Setattr(Setattr3Args),
    /// Name lookup.
    Lookup(DirOpArgs),
    /// Access check.
    Access(Access3Args),
    /// Read symlink target.
    Readlink(FhArgs),
    /// Read file data.
    Read(Read3Args),
    /// Write file data.
    Write(Write3Args),
    /// Create file.
    Create(Create3Args),
    /// Create directory.
    Mkdir(Mkdir3Args),
    /// Create symlink.
    Symlink(Symlink3Args),
    /// Create special node.
    Mknod(Mknod3Args),
    /// Remove file.
    Remove(DirOpArgs),
    /// Remove directory.
    Rmdir(DirOpArgs),
    /// Rename.
    Rename(Rename3Args),
    /// Hard link.
    Link(Link3Args),
    /// Read directory.
    Readdir(Readdir3Args),
    /// Read directory plus attributes.
    Readdirplus(Readdirplus3Args),
    /// File system statistics.
    Fsstat(FhArgs),
    /// File system information.
    Fsinfo(FhArgs),
    /// Pathconf information.
    Pathconf(FhArgs),
    /// Commit written data.
    Commit(Commit3Args),
}

impl Call3 {
    /// The procedure this call invokes.
    pub fn proc(&self) -> Proc3 {
        match self {
            Call3::Null => Proc3::Null,
            Call3::Getattr(_) => Proc3::Getattr,
            Call3::Setattr(_) => Proc3::Setattr,
            Call3::Lookup(_) => Proc3::Lookup,
            Call3::Access(_) => Proc3::Access,
            Call3::Readlink(_) => Proc3::Readlink,
            Call3::Read(_) => Proc3::Read,
            Call3::Write(_) => Proc3::Write,
            Call3::Create(_) => Proc3::Create,
            Call3::Mkdir(_) => Proc3::Mkdir,
            Call3::Symlink(_) => Proc3::Symlink,
            Call3::Mknod(_) => Proc3::Mknod,
            Call3::Remove(_) => Proc3::Remove,
            Call3::Rmdir(_) => Proc3::Rmdir,
            Call3::Rename(_) => Proc3::Rename,
            Call3::Link(_) => Proc3::Link,
            Call3::Readdir(_) => Proc3::Readdir,
            Call3::Readdirplus(_) => Proc3::Readdirplus,
            Call3::Fsstat(_) => Proc3::Fsstat,
            Call3::Fsinfo(_) => Proc3::Fsinfo,
            Call3::Pathconf(_) => Proc3::Pathconf,
            Call3::Commit(_) => Proc3::Commit,
        }
    }

    /// Encodes the procedure arguments (the RPC call body's args field).
    pub fn encode_args(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Call3::Null => {}
            Call3::Getattr(a)
            | Call3::Readlink(a)
            | Call3::Fsstat(a)
            | Call3::Fsinfo(a)
            | Call3::Pathconf(a) => a.object.pack(&mut enc),
            Call3::Setattr(a) => {
                a.object.pack(&mut enc);
                a.new_attributes.pack(&mut enc);
                a.guard_ctime.pack(&mut enc);
            }
            Call3::Lookup(a) | Call3::Remove(a) | Call3::Rmdir(a) => {
                a.dir.pack(&mut enc);
                enc.put_string(&a.name);
            }
            Call3::Access(a) => {
                a.object.pack(&mut enc);
                enc.put_u32(a.access);
            }
            Call3::Read(a) => {
                a.file.pack(&mut enc);
                enc.put_u64(a.offset);
                enc.put_u32(a.count);
            }
            Call3::Write(a) => {
                a.file.pack(&mut enc);
                enc.put_u64(a.offset);
                enc.put_u32(a.count);
                enc.put_u32(a.stable.as_u32());
                enc.put_opaque_var(&a.data);
            }
            Call3::Create(a) => {
                a.where_.dir.pack(&mut enc);
                enc.put_string(&a.where_.name);
                match &a.how {
                    CreateHow::Unchecked => {
                        enc.put_u32(0);
                        a.attributes.pack(&mut enc);
                    }
                    CreateHow::Guarded => {
                        enc.put_u32(1);
                        a.attributes.pack(&mut enc);
                    }
                    CreateHow::Exclusive(verf) => {
                        enc.put_u32(2);
                        enc.put_opaque_fixed(verf);
                    }
                }
            }
            Call3::Mkdir(a) => {
                a.where_.dir.pack(&mut enc);
                enc.put_string(&a.where_.name);
                a.attributes.pack(&mut enc);
            }
            Call3::Symlink(a) => {
                a.where_.dir.pack(&mut enc);
                enc.put_string(&a.where_.name);
                a.attributes.pack(&mut enc);
                enc.put_string(&a.target);
            }
            Call3::Mknod(a) => {
                a.where_.dir.pack(&mut enc);
                enc.put_string(&a.where_.name);
                enc.put_u32(a.node_type);
                a.attributes.pack(&mut enc);
            }
            Call3::Rename(a) => {
                a.from.dir.pack(&mut enc);
                enc.put_string(&a.from.name);
                a.to.dir.pack(&mut enc);
                enc.put_string(&a.to.name);
            }
            Call3::Link(a) => {
                a.file.pack(&mut enc);
                a.link.dir.pack(&mut enc);
                enc.put_string(&a.link.name);
            }
            Call3::Readdir(a) => {
                a.dir.pack(&mut enc);
                enc.put_u64(a.cookie);
                enc.put_opaque_fixed(&a.cookieverf);
                enc.put_u32(a.count);
            }
            Call3::Readdirplus(a) => {
                a.dir.pack(&mut enc);
                enc.put_u64(a.cookie);
                enc.put_opaque_fixed(&a.cookieverf);
                enc.put_u32(a.dircount);
                enc.put_u32(a.maxcount);
            }
            Call3::Commit(a) => {
                a.file.pack(&mut enc);
                enc.put_u64(a.offset);
                enc.put_u32(a.count);
            }
        }
        enc.into_bytes()
    }

    /// Decodes call arguments for `proc` from raw XDR bytes.
    ///
    /// Implemented as [`Call3View::decode`] plus one materializing copy,
    /// so the owned and borrowed decoders accept identical wire forms.
    ///
    /// # Errors
    ///
    /// Any XDR decode error for malformed arguments.
    pub fn decode(proc: Proc3, args: &[u8]) -> Result<Self> {
        Call3View::decode(proc, args).map(|v| v.to_owned())
    }
}

/// `LOOKUP`/`REMOVE`/`RMDIR`-style directory+name arguments with the
/// name borrowed from the record buffer: the view form of [`DirOpArgs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOpView<'a> {
    /// The directory.
    pub dir: FileHandle,
    /// The name within the directory, borrowed from the record buffer.
    pub name: &'a str,
}

impl DirOpView<'_> {
    /// Copies into an owned [`DirOpArgs`].
    pub fn to_owned(&self) -> DirOpArgs {
        DirOpArgs {
            dir: self.dir.clone(),
            name: self.name.to_owned(),
        }
    }
}

/// `WRITE` arguments with the data borrowed: the view form of
/// [`Write3Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Write3View<'a> {
    /// The file.
    pub file: FileHandle,
    /// Starting byte offset.
    pub offset: u64,
    /// Bytes in `data` the server should write.
    pub count: u32,
    /// Commitment level.
    pub stable: StableHow,
    /// The data, borrowed from the record buffer.
    pub data: &'a [u8],
}

/// `SYMLINK` arguments with name and target borrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symlink3View<'a> {
    /// Where to create.
    pub where_: DirOpView<'a>,
    /// Attributes of the link itself.
    pub attributes: Sattr3,
    /// Link target path, borrowed from the record buffer.
    pub target: &'a str,
}

/// A decoded NFSv3 call with every variable-length field (names, symlink
/// targets, write data) borrowed from the record buffer: the zero-copy
/// counterpart of [`Call3`].
///
/// Heap-free argument structs ([`FhArgs`], [`Read3Args`], …) are shared
/// with the owned enum; only name- or data-carrying procedures get view
/// structs. The decode logic lives here — [`Call3::decode`] is this plus
/// [`Call3View::to_owned`] — so the two cannot drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call3View<'a> {
    /// NULL ping.
    Null,
    /// Get attributes.
    Getattr(FhArgs),
    /// Set attributes.
    Setattr(Setattr3Args),
    /// Name lookup.
    Lookup(DirOpView<'a>),
    /// Access check.
    Access(Access3Args),
    /// Read symlink target.
    Readlink(FhArgs),
    /// Read file data.
    Read(Read3Args),
    /// Write file data.
    Write(Write3View<'a>),
    /// Create file.
    Create {
        /// Where to create.
        where_: DirOpView<'a>,
        /// Creation semantics.
        how: CreateHow,
        /// Initial attributes (unchecked/guarded modes).
        attributes: Sattr3,
    },
    /// Create directory.
    Mkdir {
        /// Where to create.
        where_: DirOpView<'a>,
        /// Initial attributes.
        attributes: Sattr3,
    },
    /// Create symlink.
    Symlink(Symlink3View<'a>),
    /// Create special node.
    Mknod {
        /// Where to create.
        where_: DirOpView<'a>,
        /// Node type (as `ftype3` wire value).
        node_type: u32,
        /// Attributes.
        attributes: Sattr3,
    },
    /// Remove file.
    Remove(DirOpView<'a>),
    /// Remove directory.
    Rmdir(DirOpView<'a>),
    /// Rename.
    Rename {
        /// Source directory and name.
        from: DirOpView<'a>,
        /// Destination directory and name.
        to: DirOpView<'a>,
    },
    /// Hard link.
    Link {
        /// Existing file.
        file: FileHandle,
        /// New directory entry to create.
        link: DirOpView<'a>,
    },
    /// Read directory.
    Readdir(Readdir3Args),
    /// Read directory plus attributes.
    Readdirplus(Readdirplus3Args),
    /// File system statistics.
    Fsstat(FhArgs),
    /// File system information.
    Fsinfo(FhArgs),
    /// Pathconf information.
    Pathconf(FhArgs),
    /// Commit written data.
    Commit(Commit3Args),
}

impl<'a> Call3View<'a> {
    /// Decodes call arguments for `proc` without copying any
    /// variable-length field.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Call3::decode`].
    pub fn decode(proc: Proc3, args: &'a [u8]) -> Result<Self> {
        let mut dec = Decoder::new(args);
        let call = match proc {
            Proc3::Null => Call3View::Null,
            Proc3::Getattr => Call3View::Getattr(FhArgs {
                object: FileHandle::unpack(&mut dec)?,
            }),
            Proc3::Setattr => Call3View::Setattr(Setattr3Args {
                object: FileHandle::unpack(&mut dec)?,
                new_attributes: Sattr3::unpack(&mut dec)?,
                guard_ctime: Option::unpack(&mut dec)?,
            }),
            Proc3::Lookup => Call3View::Lookup(Self::dir_op(&mut dec)?),
            Proc3::Access => Call3View::Access(Access3Args {
                object: FileHandle::unpack(&mut dec)?,
                access: dec.get_u32()?,
            }),
            Proc3::Readlink => Call3View::Readlink(FhArgs {
                object: FileHandle::unpack(&mut dec)?,
            }),
            Proc3::Read => Call3View::Read(Read3Args {
                file: FileHandle::unpack(&mut dec)?,
                offset: dec.get_u64()?,
                count: dec.get_u32()?,
            }),
            Proc3::Write => {
                let file = FileHandle::unpack(&mut dec)?;
                let offset = dec.get_u64()?;
                let count = dec.get_u32()?;
                let stable = StableHow::from_u32(dec.get_u32()?)?;
                let data = dec.get_opaque_var_ref()?;
                Call3View::Write(Write3View {
                    file,
                    offset,
                    count,
                    stable,
                    data,
                })
            }
            Proc3::Create => {
                let where_ = Self::dir_op(&mut dec)?;
                let mode = dec.get_u32()?;
                let (how, attributes) = match mode {
                    0 => (CreateHow::Unchecked, Sattr3::unpack(&mut dec)?),
                    1 => (CreateHow::Guarded, Sattr3::unpack(&mut dec)?),
                    2 => {
                        let v = dec.get_opaque_fixed_ref(8)?;
                        let mut verf = [0u8; 8];
                        verf.copy_from_slice(v);
                        (CreateHow::Exclusive(verf), Sattr3::default())
                    }
                    other => {
                        return Err(Error::InvalidDiscriminant {
                            what: "createmode3",
                            value: other,
                        })
                    }
                };
                Call3View::Create {
                    where_,
                    how,
                    attributes,
                }
            }
            Proc3::Mkdir => Call3View::Mkdir {
                where_: Self::dir_op(&mut dec)?,
                attributes: Sattr3::unpack(&mut dec)?,
            },
            Proc3::Symlink => Call3View::Symlink(Symlink3View {
                where_: Self::dir_op(&mut dec)?,
                attributes: Sattr3::unpack(&mut dec)?,
                target: dec.get_str_ref()?,
            }),
            Proc3::Mknod => Call3View::Mknod {
                where_: Self::dir_op(&mut dec)?,
                node_type: dec.get_u32()?,
                attributes: Sattr3::unpack(&mut dec)?,
            },
            Proc3::Remove => Call3View::Remove(Self::dir_op(&mut dec)?),
            Proc3::Rmdir => Call3View::Rmdir(Self::dir_op(&mut dec)?),
            Proc3::Rename => Call3View::Rename {
                from: Self::dir_op(&mut dec)?,
                to: Self::dir_op(&mut dec)?,
            },
            Proc3::Link => Call3View::Link {
                file: FileHandle::unpack(&mut dec)?,
                link: Self::dir_op(&mut dec)?,
            },
            Proc3::Readdir => {
                let dir = FileHandle::unpack(&mut dec)?;
                let cookie = dec.get_u64()?;
                let v = dec.get_opaque_fixed_ref(8)?;
                let mut cookieverf = [0u8; 8];
                cookieverf.copy_from_slice(v);
                Call3View::Readdir(Readdir3Args {
                    dir,
                    cookie,
                    cookieverf,
                    count: dec.get_u32()?,
                })
            }
            Proc3::Readdirplus => {
                let dir = FileHandle::unpack(&mut dec)?;
                let cookie = dec.get_u64()?;
                let v = dec.get_opaque_fixed_ref(8)?;
                let mut cookieverf = [0u8; 8];
                cookieverf.copy_from_slice(v);
                Call3View::Readdirplus(Readdirplus3Args {
                    dir,
                    cookie,
                    cookieverf,
                    dircount: dec.get_u32()?,
                    maxcount: dec.get_u32()?,
                })
            }
            Proc3::Fsstat => Call3View::Fsstat(FhArgs {
                object: FileHandle::unpack(&mut dec)?,
            }),
            Proc3::Fsinfo => Call3View::Fsinfo(FhArgs {
                object: FileHandle::unpack(&mut dec)?,
            }),
            Proc3::Pathconf => Call3View::Pathconf(FhArgs {
                object: FileHandle::unpack(&mut dec)?,
            }),
            Proc3::Commit => Call3View::Commit(Commit3Args {
                file: FileHandle::unpack(&mut dec)?,
                offset: dec.get_u64()?,
                count: dec.get_u32()?,
            }),
        };
        Ok(call)
    }

    /// The procedure this call invokes.
    pub fn proc(&self) -> Proc3 {
        match self {
            Call3View::Null => Proc3::Null,
            Call3View::Getattr(_) => Proc3::Getattr,
            Call3View::Setattr(_) => Proc3::Setattr,
            Call3View::Lookup(_) => Proc3::Lookup,
            Call3View::Access(_) => Proc3::Access,
            Call3View::Readlink(_) => Proc3::Readlink,
            Call3View::Read(_) => Proc3::Read,
            Call3View::Write(_) => Proc3::Write,
            Call3View::Create { .. } => Proc3::Create,
            Call3View::Mkdir { .. } => Proc3::Mkdir,
            Call3View::Symlink(_) => Proc3::Symlink,
            Call3View::Mknod { .. } => Proc3::Mknod,
            Call3View::Remove(_) => Proc3::Remove,
            Call3View::Rmdir(_) => Proc3::Rmdir,
            Call3View::Rename { .. } => Proc3::Rename,
            Call3View::Link { .. } => Proc3::Link,
            Call3View::Readdir(_) => Proc3::Readdir,
            Call3View::Readdirplus(_) => Proc3::Readdirplus,
            Call3View::Fsstat(_) => Proc3::Fsstat,
            Call3View::Fsinfo(_) => Proc3::Fsinfo,
            Call3View::Pathconf(_) => Proc3::Pathconf,
            Call3View::Commit(_) => Proc3::Commit,
        }
    }

    /// Copies into an owned [`Call3`]: the single materialization the
    /// owned decoder performs.
    pub fn to_owned(&self) -> Call3 {
        match self {
            Call3View::Null => Call3::Null,
            Call3View::Getattr(a) => Call3::Getattr(a.clone()),
            Call3View::Setattr(a) => Call3::Setattr(a.clone()),
            Call3View::Lookup(a) => Call3::Lookup(a.to_owned()),
            Call3View::Access(a) => Call3::Access(a.clone()),
            Call3View::Readlink(a) => Call3::Readlink(a.clone()),
            Call3View::Read(a) => Call3::Read(a.clone()),
            Call3View::Write(a) => Call3::Write(Write3Args {
                file: a.file.clone(),
                offset: a.offset,
                count: a.count,
                stable: a.stable,
                data: a.data.to_vec(),
            }),
            Call3View::Create {
                where_,
                how,
                attributes,
            } => Call3::Create(Create3Args {
                where_: where_.to_owned(),
                how: how.clone(),
                attributes: *attributes,
            }),
            Call3View::Mkdir { where_, attributes } => Call3::Mkdir(Mkdir3Args {
                where_: where_.to_owned(),
                attributes: *attributes,
            }),
            Call3View::Symlink(a) => Call3::Symlink(Symlink3Args {
                where_: a.where_.to_owned(),
                attributes: a.attributes,
                target: a.target.to_owned(),
            }),
            Call3View::Mknod {
                where_,
                node_type,
                attributes,
            } => Call3::Mknod(Mknod3Args {
                where_: where_.to_owned(),
                node_type: *node_type,
                attributes: *attributes,
            }),
            Call3View::Remove(a) => Call3::Remove(a.to_owned()),
            Call3View::Rmdir(a) => Call3::Rmdir(a.to_owned()),
            Call3View::Rename { from, to } => Call3::Rename(Rename3Args {
                from: from.to_owned(),
                to: to.to_owned(),
            }),
            Call3View::Link { file, link } => Call3::Link(Link3Args {
                file: file.clone(),
                link: link.to_owned(),
            }),
            Call3View::Readdir(a) => Call3::Readdir(a.clone()),
            Call3View::Readdirplus(a) => Call3::Readdirplus(a.clone()),
            Call3View::Fsstat(a) => Call3::Fsstat(a.clone()),
            Call3View::Fsinfo(a) => Call3::Fsinfo(a.clone()),
            Call3View::Pathconf(a) => Call3::Pathconf(a.clone()),
            Call3View::Commit(a) => Call3::Commit(a.clone()),
        }
    }

    fn dir_op(dec: &mut Decoder<'a>) -> Result<DirOpView<'a>> {
        Ok(DirOpView {
            dir: FileHandle::unpack(dec)?,
            name: dec.get_str_ref()?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip(call: Call3) {
        let bytes = call.encode_args();
        let got = Call3::decode(call.proc(), &bytes).unwrap();
        assert_eq!(got, call);
    }

    #[test]
    fn null_roundtrip() {
        roundtrip(Call3::Null);
    }

    #[test]
    fn getattr_roundtrip() {
        roundtrip(Call3::Getattr(FhArgs {
            object: FileHandle::from_u64(1),
        }));
    }

    #[test]
    fn setattr_truncate_roundtrip() {
        roundtrip(Call3::Setattr(Setattr3Args {
            object: FileHandle::from_u64(2),
            new_attributes: Sattr3 {
                size: Some(0),
                ..Sattr3::default()
            },
            guard_ctime: None,
        }));
    }

    #[test]
    fn lookup_roundtrip() {
        roundtrip(Call3::Lookup(DirOpArgs {
            dir: FileHandle::from_u64(3),
            name: ".pinerc".to_string(),
        }));
    }

    #[test]
    fn read_write_roundtrip() {
        roundtrip(Call3::Read(Read3Args {
            file: FileHandle::from_u64(4),
            offset: 65536,
            count: 8192,
        }));
        roundtrip(Call3::Write(Write3Args {
            file: FileHandle::from_u64(5),
            offset: 1 << 20,
            count: 5,
            stable: StableHow::FileSync,
            data: vec![1, 2, 3, 4, 5],
        }));
    }

    #[test]
    fn create_all_modes_roundtrip() {
        for how in [
            CreateHow::Unchecked,
            CreateHow::Guarded,
            CreateHow::Exclusive([9; 8]),
        ] {
            roundtrip(Call3::Create(Create3Args {
                where_: DirOpArgs {
                    dir: FileHandle::from_u64(6),
                    name: "inbox.lock".to_string(),
                },
                how,
                attributes: Sattr3::default(),
            }));
        }
    }

    #[test]
    fn namespace_ops_roundtrip() {
        roundtrip(Call3::Remove(DirOpArgs {
            dir: FileHandle::from_u64(7),
            name: "Applet_7_Extern".to_string(),
        }));
        roundtrip(Call3::Rename(Rename3Args {
            from: DirOpArgs {
                dir: FileHandle::from_u64(8),
                name: "mbox.tmp".to_string(),
            },
            to: DirOpArgs {
                dir: FileHandle::from_u64(8),
                name: "mbox".to_string(),
            },
        }));
        roundtrip(Call3::Link(Link3Args {
            file: FileHandle::from_u64(9),
            link: DirOpArgs {
                dir: FileHandle::from_u64(10),
                name: "hardlink".to_string(),
            },
        }));
        roundtrip(Call3::Symlink(Symlink3Args {
            where_: DirOpArgs {
                dir: FileHandle::from_u64(11),
                name: "sym".to_string(),
            },
            attributes: Sattr3::default(),
            target: "../target/path".to_string(),
        }));
        roundtrip(Call3::Mkdir(Mkdir3Args {
            where_: DirOpArgs {
                dir: FileHandle::from_u64(12),
                name: "CVS".to_string(),
            },
            attributes: Sattr3 {
                mode: Some(0o755),
                ..Sattr3::default()
            },
        }));
        roundtrip(Call3::Mknod(Mknod3Args {
            where_: DirOpArgs {
                dir: FileHandle::from_u64(13),
                name: "fifo".to_string(),
            },
            node_type: 7,
            attributes: Sattr3::default(),
        }));
    }

    #[test]
    fn readdir_variants_roundtrip() {
        roundtrip(Call3::Readdir(Readdir3Args {
            dir: FileHandle::from_u64(14),
            cookie: 77,
            cookieverf: [1; 8],
            count: 4096,
        }));
        roundtrip(Call3::Readdirplus(Readdirplus3Args {
            dir: FileHandle::from_u64(15),
            cookie: 0,
            cookieverf: [0; 8],
            dircount: 1024,
            maxcount: 8192,
        }));
    }

    #[test]
    fn fs_info_ops_roundtrip() {
        for call in [
            Call3::Fsstat(FhArgs {
                object: FileHandle::from_u64(16),
            }),
            Call3::Fsinfo(FhArgs {
                object: FileHandle::from_u64(17),
            }),
            Call3::Pathconf(FhArgs {
                object: FileHandle::from_u64(18),
            }),
            Call3::Commit(Commit3Args {
                file: FileHandle::from_u64(19),
                offset: 0,
                count: 0,
            }),
            Call3::Access(Access3Args {
                object: FileHandle::from_u64(20),
                access: 0x3f,
            }),
            Call3::Readlink(FhArgs {
                object: FileHandle::from_u64(21),
            }),
        ] {
            roundtrip(call);
        }
    }

    #[test]
    fn truncated_args_error() {
        assert!(Call3::decode(Proc3::Read, &[0, 0, 0, 1]).is_err());
    }

    pub(crate) fn sample_calls() -> Vec<Call3> {
        vec![
            Call3::Null,
            Call3::Getattr(FhArgs {
                object: FileHandle::from_u64(1),
            }),
            Call3::Setattr(Setattr3Args {
                object: FileHandle::from_u64(2),
                new_attributes: Sattr3 {
                    size: Some(1 << 33),
                    mode: Some(0o644),
                    ..Sattr3::default()
                },
                guard_ctime: None,
            }),
            Call3::Lookup(DirOpArgs {
                dir: FileHandle::from_u64(3),
                name: ".pinerc".to_string(),
            }),
            Call3::Access(Access3Args {
                object: FileHandle::from_u64(4),
                access: 0x1f,
            }),
            Call3::Readlink(FhArgs {
                object: FileHandle::from_u64(5),
            }),
            Call3::Read(Read3Args {
                file: FileHandle::from_u64(6),
                offset: 1 << 32,
                count: 32768,
            }),
            Call3::Write(Write3Args {
                file: FileHandle::from_u64(7),
                offset: 0,
                count: 3,
                stable: StableHow::Unstable,
                data: vec![9, 9, 9],
            }),
            Call3::Create(Create3Args {
                where_: DirOpArgs {
                    dir: FileHandle::from_u64(8),
                    name: "inbox.lock".to_string(),
                },
                how: CreateHow::Exclusive([7; 8]),
                attributes: Sattr3::default(),
            }),
            Call3::Mkdir(Mkdir3Args {
                where_: DirOpArgs {
                    dir: FileHandle::from_u64(9),
                    name: "CVS".to_string(),
                },
                attributes: Sattr3::default(),
            }),
            Call3::Symlink(Symlink3Args {
                where_: DirOpArgs {
                    dir: FileHandle::from_u64(10),
                    name: "sym".to_string(),
                },
                attributes: Sattr3::default(),
                target: "../elsewhere".to_string(),
            }),
            Call3::Mknod(Mknod3Args {
                where_: DirOpArgs {
                    dir: FileHandle::from_u64(11),
                    name: "fifo".to_string(),
                },
                node_type: 7,
                attributes: Sattr3::default(),
            }),
            Call3::Remove(DirOpArgs {
                dir: FileHandle::from_u64(12),
                name: "core".to_string(),
            }),
            Call3::Rmdir(DirOpArgs {
                dir: FileHandle::from_u64(13),
                name: "tmp".to_string(),
            }),
            Call3::Rename(Rename3Args {
                from: DirOpArgs {
                    dir: FileHandle::from_u64(14),
                    name: "mbox.tmp".to_string(),
                },
                to: DirOpArgs {
                    dir: FileHandle::from_u64(15),
                    name: "mbox".to_string(),
                },
            }),
            Call3::Link(Link3Args {
                file: FileHandle::from_u64(16),
                link: DirOpArgs {
                    dir: FileHandle::from_u64(17),
                    name: "hardlink".to_string(),
                },
            }),
            Call3::Readdir(Readdir3Args {
                dir: FileHandle::from_u64(18),
                cookie: 77,
                cookieverf: [1; 8],
                count: 4096,
            }),
            Call3::Readdirplus(Readdirplus3Args {
                dir: FileHandle::from_u64(19),
                cookie: 0,
                cookieverf: [0; 8],
                dircount: 1024,
                maxcount: 8192,
            }),
            Call3::Fsstat(FhArgs {
                object: FileHandle::from_u64(20),
            }),
            Call3::Fsinfo(FhArgs {
                object: FileHandle::from_u64(21),
            }),
            Call3::Pathconf(FhArgs {
                object: FileHandle::from_u64(22),
            }),
            Call3::Commit(Commit3Args {
                file: FileHandle::from_u64(23),
                offset: 4096,
                count: 65536,
            }),
        ]
    }

    /// `encode ∘ decode == id` over every one of the 22 v3 procedures'
    /// call arguments, plus the truncation sweep: any strict prefix of
    /// a canonical encoding either fails to decode or decodes to a
    /// value whose re-encoding is exactly that prefix.
    #[test]
    fn every_procedure_roundtrips_and_survives_truncation() {
        let calls = sample_calls();
        for proc in Proc3::ALL {
            assert!(
                calls.iter().any(|c| c.proc() == proc),
                "{proc:?} has no call sample"
            );
        }
        for call in calls {
            let proc = call.proc();
            let bytes = call.encode_args();
            assert_eq!(Call3::decode(proc, &bytes).unwrap(), call, "{proc:?}");
            for cut in 0..bytes.len() {
                if let Ok(got) = Call3::decode(proc, &bytes[..cut]) {
                    assert_eq!(got.encode_args(), &bytes[..cut], "{proc:?} cut {cut}");
                }
            }
        }
    }
}
