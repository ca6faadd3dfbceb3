//! NFSv3 reply results for all 22 procedures.

use super::Proc3;
use crate::fh::FileHandle;
use crate::types::{Fattr3, Ftype3, NfsStat3, WccData};
use nfstrace_xdr::{Decoder, Encoder, Pack, Result, Unpack};

/// `GETATTR` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Getattr3Res {
    /// Object attributes (present on success).
    pub attributes: Option<Fattr3>,
}

/// `SETATTR` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Setattr3Res {
    /// Weak cache consistency data for the object.
    pub wcc: WccData,
}

/// `LOOKUP` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lookup3Res {
    /// Handle of the found object (success only).
    pub object: Option<FileHandle>,
    /// Attributes of the found object.
    pub obj_attributes: Option<Fattr3>,
    /// Attributes of the directory.
    pub dir_attributes: Option<Fattr3>,
}

/// `ACCESS` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Access3Res {
    /// Post-op attributes.
    pub obj_attributes: Option<Fattr3>,
    /// Granted access bits (success only).
    pub access: u32,
}

/// `READLINK` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readlink3Res {
    /// Post-op attributes.
    pub obj_attributes: Option<Fattr3>,
    /// Link target (success only).
    pub target: String,
}

/// `READ` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Read3Res {
    /// Post-op attributes (carrying the file size the client caches on).
    pub file_attributes: Option<Fattr3>,
    /// Bytes actually read.
    pub count: u32,
    /// Whether the read reached end-of-file.
    pub eof: bool,
    /// The data (zero-filled in the simulator; length is faithful).
    pub data: Vec<u8>,
}

/// `WRITE` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Write3Res {
    /// Weak cache consistency data.
    pub wcc: WccData,
    /// Bytes actually written.
    pub count: u32,
    /// Commitment achieved (wire value of `stable_how`).
    pub committed: u32,
    /// Write verifier for commit matching.
    pub verf: [u8; 8],
}

/// `CREATE` / `MKDIR` / `SYMLINK` / `MKNOD` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Create3Res {
    /// Handle of the new object, if the server returned one.
    pub obj: Option<FileHandle>,
    /// Attributes of the new object.
    pub obj_attributes: Option<Fattr3>,
    /// WCC for the parent directory.
    pub dir_wcc: WccData,
}

/// `REMOVE` / `RMDIR` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Remove3Res {
    /// WCC for the directory.
    pub dir_wcc: WccData,
}

/// `RENAME` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rename3Res {
    /// WCC for the source directory.
    pub from_wcc: WccData,
    /// WCC for the destination directory.
    pub to_wcc: WccData,
}

/// `LINK` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Link3Res {
    /// Post-op attributes of the file.
    pub file_attributes: Option<Fattr3>,
    /// WCC for the directory.
    pub dir_wcc: WccData,
}

/// One `READDIR` entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirEntry3 {
    /// File id (inode number).
    pub fileid: u64,
    /// Entry name.
    pub name: String,
    /// Cookie for resuming after this entry.
    pub cookie: u64,
}

/// `READDIR` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readdir3Res {
    /// Post-op directory attributes.
    pub dir_attributes: Option<Fattr3>,
    /// Cookie verifier.
    pub cookieverf: [u8; 8],
    /// The entries.
    pub entries: Vec<DirEntry3>,
    /// Whether the listing is complete.
    pub eof: bool,
}

/// One `READDIRPLUS` entry: name plus attributes and handle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirEntryPlus3 {
    /// File id.
    pub fileid: u64,
    /// Entry name.
    pub name: String,
    /// Resume cookie.
    pub cookie: u64,
    /// Entry attributes.
    pub name_attributes: Option<Fattr3>,
    /// Entry handle.
    pub name_handle: Option<FileHandle>,
}

/// `READDIRPLUS` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Readdirplus3Res {
    /// Post-op directory attributes.
    pub dir_attributes: Option<Fattr3>,
    /// Cookie verifier.
    pub cookieverf: [u8; 8],
    /// The entries.
    pub entries: Vec<DirEntryPlus3>,
    /// Whether the listing is complete.
    pub eof: bool,
}

/// `FSSTAT` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fsstat3Res {
    /// Post-op attributes.
    pub obj_attributes: Option<Fattr3>,
    /// Total bytes.
    pub tbytes: u64,
    /// Free bytes.
    pub fbytes: u64,
    /// Bytes available to the caller.
    pub abytes: u64,
    /// Total file slots.
    pub tfiles: u64,
    /// Free file slots.
    pub ffiles: u64,
    /// File slots available to the caller.
    pub afiles: u64,
    /// Attribute volatility hint, seconds.
    pub invarsec: u32,
}

/// `FSINFO` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fsinfo3Res {
    /// Post-op attributes.
    pub obj_attributes: Option<Fattr3>,
    /// Maximum read size.
    pub rtmax: u32,
    /// Preferred read size.
    pub rtpref: u32,
    /// Read size multiple.
    pub rtmult: u32,
    /// Maximum write size.
    pub wtmax: u32,
    /// Preferred write size.
    pub wtpref: u32,
    /// Write size multiple.
    pub wtmult: u32,
    /// Preferred readdir size.
    pub dtpref: u32,
    /// Maximum file size.
    pub maxfilesize: u64,
    /// Server time granularity.
    pub time_delta: crate::types::NfsTime3,
    /// Property bits.
    pub properties: u32,
}

/// `PATHCONF` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pathconf3Res {
    /// Post-op attributes.
    pub obj_attributes: Option<Fattr3>,
    /// Maximum link count.
    pub linkmax: u32,
    /// Maximum name length.
    pub name_max: u32,
    /// Whether names longer than `name_max` error (vs truncate).
    pub no_trunc: bool,
    /// Whether chown is restricted.
    pub chown_restricted: bool,
    /// Whether names are case-insensitive.
    pub case_insensitive: bool,
    /// Whether case is preserved.
    pub case_preserving: bool,
}

/// `COMMIT` result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Commit3Res {
    /// WCC for the file.
    pub wcc: WccData,
    /// Write verifier.
    pub verf: [u8; 8],
}

/// A decoded NFSv3 reply: status plus per-procedure results.
///
/// On non-OK status most procedures still return the "default" arm
/// (post-op attributes or WCC), which the codecs here honor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply3 {
    /// The status code.
    pub status: NfsStat3,
    /// The per-procedure body.
    pub body: Reply3Body,
}

/// Per-procedure reply bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply3Body {
    /// NULL has no body.
    Null,
    /// GETATTR.
    Getattr(Getattr3Res),
    /// SETATTR.
    Setattr(Setattr3Res),
    /// LOOKUP.
    Lookup(Lookup3Res),
    /// ACCESS.
    Access(Access3Res),
    /// READLINK.
    Readlink(Readlink3Res),
    /// READ.
    Read(Read3Res),
    /// WRITE.
    Write(Write3Res),
    /// CREATE.
    Create(Create3Res),
    /// MKDIR.
    Mkdir(Create3Res),
    /// SYMLINK.
    Symlink(Create3Res),
    /// MKNOD.
    Mknod(Create3Res),
    /// REMOVE.
    Remove(Remove3Res),
    /// RMDIR.
    Rmdir(Remove3Res),
    /// RENAME.
    Rename(Rename3Res),
    /// LINK.
    Link(Link3Res),
    /// READDIR.
    Readdir(Readdir3Res),
    /// READDIRPLUS.
    Readdirplus(Readdirplus3Res),
    /// FSSTAT.
    Fsstat(Fsstat3Res),
    /// FSINFO.
    Fsinfo(Fsinfo3Res),
    /// PATHCONF.
    Pathconf(Pathconf3Res),
    /// COMMIT.
    Commit(Commit3Res),
}

impl Reply3 {
    /// A successful reply with the given body.
    pub fn ok(body: Reply3Body) -> Self {
        Reply3 {
            status: NfsStat3::Ok,
            body,
        }
    }

    /// An error reply for `proc` with empty default body.
    pub fn error(proc: Proc3, status: NfsStat3) -> Self {
        Reply3 {
            status,
            body: Reply3Body::empty_for(proc),
        }
    }

    /// Encodes the results (the RPC reply body's results field).
    pub fn encode_results(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        if !matches!(self.body, Reply3Body::Null) {
            self.status.pack(&mut enc);
        }
        let ok = self.status.is_ok();
        match &self.body {
            Reply3Body::Null => {}
            Reply3Body::Getattr(r) => {
                if ok {
                    // GETATTR success carries bare fattr3 (not optional).
                    r.attributes.unwrap_or_default().pack(&mut enc);
                }
            }
            Reply3Body::Setattr(r) => r.wcc.pack(&mut enc),
            Reply3Body::Lookup(r) => {
                if ok {
                    r.object.clone().unwrap_or_default().pack(&mut enc);
                    r.obj_attributes.pack(&mut enc);
                }
                r.dir_attributes.pack(&mut enc);
            }
            Reply3Body::Access(r) => {
                r.obj_attributes.pack(&mut enc);
                if ok {
                    enc.put_u32(r.access);
                }
            }
            Reply3Body::Readlink(r) => {
                r.obj_attributes.pack(&mut enc);
                if ok {
                    enc.put_string(&r.target);
                }
            }
            Reply3Body::Read(r) => {
                r.file_attributes.pack(&mut enc);
                if ok {
                    enc.put_u32(r.count);
                    enc.put_bool(r.eof);
                    enc.put_opaque_var(&r.data);
                }
            }
            Reply3Body::Write(r) => {
                r.wcc.pack(&mut enc);
                if ok {
                    enc.put_u32(r.count);
                    enc.put_u32(r.committed);
                    enc.put_opaque_fixed(&r.verf);
                }
            }
            Reply3Body::Create(r)
            | Reply3Body::Mkdir(r)
            | Reply3Body::Symlink(r)
            | Reply3Body::Mknod(r) => {
                if ok {
                    r.obj.pack(&mut enc);
                    r.obj_attributes.pack(&mut enc);
                }
                r.dir_wcc.pack(&mut enc);
            }
            Reply3Body::Remove(r) | Reply3Body::Rmdir(r) => r.dir_wcc.pack(&mut enc),
            Reply3Body::Rename(r) => {
                r.from_wcc.pack(&mut enc);
                r.to_wcc.pack(&mut enc);
            }
            Reply3Body::Link(r) => {
                r.file_attributes.pack(&mut enc);
                r.dir_wcc.pack(&mut enc);
            }
            Reply3Body::Readdir(r) => {
                r.dir_attributes.pack(&mut enc);
                if ok {
                    enc.put_opaque_fixed(&r.cookieverf);
                    for e in &r.entries {
                        enc.put_bool(true);
                        enc.put_u64(e.fileid);
                        enc.put_string(&e.name);
                        enc.put_u64(e.cookie);
                    }
                    enc.put_bool(false);
                    enc.put_bool(r.eof);
                }
            }
            Reply3Body::Readdirplus(r) => {
                r.dir_attributes.pack(&mut enc);
                if ok {
                    enc.put_opaque_fixed(&r.cookieverf);
                    for e in &r.entries {
                        enc.put_bool(true);
                        enc.put_u64(e.fileid);
                        enc.put_string(&e.name);
                        enc.put_u64(e.cookie);
                        e.name_attributes.pack(&mut enc);
                        e.name_handle.pack(&mut enc);
                    }
                    enc.put_bool(false);
                    enc.put_bool(r.eof);
                }
            }
            Reply3Body::Fsstat(r) => {
                r.obj_attributes.pack(&mut enc);
                if ok {
                    enc.put_u64(r.tbytes);
                    enc.put_u64(r.fbytes);
                    enc.put_u64(r.abytes);
                    enc.put_u64(r.tfiles);
                    enc.put_u64(r.ffiles);
                    enc.put_u64(r.afiles);
                    enc.put_u32(r.invarsec);
                }
            }
            Reply3Body::Fsinfo(r) => {
                r.obj_attributes.pack(&mut enc);
                if ok {
                    enc.put_u32(r.rtmax);
                    enc.put_u32(r.rtpref);
                    enc.put_u32(r.rtmult);
                    enc.put_u32(r.wtmax);
                    enc.put_u32(r.wtpref);
                    enc.put_u32(r.wtmult);
                    enc.put_u32(r.dtpref);
                    enc.put_u64(r.maxfilesize);
                    r.time_delta.pack(&mut enc);
                    enc.put_u32(r.properties);
                }
            }
            Reply3Body::Pathconf(r) => {
                r.obj_attributes.pack(&mut enc);
                if ok {
                    enc.put_u32(r.linkmax);
                    enc.put_u32(r.name_max);
                    enc.put_bool(r.no_trunc);
                    enc.put_bool(r.chown_restricted);
                    enc.put_bool(r.case_insensitive);
                    enc.put_bool(r.case_preserving);
                }
            }
            Reply3Body::Commit(r) => {
                r.wcc.pack(&mut enc);
                if ok {
                    enc.put_opaque_fixed(&r.verf);
                }
            }
        }
        enc.into_bytes()
    }

    /// Decodes reply results for `proc` from raw XDR bytes.
    ///
    /// # Errors
    ///
    /// Any XDR decode error for malformed results.
    pub fn decode(proc: Proc3, results: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(results);
        if proc == Proc3::Null {
            return Ok(Reply3::ok(Reply3Body::Null));
        }
        let status = NfsStat3::unpack(&mut dec)?;
        let ok = status.is_ok();
        let body = match proc {
            Proc3::Null => unreachable!("handled above"),
            Proc3::Getattr => Reply3Body::Getattr(Getattr3Res {
                attributes: if ok {
                    Some(Fattr3::unpack(&mut dec)?)
                } else {
                    None
                },
            }),
            Proc3::Setattr => Reply3Body::Setattr(Setattr3Res {
                wcc: WccData::unpack(&mut dec)?,
            }),
            Proc3::Lookup => {
                if ok {
                    Reply3Body::Lookup(Lookup3Res {
                        object: Some(FileHandle::unpack(&mut dec)?),
                        obj_attributes: Option::unpack(&mut dec)?,
                        dir_attributes: Option::unpack(&mut dec)?,
                    })
                } else {
                    Reply3Body::Lookup(Lookup3Res {
                        object: None,
                        obj_attributes: None,
                        dir_attributes: Option::unpack(&mut dec)?,
                    })
                }
            }
            Proc3::Access => Reply3Body::Access(Access3Res {
                obj_attributes: Option::unpack(&mut dec)?,
                access: if ok { dec.get_u32()? } else { 0 },
            }),
            Proc3::Readlink => Reply3Body::Readlink(Readlink3Res {
                obj_attributes: Option::unpack(&mut dec)?,
                target: if ok { dec.get_string()? } else { String::new() },
            }),
            Proc3::Read => {
                let file_attributes = Option::unpack(&mut dec)?;
                if ok {
                    Reply3Body::Read(Read3Res {
                        file_attributes,
                        count: dec.get_u32()?,
                        eof: dec.get_bool()?,
                        data: dec.get_opaque_var()?,
                    })
                } else {
                    Reply3Body::Read(Read3Res {
                        file_attributes,
                        ..Read3Res::default()
                    })
                }
            }
            Proc3::Write => {
                let wcc = WccData::unpack(&mut dec)?;
                if ok {
                    let count = dec.get_u32()?;
                    let committed = dec.get_u32()?;
                    let v = dec.get_opaque_fixed(8)?;
                    let mut verf = [0u8; 8];
                    verf.copy_from_slice(&v);
                    Reply3Body::Write(Write3Res {
                        wcc,
                        count,
                        committed,
                        verf,
                    })
                } else {
                    Reply3Body::Write(Write3Res {
                        wcc,
                        ..Write3Res::default()
                    })
                }
            }
            Proc3::Create | Proc3::Mkdir | Proc3::Symlink | Proc3::Mknod => {
                let res = if ok {
                    let obj = Option::<FileHandle>::unpack(&mut dec)?;
                    let obj_attributes = Option::unpack(&mut dec)?;
                    Create3Res {
                        obj,
                        obj_attributes,
                        dir_wcc: WccData::unpack(&mut dec)?,
                    }
                } else {
                    Create3Res {
                        obj: None,
                        obj_attributes: None,
                        dir_wcc: WccData::unpack(&mut dec)?,
                    }
                };
                match proc {
                    Proc3::Create => Reply3Body::Create(res),
                    Proc3::Mkdir => Reply3Body::Mkdir(res),
                    Proc3::Symlink => Reply3Body::Symlink(res),
                    _ => Reply3Body::Mknod(res),
                }
            }
            Proc3::Remove => Reply3Body::Remove(Remove3Res {
                dir_wcc: WccData::unpack(&mut dec)?,
            }),
            Proc3::Rmdir => Reply3Body::Rmdir(Remove3Res {
                dir_wcc: WccData::unpack(&mut dec)?,
            }),
            Proc3::Rename => Reply3Body::Rename(Rename3Res {
                from_wcc: WccData::unpack(&mut dec)?,
                to_wcc: WccData::unpack(&mut dec)?,
            }),
            Proc3::Link => Reply3Body::Link(Link3Res {
                file_attributes: Option::unpack(&mut dec)?,
                dir_wcc: WccData::unpack(&mut dec)?,
            }),
            Proc3::Readdir => {
                let dir_attributes = Option::unpack(&mut dec)?;
                if ok {
                    let v = dec.get_opaque_fixed(8)?;
                    let mut cookieverf = [0u8; 8];
                    cookieverf.copy_from_slice(&v);
                    let mut entries = Vec::new();
                    while dec.get_bool()? {
                        entries.push(DirEntry3 {
                            fileid: dec.get_u64()?,
                            name: dec.get_string()?,
                            cookie: dec.get_u64()?,
                        });
                    }
                    Reply3Body::Readdir(Readdir3Res {
                        dir_attributes,
                        cookieverf,
                        entries,
                        eof: dec.get_bool()?,
                    })
                } else {
                    Reply3Body::Readdir(Readdir3Res {
                        dir_attributes,
                        ..Readdir3Res::default()
                    })
                }
            }
            Proc3::Readdirplus => {
                let dir_attributes = Option::unpack(&mut dec)?;
                if ok {
                    let v = dec.get_opaque_fixed(8)?;
                    let mut cookieverf = [0u8; 8];
                    cookieverf.copy_from_slice(&v);
                    let mut entries = Vec::new();
                    while dec.get_bool()? {
                        entries.push(DirEntryPlus3 {
                            fileid: dec.get_u64()?,
                            name: dec.get_string()?,
                            cookie: dec.get_u64()?,
                            name_attributes: Option::unpack(&mut dec)?,
                            name_handle: Option::unpack(&mut dec)?,
                        });
                    }
                    Reply3Body::Readdirplus(Readdirplus3Res {
                        dir_attributes,
                        cookieverf,
                        entries,
                        eof: dec.get_bool()?,
                    })
                } else {
                    Reply3Body::Readdirplus(Readdirplus3Res {
                        dir_attributes,
                        ..Readdirplus3Res::default()
                    })
                }
            }
            Proc3::Fsstat => {
                let obj_attributes = Option::unpack(&mut dec)?;
                if ok {
                    Reply3Body::Fsstat(Fsstat3Res {
                        obj_attributes,
                        tbytes: dec.get_u64()?,
                        fbytes: dec.get_u64()?,
                        abytes: dec.get_u64()?,
                        tfiles: dec.get_u64()?,
                        ffiles: dec.get_u64()?,
                        afiles: dec.get_u64()?,
                        invarsec: dec.get_u32()?,
                    })
                } else {
                    Reply3Body::Fsstat(Fsstat3Res {
                        obj_attributes,
                        ..Fsstat3Res::default()
                    })
                }
            }
            Proc3::Fsinfo => {
                let obj_attributes = Option::unpack(&mut dec)?;
                if ok {
                    Reply3Body::Fsinfo(Fsinfo3Res {
                        obj_attributes,
                        rtmax: dec.get_u32()?,
                        rtpref: dec.get_u32()?,
                        rtmult: dec.get_u32()?,
                        wtmax: dec.get_u32()?,
                        wtpref: dec.get_u32()?,
                        wtmult: dec.get_u32()?,
                        dtpref: dec.get_u32()?,
                        maxfilesize: dec.get_u64()?,
                        time_delta: crate::types::NfsTime3::unpack(&mut dec)?,
                        properties: dec.get_u32()?,
                    })
                } else {
                    Reply3Body::Fsinfo(Fsinfo3Res {
                        obj_attributes,
                        ..Fsinfo3Res::default()
                    })
                }
            }
            Proc3::Pathconf => {
                let obj_attributes = Option::unpack(&mut dec)?;
                if ok {
                    Reply3Body::Pathconf(Pathconf3Res {
                        obj_attributes,
                        linkmax: dec.get_u32()?,
                        name_max: dec.get_u32()?,
                        no_trunc: dec.get_bool()?,
                        chown_restricted: dec.get_bool()?,
                        case_insensitive: dec.get_bool()?,
                        case_preserving: dec.get_bool()?,
                    })
                } else {
                    Reply3Body::Pathconf(Pathconf3Res {
                        obj_attributes,
                        ..Pathconf3Res::default()
                    })
                }
            }
            Proc3::Commit => {
                let wcc = WccData::unpack(&mut dec)?;
                if ok {
                    let v = dec.get_opaque_fixed(8)?;
                    let mut verf = [0u8; 8];
                    verf.copy_from_slice(&v);
                    Reply3Body::Commit(Commit3Res { wcc, verf })
                } else {
                    Reply3Body::Commit(Commit3Res {
                        wcc,
                        ..Commit3Res::default()
                    })
                }
            }
        };
        Ok(Reply3 { status, body })
    }
}

impl Reply3Body {
    /// The empty (error-arm) body for a procedure.
    pub(crate) fn empty_for(proc: Proc3) -> Self {
        match proc {
            Proc3::Null => Reply3Body::Null,
            Proc3::Getattr => Reply3Body::Getattr(Getattr3Res::default()),
            Proc3::Setattr => Reply3Body::Setattr(Setattr3Res::default()),
            Proc3::Lookup => Reply3Body::Lookup(Lookup3Res::default()),
            Proc3::Access => Reply3Body::Access(Access3Res::default()),
            Proc3::Readlink => Reply3Body::Readlink(Readlink3Res::default()),
            Proc3::Read => Reply3Body::Read(Read3Res::default()),
            Proc3::Write => Reply3Body::Write(Write3Res::default()),
            Proc3::Create => Reply3Body::Create(Create3Res::default()),
            Proc3::Mkdir => Reply3Body::Mkdir(Create3Res::default()),
            Proc3::Symlink => Reply3Body::Symlink(Create3Res::default()),
            Proc3::Mknod => Reply3Body::Mknod(Create3Res::default()),
            Proc3::Remove => Reply3Body::Remove(Remove3Res::default()),
            Proc3::Rmdir => Reply3Body::Rmdir(Remove3Res::default()),
            Proc3::Rename => Reply3Body::Rename(Rename3Res::default()),
            Proc3::Link => Reply3Body::Link(Link3Res::default()),
            Proc3::Readdir => Reply3Body::Readdir(Readdir3Res::default()),
            Proc3::Readdirplus => Reply3Body::Readdirplus(Readdirplus3Res::default()),
            Proc3::Fsstat => Reply3Body::Fsstat(Fsstat3Res::default()),
            Proc3::Fsinfo => Reply3Body::Fsinfo(Fsinfo3Res::default()),
            Proc3::Pathconf => Reply3Body::Pathconf(Pathconf3Res::default()),
            Proc3::Commit => Reply3Body::Commit(Commit3Res::default()),
        }
    }
}

/// The subset of an NFSv3 reply that flows into a flattened trace
/// record, decoded in one streaming pass with no heap allocation.
///
/// [`ReplyFacts3::decode`] consumes and validates a results body
/// exactly as [`Reply3::decode`] does — the same reads in the same
/// order, failing in the same cases — but borrows over directory
/// entries, read data, and verifiers instead of materializing them.
/// A `Some` field means the reply carried that fact; `None` leaves the
/// corresponding trace-record field at its default, matching the
/// canonical flattener's behaviour on the full reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyFacts3 {
    /// Reply status.
    pub status: NfsStat3,
    /// Pre-op file size from weak-cache-consistency data.
    pub pre_size: Option<u64>,
    /// Post-op file size.
    pub post_size: Option<u64>,
    /// Post-op file type.
    pub ftype: Option<Ftype3>,
    /// Returned byte count (`READ`/`WRITE`; zero on error replies).
    pub ret_count: Option<u32>,
    /// End-of-file flag (`READ`; false on error replies).
    pub eof: Option<bool>,
    /// Handle of a created or looked-up object.
    pub new_fh: Option<FileHandle>,
}

impl ReplyFacts3 {
    fn empty(status: NfsStat3) -> Self {
        ReplyFacts3 {
            status,
            pre_size: None,
            post_size: None,
            ftype: None,
            ret_count: None,
            eof: None,
            new_fh: None,
        }
    }

    fn post(&mut self, attrs: Option<Fattr3>) {
        if let Some(a) = attrs {
            self.post_size = Some(a.size);
            self.ftype = Some(a.ftype);
        }
    }

    fn wcc_sizes(&mut self, wcc: &WccData) {
        self.pre_size = wcc.before.map(|b| b.size);
        self.post_size = wcc.after.map(|a| a.size);
    }

    /// Decodes the facts for `proc` from an RPC results body.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Reply3::decode`] would fail on the same
    /// bytes.
    pub fn decode(proc: Proc3, results: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(results);
        if proc == Proc3::Null {
            return Ok(Self::empty(NfsStat3::Ok));
        }
        let mut f = Self::empty(NfsStat3::unpack(&mut dec)?);
        let ok = f.status.is_ok();
        match proc {
            Proc3::Null => unreachable!("handled above"),
            Proc3::Getattr => {
                if ok {
                    f.post(Some(Fattr3::unpack(&mut dec)?));
                }
            }
            Proc3::Setattr => {
                let wcc = WccData::unpack(&mut dec)?;
                f.wcc_sizes(&wcc);
            }
            Proc3::Lookup => {
                if ok {
                    f.new_fh = Some(FileHandle::unpack(&mut dec)?);
                    f.post(Option::unpack(&mut dec)?);
                }
                let _dir: Option<Fattr3> = Option::unpack(&mut dec)?;
            }
            Proc3::Access => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    dec.get_u32()?;
                }
            }
            Proc3::Readlink => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    dec.get_str_ref()?;
                }
            }
            Proc3::Read => {
                f.post(Option::unpack(&mut dec)?);
                if ok {
                    f.ret_count = Some(dec.get_u32()?);
                    f.eof = Some(dec.get_bool()?);
                    dec.get_opaque_var_ref()?;
                } else {
                    f.ret_count = Some(0);
                    f.eof = Some(false);
                }
            }
            Proc3::Write => {
                let wcc = WccData::unpack(&mut dec)?;
                f.wcc_sizes(&wcc);
                if ok {
                    f.ret_count = Some(dec.get_u32()?);
                    dec.get_u32()?; // committed
                    dec.get_opaque_fixed_ref(8)?;
                } else {
                    f.ret_count = Some(0);
                }
            }
            Proc3::Create | Proc3::Mkdir | Proc3::Symlink | Proc3::Mknod => {
                if ok {
                    f.new_fh = Option::unpack(&mut dec)?;
                    f.post(Option::unpack(&mut dec)?);
                }
                // dir_wcc is consumed but never flattened.
                WccData::unpack(&mut dec)?;
            }
            Proc3::Remove | Proc3::Rmdir => {
                WccData::unpack(&mut dec)?;
            }
            Proc3::Rename => {
                WccData::unpack(&mut dec)?;
                WccData::unpack(&mut dec)?;
            }
            Proc3::Link => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                WccData::unpack(&mut dec)?;
            }
            Proc3::Readdir => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    dec.get_opaque_fixed_ref(8)?;
                    while dec.get_bool()? {
                        dec.get_u64()?;
                        dec.get_str_ref()?;
                        dec.get_u64()?;
                    }
                    dec.get_bool()?;
                }
            }
            Proc3::Readdirplus => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    dec.get_opaque_fixed_ref(8)?;
                    while dec.get_bool()? {
                        dec.get_u64()?;
                        dec.get_str_ref()?;
                        dec.get_u64()?;
                        Option::<Fattr3>::unpack(&mut dec)?;
                        Option::<FileHandle>::unpack(&mut dec)?;
                    }
                    dec.get_bool()?;
                }
            }
            Proc3::Fsstat => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    for _ in 0..6 {
                        dec.get_u64()?;
                    }
                    dec.get_u32()?;
                }
            }
            Proc3::Fsinfo => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    for _ in 0..7 {
                        dec.get_u32()?;
                    }
                    dec.get_u64()?;
                    crate::types::NfsTime3::unpack(&mut dec)?;
                    dec.get_u32()?;
                }
            }
            Proc3::Pathconf => {
                let _attrs: Option<Fattr3> = Option::unpack(&mut dec)?;
                if ok {
                    dec.get_u32()?;
                    dec.get_u32()?;
                    for _ in 0..4 {
                        dec.get_bool()?;
                    }
                }
            }
            Proc3::Commit => {
                WccData::unpack(&mut dec)?;
                if ok {
                    dec.get_opaque_fixed_ref(8)?;
                }
            }
        }
        Ok(f)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::types::{NfsTime3, WccAttr};

    fn roundtrip(proc: Proc3, reply: Reply3) {
        let bytes = reply.encode_results();
        let got = Reply3::decode(proc, &bytes).unwrap();
        assert_eq!(got, reply);
    }

    fn attrs(size: u64) -> Fattr3 {
        Fattr3 {
            size,
            used: size,
            fileid: 7,
            ..Fattr3::default()
        }
    }

    #[test]
    fn getattr_ok_roundtrip() {
        roundtrip(
            Proc3::Getattr,
            Reply3::ok(Reply3Body::Getattr(Getattr3Res {
                attributes: Some(attrs(100)),
            })),
        );
    }

    #[test]
    fn getattr_err_roundtrip() {
        roundtrip(
            Proc3::Getattr,
            Reply3::error(Proc3::Getattr, NfsStat3::Stale),
        );
    }

    #[test]
    fn lookup_roundtrips() {
        roundtrip(
            Proc3::Lookup,
            Reply3::ok(Reply3Body::Lookup(Lookup3Res {
                object: Some(FileHandle::from_u64(5)),
                obj_attributes: Some(attrs(2048)),
                dir_attributes: None,
            })),
        );
        roundtrip(Proc3::Lookup, Reply3::error(Proc3::Lookup, NfsStat3::NoEnt));
    }

    #[test]
    fn read_roundtrips() {
        roundtrip(
            Proc3::Read,
            Reply3::ok(Reply3Body::Read(Read3Res {
                file_attributes: Some(attrs(1 << 21)),
                count: 8192,
                eof: false,
                data: vec![0u8; 8192],
            })),
        );
        roundtrip(Proc3::Read, Reply3::error(Proc3::Read, NfsStat3::Io));
    }

    #[test]
    fn write_roundtrips() {
        roundtrip(
            Proc3::Write,
            Reply3::ok(Reply3Body::Write(Write3Res {
                wcc: WccData {
                    before: Some(WccAttr {
                        size: 100,
                        mtime: NfsTime3::from_micros(1),
                        ctime: NfsTime3::from_micros(2),
                    }),
                    after: Some(attrs(200)),
                },
                count: 100,
                committed: 2,
                verf: [3; 8],
            })),
        );
    }

    #[test]
    fn create_family_roundtrips() {
        for proc in [Proc3::Create, Proc3::Mkdir, Proc3::Symlink, Proc3::Mknod] {
            let res = Create3Res {
                obj: Some(FileHandle::from_u64(77)),
                obj_attributes: Some(attrs(0)),
                dir_wcc: WccData::default(),
            };
            let body = match proc {
                Proc3::Create => Reply3Body::Create(res),
                Proc3::Mkdir => Reply3Body::Mkdir(res),
                Proc3::Symlink => Reply3Body::Symlink(res),
                _ => Reply3Body::Mknod(res),
            };
            roundtrip(proc, Reply3::ok(body));
            roundtrip(proc, Reply3::error(proc, NfsStat3::Exist));
        }
    }

    #[test]
    fn readdir_roundtrips() {
        roundtrip(
            Proc3::Readdir,
            Reply3::ok(Reply3Body::Readdir(Readdir3Res {
                dir_attributes: Some(attrs(4096)),
                cookieverf: [1; 8],
                entries: vec![
                    DirEntry3 {
                        fileid: 1,
                        name: ".".into(),
                        cookie: 1,
                    },
                    DirEntry3 {
                        fileid: 2,
                        name: "inbox".into(),
                        cookie: 2,
                    },
                ],
                eof: true,
            })),
        );
    }

    #[test]
    fn readdirplus_roundtrips() {
        roundtrip(
            Proc3::Readdirplus,
            Reply3::ok(Reply3Body::Readdirplus(Readdirplus3Res {
                dir_attributes: None,
                cookieverf: [0; 8],
                entries: vec![DirEntryPlus3 {
                    fileid: 3,
                    name: ".pinerc".into(),
                    cookie: 9,
                    name_attributes: Some(attrs(11 * 1024)),
                    name_handle: Some(FileHandle::from_u64(3)),
                }],
                eof: false,
            })),
        );
    }

    #[test]
    fn fs_info_family_roundtrips() {
        roundtrip(
            Proc3::Fsstat,
            Reply3::ok(Reply3Body::Fsstat(Fsstat3Res {
                obj_attributes: Some(attrs(0)),
                tbytes: 53 * 1_000_000_000,
                fbytes: 10_000_000_000,
                abytes: 10_000_000_000,
                tfiles: 1_000_000,
                ffiles: 900_000,
                afiles: 900_000,
                invarsec: 0,
            })),
        );
        roundtrip(
            Proc3::Fsinfo,
            Reply3::ok(Reply3Body::Fsinfo(Fsinfo3Res {
                rtmax: 32768,
                rtpref: 32768,
                wtmax: 32768,
                wtpref: 32768,
                dtpref: 8192,
                maxfilesize: u64::MAX,
                ..Fsinfo3Res::default()
            })),
        );
        roundtrip(
            Proc3::Pathconf,
            Reply3::ok(Reply3Body::Pathconf(Pathconf3Res {
                linkmax: 32767,
                name_max: 255,
                no_trunc: true,
                case_preserving: true,
                ..Pathconf3Res::default()
            })),
        );
        roundtrip(
            Proc3::Commit,
            Reply3::ok(Reply3Body::Commit(Commit3Res {
                wcc: WccData::default(),
                verf: [5; 8],
            })),
        );
    }

    #[test]
    fn remove_rename_link_roundtrips() {
        roundtrip(
            Proc3::Remove,
            Reply3::ok(Reply3Body::Remove(Remove3Res::default())),
        );
        roundtrip(
            Proc3::Rename,
            Reply3::ok(Reply3Body::Rename(Rename3Res::default())),
        );
        roundtrip(
            Proc3::Link,
            Reply3::ok(Reply3Body::Link(Link3Res {
                file_attributes: Some(attrs(1)),
                dir_wcc: WccData::default(),
            })),
        );
        roundtrip(
            Proc3::Access,
            Reply3::ok(Reply3Body::Access(Access3Res {
                obj_attributes: Some(attrs(1)),
                access: 0x1f,
            })),
        );
        roundtrip(
            Proc3::Readlink,
            Reply3::ok(Reply3Body::Readlink(Readlink3Res {
                obj_attributes: None,
                target: "/somewhere/else".into(),
            })),
        );
        roundtrip(
            Proc3::Setattr,
            Reply3::ok(Reply3Body::Setattr(Setattr3Res::default())),
        );
    }

    #[test]
    fn null_has_empty_encoding() {
        let r = Reply3::ok(Reply3Body::Null);
        assert!(r.encode_results().is_empty());
        assert_eq!(Reply3::decode(Proc3::Null, &[]).unwrap(), r);
    }

    /// Test-local mirror of the canonical flattener's reply mapping:
    /// the facts a fully-decoded reply would contribute to a record.
    fn facts_of(reply: &Reply3) -> ReplyFacts3 {
        let mut f = ReplyFacts3 {
            status: reply.status,
            pre_size: None,
            post_size: None,
            ftype: None,
            ret_count: None,
            eof: None,
            new_fh: None,
        };
        let post = |f: &mut ReplyFacts3, attrs: Option<Fattr3>| {
            if let Some(a) = attrs {
                f.post_size = Some(a.size);
                f.ftype = Some(a.ftype);
            }
        };
        match &reply.body {
            Reply3Body::Getattr(res) => post(&mut f, res.attributes),
            Reply3Body::Setattr(res) => {
                f.pre_size = res.wcc.before.map(|b| b.size);
                f.post_size = res.wcc.after.map(|a| a.size);
            }
            Reply3Body::Lookup(res) => {
                f.new_fh = res.object.clone();
                post(&mut f, res.obj_attributes);
            }
            Reply3Body::Read(res) => {
                f.ret_count = Some(res.count);
                f.eof = Some(res.eof);
                post(&mut f, res.file_attributes);
            }
            Reply3Body::Write(res) => {
                f.ret_count = Some(res.count);
                f.pre_size = res.wcc.before.map(|b| b.size);
                f.post_size = res.wcc.after.map(|a| a.size);
            }
            Reply3Body::Create(res)
            | Reply3Body::Mkdir(res)
            | Reply3Body::Symlink(res)
            | Reply3Body::Mknod(res) => {
                f.new_fh = res.obj.clone();
                post(&mut f, res.obj_attributes);
            }
            _ => {}
        }
        f
    }

    pub(crate) fn sample_replies() -> Vec<(Proc3, Reply3)> {
        let wcc = WccData {
            before: Some(WccAttr {
                size: 100,
                mtime: NfsTime3::from_micros(1),
                ctime: NfsTime3::from_micros(2),
            }),
            after: Some(attrs(200)),
        };
        let mut samples = vec![
            (Proc3::Null, Reply3::ok(Reply3Body::Null)),
            (
                Proc3::Getattr,
                Reply3::ok(Reply3Body::Getattr(Getattr3Res {
                    attributes: Some(attrs(100)),
                })),
            ),
            (
                Proc3::Setattr,
                Reply3::ok(Reply3Body::Setattr(Setattr3Res { wcc })),
            ),
            (
                Proc3::Lookup,
                Reply3::ok(Reply3Body::Lookup(Lookup3Res {
                    object: Some(FileHandle::from_u64(5)),
                    obj_attributes: Some(attrs(2048)),
                    dir_attributes: Some(attrs(4096)),
                })),
            ),
            (
                Proc3::Access,
                Reply3::ok(Reply3Body::Access(Access3Res {
                    obj_attributes: Some(attrs(1)),
                    access: 0x1f,
                })),
            ),
            (
                Proc3::Readlink,
                Reply3::ok(Reply3Body::Readlink(Readlink3Res {
                    obj_attributes: None,
                    target: "/somewhere/else".into(),
                })),
            ),
            (
                Proc3::Read,
                Reply3::ok(Reply3Body::Read(Read3Res {
                    file_attributes: Some(attrs(1 << 21)),
                    count: 8192,
                    eof: true,
                    data: vec![7u8; 8192],
                })),
            ),
            (
                Proc3::Write,
                Reply3::ok(Reply3Body::Write(Write3Res {
                    wcc,
                    count: 100,
                    committed: 2,
                    verf: [3; 8],
                })),
            ),
            (
                Proc3::Remove,
                Reply3::ok(Reply3Body::Remove(Remove3Res { dir_wcc: wcc })),
            ),
            (
                Proc3::Rename,
                Reply3::ok(Reply3Body::Rename(Rename3Res {
                    from_wcc: wcc,
                    to_wcc: WccData::default(),
                })),
            ),
            (
                Proc3::Link,
                Reply3::ok(Reply3Body::Link(Link3Res {
                    file_attributes: Some(attrs(1)),
                    dir_wcc: wcc,
                })),
            ),
            (
                Proc3::Readdir,
                Reply3::ok(Reply3Body::Readdir(Readdir3Res {
                    dir_attributes: Some(attrs(4096)),
                    cookieverf: [1; 8],
                    entries: vec![
                        DirEntry3 {
                            fileid: 1,
                            name: ".".into(),
                            cookie: 1,
                        },
                        DirEntry3 {
                            fileid: 2,
                            name: "inbox".into(),
                            cookie: 2,
                        },
                    ],
                    eof: true,
                })),
            ),
            (
                Proc3::Readdirplus,
                Reply3::ok(Reply3Body::Readdirplus(Readdirplus3Res {
                    dir_attributes: None,
                    cookieverf: [0; 8],
                    entries: vec![DirEntryPlus3 {
                        fileid: 3,
                        name: ".pinerc".into(),
                        cookie: 9,
                        name_attributes: Some(attrs(11 * 1024)),
                        name_handle: Some(FileHandle::from_u64(3)),
                    }],
                    eof: false,
                })),
            ),
            (
                Proc3::Fsstat,
                Reply3::ok(Reply3Body::Fsstat(Fsstat3Res {
                    obj_attributes: Some(attrs(0)),
                    tbytes: 53 * 1_000_000_000,
                    ..Fsstat3Res::default()
                })),
            ),
            (
                Proc3::Fsinfo,
                Reply3::ok(Reply3Body::Fsinfo(Fsinfo3Res {
                    rtmax: 32768,
                    maxfilesize: u64::MAX,
                    ..Fsinfo3Res::default()
                })),
            ),
            (
                Proc3::Pathconf,
                Reply3::ok(Reply3Body::Pathconf(Pathconf3Res {
                    linkmax: 32767,
                    name_max: 255,
                    no_trunc: true,
                    ..Pathconf3Res::default()
                })),
            ),
            (
                Proc3::Commit,
                Reply3::ok(Reply3Body::Commit(Commit3Res { wcc, verf: [5; 8] })),
            ),
        ];
        for proc in [Proc3::Create, Proc3::Mkdir, Proc3::Symlink, Proc3::Mknod] {
            let res = Create3Res {
                obj: Some(FileHandle::from_u64(77)),
                obj_attributes: Some(attrs(0)),
                dir_wcc: wcc,
            };
            let body = match proc {
                Proc3::Create => Reply3Body::Create(res),
                Proc3::Mkdir => Reply3Body::Mkdir(res),
                Proc3::Symlink => Reply3Body::Symlink(res),
                _ => Reply3Body::Mknod(res),
            };
            samples.push((proc, Reply3::ok(body)));
        }
        // Error arms for every procedure, including ones whose error
        // encoding still carries attributes or wcc data.
        for proc in Proc3::ALL {
            samples.push((proc, Reply3::error(proc, NfsStat3::Stale)));
        }
        samples.push((
            Proc3::Read,
            Reply3 {
                status: NfsStat3::Io,
                body: Reply3Body::Read(Read3Res {
                    file_attributes: Some(attrs(512)),
                    ..Read3Res::default()
                }),
            },
        ));
        samples.push((
            Proc3::Write,
            Reply3 {
                status: NfsStat3::Io,
                body: Reply3Body::Write(Write3Res {
                    wcc,
                    ..Write3Res::default()
                }),
            },
        ));
        samples
    }

    #[test]
    fn facts_decode_matches_full_decode() {
        for (proc, reply) in sample_replies() {
            let bytes = reply.encode_results();
            let full = Reply3::decode(proc, &bytes).unwrap();
            let facts = ReplyFacts3::decode(proc, &bytes).unwrap();
            assert_eq!(facts, facts_of(&full), "{proc:?}");
        }
    }

    #[test]
    fn facts_decode_fails_exactly_when_full_decode_fails() {
        for (proc, reply) in sample_replies() {
            let bytes = reply.encode_results();
            for cut in 0..bytes.len() {
                let facts = ReplyFacts3::decode(proc, &bytes[..cut]);
                let full = Reply3::decode(proc, &bytes[..cut]);
                match (facts, full) {
                    (Ok(f), Ok(r)) => assert_eq!(f, facts_of(&r), "{proc:?} cut {cut}"),
                    (Err(fe), Err(re)) => assert_eq!(fe, re, "{proc:?} cut {cut}"),
                    (f, r) => panic!("{proc:?} cut {cut}: facts {f:?} vs full {r:?}"),
                }
            }
        }
    }

    /// `encode ∘ decode == id` over every one of the 22 v3 procedures'
    /// reply results (success and error arms both), plus the truncation
    /// sweep: any strict prefix of a canonical encoding either fails to
    /// decode or decodes to a value whose re-encoding is exactly that
    /// prefix. NULL is the one wire-degenerate procedure — its results
    /// are empty, so every decode is the void success reply.
    #[test]
    fn every_procedure_roundtrips_and_survives_truncation() {
        let replies = sample_replies();
        for proc in Proc3::ALL {
            assert!(
                replies.iter().any(|(p, _)| *p == proc),
                "{proc:?} has no reply sample"
            );
        }
        for (proc, reply) in replies {
            let bytes = reply.encode_results();
            let decoded = Reply3::decode(proc, &bytes).unwrap();
            if proc == Proc3::Null {
                assert!(bytes.is_empty(), "NULL results must be void");
                assert_eq!(decoded, Reply3::ok(Reply3Body::Null));
                continue;
            }
            assert_eq!(decoded, reply, "{proc:?}");
            for cut in 0..bytes.len() {
                if let Ok(got) = Reply3::decode(proc, &bytes[..cut]) {
                    assert_eq!(got.encode_results(), &bytes[..cut], "{proc:?} cut {cut}");
                }
            }
        }
    }
}
