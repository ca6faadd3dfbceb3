//! Canonical flattening of paired NFS calls/replies into trace records.
//!
//! Used by both the packet-decoding sniffer and (via `nfstrace-workload`)
//! the fast in-memory simulation path, so the two paths cannot drift.

use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_nfs::v2::{Call2, Call2View, Proc2, Reply2, ReplyFacts2};
use nfstrace_nfs::v3::{Call3, Call3View, Proc3, Reply3, Reply3Body, ReplyFacts3};

/// Timing and identity context for one paired call/reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallMeta {
    /// Capture time of the call.
    pub wire_micros: u64,
    /// Capture time of the reply (0 if lost).
    pub reply_micros: u64,
    /// RPC XID.
    pub xid: u32,
    /// Client IP.
    pub client: u32,
    /// Server IP.
    pub server: u32,
    /// Credential uid.
    pub uid: u32,
    /// Credential gid.
    pub gid: u32,
    /// Protocol version (2 or 3).
    pub vers: u8,
}

fn base_record(meta: &CallMeta, op: Op) -> TraceRecord {
    let mut r = TraceRecord::new(meta.wire_micros, op, FileId(0));
    r.reply_micros = meta.reply_micros;
    r.client = meta.client;
    r.server = meta.server;
    r.uid = meta.uid;
    r.gid = meta.gid;
    r.xid = meta.xid;
    r.vers = meta.vers;
    r
}

/// Maps an NFSv3 procedure to the version-independent op.
pub(crate) fn op_of_proc3(proc: Proc3) -> Op {
    match proc {
        Proc3::Null => Op::Null,
        Proc3::Getattr => Op::Getattr,
        Proc3::Setattr => Op::Setattr,
        Proc3::Lookup => Op::Lookup,
        Proc3::Access => Op::Access,
        Proc3::Readlink => Op::Readlink,
        Proc3::Read => Op::Read,
        Proc3::Write => Op::Write,
        Proc3::Create => Op::Create,
        Proc3::Mkdir => Op::Mkdir,
        Proc3::Symlink => Op::Symlink,
        Proc3::Mknod => Op::Mknod,
        Proc3::Remove => Op::Remove,
        Proc3::Rmdir => Op::Rmdir,
        Proc3::Rename => Op::Rename,
        Proc3::Link => Op::Link,
        Proc3::Readdir => Op::Readdir,
        Proc3::Readdirplus => Op::Readdirplus,
        Proc3::Fsstat => Op::Fsstat,
        Proc3::Fsinfo => Op::Fsinfo,
        Proc3::Pathconf => Op::Pathconf,
        Proc3::Commit => Op::Commit,
    }
}

/// Maps an NFSv2 procedure to the version-independent op.
pub(crate) fn op_of_proc2(proc: Proc2) -> Op {
    match proc {
        Proc2::Null | Proc2::Root | Proc2::Writecache => Op::Null,
        Proc2::Getattr => Op::Getattr,
        Proc2::Setattr => Op::Setattr,
        Proc2::Lookup => Op::Lookup,
        Proc2::Readlink => Op::Readlink,
        Proc2::Read => Op::Read,
        Proc2::Write => Op::Write,
        Proc2::Create => Op::Create,
        Proc2::Remove => Op::Remove,
        Proc2::Rename => Op::Rename,
        Proc2::Link => Op::Link,
        Proc2::Symlink => Op::Symlink,
        Proc2::Mkdir => Op::Mkdir,
        Proc2::Rmdir => Op::Rmdir,
        Proc2::Readdir => Op::Readdir,
        Proc2::Statfs => Op::Statfs,
    }
}

fn fid(fh: &nfstrace_nfs::fh::FileHandle) -> FileId {
    FileId(fh.as_u64().unwrap_or(0))
}

/// Flattens an NFSv3 call/reply pair.
pub fn v3_to_record(meta: &CallMeta, call: &Call3, reply: &Reply3) -> TraceRecord {
    let mut r = base_record(meta, op_of_proc3(call.proc()));
    r.status = reply.status.as_u32();

    match call {
        Call3::Null => {}
        Call3::Getattr(a)
        | Call3::Readlink(a)
        | Call3::Fsstat(a)
        | Call3::Fsinfo(a)
        | Call3::Pathconf(a) => r.fh = fid(&a.object),
        Call3::Setattr(a) => {
            r.fh = fid(&a.object);
            r.truncate_to = a.new_attributes.size;
        }
        Call3::Lookup(a) | Call3::Remove(a) | Call3::Rmdir(a) => {
            r.fh = fid(&a.dir);
            r.name = Some(a.name.clone());
        }
        Call3::Access(a) => r.fh = fid(&a.object),
        Call3::Read(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
        Call3::Write(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
        Call3::Create(a) => {
            r.fh = fid(&a.where_.dir);
            r.name = Some(a.where_.name.clone());
        }
        Call3::Mkdir(a) => {
            r.fh = fid(&a.where_.dir);
            r.name = Some(a.where_.name.clone());
        }
        Call3::Symlink(a) => {
            r.fh = fid(&a.where_.dir);
            r.name = Some(a.where_.name.clone());
        }
        Call3::Mknod(a) => {
            r.fh = fid(&a.where_.dir);
            r.name = Some(a.where_.name.clone());
        }
        Call3::Rename(a) => {
            r.fh = fid(&a.from.dir);
            r.name = Some(a.from.name.clone());
            r.fh2 = Some(fid(&a.to.dir));
            r.name2 = Some(a.to.name.clone());
        }
        Call3::Link(a) => {
            r.fh = fid(&a.file);
            r.fh2 = Some(fid(&a.link.dir));
            r.name = Some(a.link.name.clone());
        }
        Call3::Readdir(a) => r.fh = fid(&a.dir),
        Call3::Readdirplus(a) => r.fh = fid(&a.dir),
        Call3::Commit(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
    }

    match &reply.body {
        Reply3Body::Getattr(res) => {
            if let Some(a) = res.attributes {
                r.post_size = Some(a.size);
                r.ftype = Some(a.ftype.as_u32() as u8);
            }
        }
        Reply3Body::Setattr(res) => {
            r.pre_size = res.wcc.before.map(|b| b.size);
            r.post_size = res.wcc.after.map(|a| a.size);
        }
        Reply3Body::Lookup(res) => {
            if let Some(obj) = &res.object {
                r.new_fh = Some(fid(obj));
            }
            if let Some(a) = res.obj_attributes {
                r.post_size = Some(a.size);
                r.ftype = Some(a.ftype.as_u32() as u8);
            }
        }
        Reply3Body::Read(res) => {
            r.ret_count = res.count;
            r.eof = res.eof;
            if let Some(a) = res.file_attributes {
                r.post_size = Some(a.size);
                r.ftype = Some(a.ftype.as_u32() as u8);
            }
        }
        Reply3Body::Write(res) => {
            r.ret_count = res.count;
            r.pre_size = res.wcc.before.map(|b| b.size);
            r.post_size = res.wcc.after.map(|a| a.size);
        }
        Reply3Body::Create(res)
        | Reply3Body::Mkdir(res)
        | Reply3Body::Symlink(res)
        | Reply3Body::Mknod(res) => {
            if let Some(obj) = &res.obj {
                r.new_fh = Some(fid(obj));
            }
            if let Some(a) = res.obj_attributes {
                r.post_size = Some(a.size);
                r.ftype = Some(a.ftype.as_u32() as u8);
            }
        }
        _ => {}
    }
    r
}

/// Flattens an NFSv2 call/reply pair.
pub fn v2_to_record(meta: &CallMeta, call: &Call2, reply: &Reply2) -> TraceRecord {
    let mut r = base_record(meta, op_of_proc2(call.proc()));
    r.vers = 2;
    r.status = reply.status().as_u32();

    match call {
        Call2::Null | Call2::Root | Call2::Writecache => {}
        Call2::Getattr(fh) | Call2::Readlink(fh) | Call2::Statfs(fh) => r.fh = fid(fh),
        Call2::Setattr { file, attributes } => {
            r.fh = fid(file);
            r.truncate_to = attributes.size_opt().map(u64::from);
        }
        Call2::Lookup(a) | Call2::Remove(a) | Call2::Rmdir(a) => {
            r.fh = fid(&a.dir);
            r.name = Some(a.name.clone());
        }
        Call2::Read {
            file,
            offset,
            count,
            ..
        } => {
            r.fh = fid(file);
            r.offset = u64::from(*offset);
            r.count = *count;
        }
        Call2::Write {
            file, offset, data, ..
        } => {
            r.fh = fid(file);
            r.offset = u64::from(*offset);
            r.count = data.len() as u32;
        }
        Call2::Create { where_, .. } | Call2::Mkdir { where_, .. } => {
            r.fh = fid(&where_.dir);
            r.name = Some(where_.name.clone());
        }
        Call2::Rename { from, to } => {
            r.fh = fid(&from.dir);
            r.name = Some(from.name.clone());
            r.fh2 = Some(fid(&to.dir));
            r.name2 = Some(to.name.clone());
        }
        Call2::Link { from, to } => {
            r.fh = fid(from);
            r.fh2 = Some(fid(&to.dir));
            r.name = Some(to.name.clone());
        }
        Call2::Symlink { where_, .. } => {
            r.fh = fid(&where_.dir);
            r.name = Some(where_.name.clone());
        }
        Call2::Readdir { dir, .. } => r.fh = fid(dir),
    }

    match reply {
        Reply2::AttrStat {
            attributes: Some(a),
            ..
        } => {
            r.post_size = Some(u64::from(a.size));
            r.ftype = Some(a.ftype.as_u32() as u8);
            if r.op == Op::Write {
                r.ret_count = r.count;
            }
        }
        Reply2::DirOpRes {
            file: Some(fh),
            attributes,
            ..
        } => {
            r.new_fh = Some(fid(fh));
            if let Some(a) = attributes {
                r.post_size = Some(u64::from(a.size));
                r.ftype = Some(a.ftype.as_u32() as u8);
            }
        }
        Reply2::Read {
            attributes, data, ..
        } => {
            r.ret_count = data.len() as u32;
            if let Some(a) = attributes {
                r.post_size = Some(u64::from(a.size));
                r.ftype = Some(a.ftype.as_u32() as u8);
                // v2 READ has no eof flag; infer it from the size.
                r.eof = r.offset + u64::from(r.ret_count) >= u64::from(a.size);
            }
        }
        _ => {}
    }
    r
}

/// Builds the call-side half of a trace record from a borrowed NFSv3
/// call view, materializing names exactly once.
///
/// Together with [`v3_apply_facts`] this produces byte-identical output
/// to [`v3_to_record`] without ever constructing an owned [`Call3`] or
/// [`Reply3`]; the wire-speed sniffer path uses this pair while the
/// canonical flattener stays as the oracle.
pub fn v3_call_record(meta: &CallMeta, call: &Call3View<'_>) -> TraceRecord {
    let mut r = base_record(meta, op_of_proc3(call.proc()));
    match call {
        Call3View::Null => {}
        Call3View::Getattr(a)
        | Call3View::Readlink(a)
        | Call3View::Fsstat(a)
        | Call3View::Fsinfo(a)
        | Call3View::Pathconf(a) => r.fh = fid(&a.object),
        Call3View::Setattr(a) => {
            r.fh = fid(&a.object);
            r.truncate_to = a.new_attributes.size;
        }
        Call3View::Lookup(a) | Call3View::Remove(a) | Call3View::Rmdir(a) => {
            r.fh = fid(&a.dir);
            r.name = Some(a.name.to_owned());
        }
        Call3View::Access(a) => r.fh = fid(&a.object),
        Call3View::Read(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
        Call3View::Write(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
        Call3View::Create { where_, .. }
        | Call3View::Mkdir { where_, .. }
        | Call3View::Mknod { where_, .. } => {
            r.fh = fid(&where_.dir);
            r.name = Some(where_.name.to_owned());
        }
        Call3View::Symlink(a) => {
            r.fh = fid(&a.where_.dir);
            r.name = Some(a.where_.name.to_owned());
        }
        Call3View::Rename { from, to } => {
            r.fh = fid(&from.dir);
            r.name = Some(from.name.to_owned());
            r.fh2 = Some(fid(&to.dir));
            r.name2 = Some(to.name.to_owned());
        }
        Call3View::Link { file, link } => {
            r.fh = fid(file);
            r.fh2 = Some(fid(&link.dir));
            r.name = Some(link.name.to_owned());
        }
        Call3View::Readdir(a) => r.fh = fid(&a.dir),
        Call3View::Readdirplus(a) => r.fh = fid(&a.dir),
        Call3View::Commit(a) => {
            r.fh = fid(&a.file);
            r.offset = a.offset;
            r.count = a.count;
        }
    }
    r
}

/// Fills the reply-side fields of a call-time record from streamed
/// NFSv3 reply facts.
///
/// `Some` facts overwrite the corresponding fields; `None` leaves them
/// at their call-time defaults, exactly as [`v3_to_record`] leaves them
/// untouched for procedures whose replies carry no such field.
pub fn v3_apply_facts(r: &mut TraceRecord, reply_micros: u64, facts: &ReplyFacts3) {
    r.reply_micros = reply_micros;
    r.status = facts.status.as_u32();
    if let Some(count) = facts.ret_count {
        r.ret_count = count;
    }
    if let Some(eof) = facts.eof {
        r.eof = eof;
    }
    r.pre_size = facts.pre_size;
    r.post_size = facts.post_size;
    r.ftype = facts.ftype.map(|t| t.as_u32() as u8);
    if let Some(fh) = &facts.new_fh {
        r.new_fh = Some(fid(fh));
    }
}

/// Builds the call-side half of a trace record from a borrowed NFSv2
/// call view; the v2 twin of [`v3_call_record`].
pub(crate) fn v2_call_record(meta: &CallMeta, call: &Call2View<'_>) -> TraceRecord {
    let mut r = base_record(meta, op_of_proc2(call.proc()));
    r.vers = 2;
    match call {
        Call2View::Null | Call2View::Root | Call2View::Writecache => {}
        Call2View::Getattr(fh) | Call2View::Readlink(fh) | Call2View::Statfs(fh) => r.fh = fid(fh),
        Call2View::Setattr { file, attributes } => {
            r.fh = fid(file);
            r.truncate_to = attributes.size_opt().map(u64::from);
        }
        Call2View::Lookup(a) | Call2View::Remove(a) | Call2View::Rmdir(a) => {
            r.fh = fid(&a.dir);
            r.name = Some(a.name.to_owned());
        }
        Call2View::Read {
            file,
            offset,
            count,
            ..
        } => {
            r.fh = fid(file);
            r.offset = u64::from(*offset);
            r.count = *count;
        }
        Call2View::Write {
            file, offset, data, ..
        } => {
            r.fh = fid(file);
            r.offset = u64::from(*offset);
            r.count = data.len() as u32;
        }
        Call2View::Create { where_, .. } | Call2View::Mkdir { where_, .. } => {
            r.fh = fid(&where_.dir);
            r.name = Some(where_.name.to_owned());
        }
        Call2View::Rename { from, to } => {
            r.fh = fid(&from.dir);
            r.name = Some(from.name.to_owned());
            r.fh2 = Some(fid(&to.dir));
            r.name2 = Some(to.name.to_owned());
        }
        Call2View::Link { from, to } => {
            r.fh = fid(from);
            r.fh2 = Some(fid(&to.dir));
            r.name = Some(to.name.to_owned());
        }
        Call2View::Symlink { where_, .. } => {
            r.fh = fid(&where_.dir);
            r.name = Some(where_.name.to_owned());
        }
        Call2View::Readdir { dir, .. } => r.fh = fid(dir),
    }
    r
}

/// Fills the reply-side fields of a call-time record from streamed
/// NFSv2 reply facts; the v2 twin of [`v3_apply_facts`].
///
/// A `Some` `ret_count` means the reply was a `READ`, which is the only
/// v2 reply carrying a payload length; the derived fields the canonical
/// flattener computes — the inferred `READ` eof and the `WRITE`
/// `ret_count = count` echo — are reproduced here from the call-side
/// fields plus `post_size`.
pub(crate) fn v2_apply_facts(r: &mut TraceRecord, reply_micros: u64, facts: &ReplyFacts2) {
    r.reply_micros = reply_micros;
    r.status = facts.status.as_u32();
    if let Some(fh) = &facts.new_fh {
        r.new_fh = Some(fid(fh));
    }
    if let Some(count) = facts.ret_count {
        r.ret_count = count;
        if let Some(size) = facts.post_size {
            r.post_size = Some(size);
            r.ftype = facts.ftype.map(|t| t.as_u32() as u8);
            // v2 READ has no eof flag; infer it from the size.
            r.eof = r.offset + u64::from(count) >= size;
        }
    } else if let Some(size) = facts.post_size {
        r.post_size = Some(size);
        r.ftype = facts.ftype.map(|t| t.as_u32() as u8);
        if r.op == Op::Write {
            r.ret_count = r.count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_nfs::fh::FileHandle;
    use nfstrace_nfs::types::{Fattr3, NfsStat3};
    use nfstrace_nfs::v2::Fattr2;
    use nfstrace_nfs::v3::{Read3Args, Read3Res};

    fn meta() -> CallMeta {
        CallMeta {
            wire_micros: 100,
            reply_micros: 400,
            xid: 7,
            client: 1,
            server: 2,
            uid: 3,
            gid: 4,
            vers: 3,
        }
    }

    #[test]
    fn v3_read_mapping() {
        let call = Call3::Read(Read3Args {
            file: FileHandle::from_u64(9),
            offset: 8192,
            count: 8192,
        });
        let reply = Reply3::ok(Reply3Body::Read(Read3Res {
            file_attributes: Some(Fattr3 {
                size: 16384,
                ..Fattr3::default()
            }),
            count: 8192,
            eof: true,
            data: vec![0; 8192],
        }));
        let r = v3_to_record(&meta(), &call, &reply);
        assert_eq!(r.op, Op::Read);
        assert_eq!(r.fh, FileId(9));
        assert_eq!(r.offset, 8192);
        assert_eq!(r.ret_count, 8192);
        assert!(r.eof);
        assert_eq!(r.post_size, Some(16384));
        assert_eq!(r.latency_micros(), Some(300));
    }

    #[test]
    fn v2_read_infers_eof() {
        let call = Call2::Read {
            file: FileHandle::from_u64(5),
            offset: 4096,
            count: 4096,
            totalcount: 0,
        };
        let reply = Reply2::Read {
            status: NfsStat3::Ok,
            attributes: Some(Fattr2 {
                size: 8192,
                ..Fattr2::default()
            }),
            data: vec![0; 4096],
        };
        let r = v2_to_record(&meta(), &call, &reply);
        assert_eq!(r.vers, 2);
        assert!(r.eof);
        assert_eq!(r.post_size, Some(8192));
    }

    #[test]
    fn v2_lookup_maps_new_fh() {
        let call = Call2::Lookup(nfstrace_nfs::v2::DirOpArgs2 {
            dir: FileHandle::from_u64(1),
            name: ".cshrc".into(),
        });
        let reply = Reply2::DirOpRes {
            status: NfsStat3::Ok,
            file: Some(FileHandle::from_u64(33)),
            attributes: Some(Fattr2::default()),
        };
        let r = v2_to_record(&meta(), &call, &reply);
        assert_eq!(r.op, Op::Lookup);
        assert_eq!(r.new_fh, Some(FileId(33)));
        assert_eq!(r.name.as_deref(), Some(".cshrc"));
    }

    #[test]
    fn error_status_propagates() {
        let call = Call3::Getattr(nfstrace_nfs::v3::FhArgs {
            object: FileHandle::from_u64(1),
        });
        let reply = Reply3::error(Proc3::Getattr, NfsStat3::Stale);
        let r = v3_to_record(&meta(), &call, &reply);
        assert!(!r.is_ok());
        assert_eq!(r.status, NfsStat3::Stale.as_u32());
    }

    mod streaming_equivalence {
        //! The view-based call-record/apply-facts pair must produce
        //! byte-identical records to the canonical owned flattener over
        //! every call variant and every reply arm the flattener reads.

        use super::super::*;
        use super::meta;
        use nfstrace_nfs::fh::FileHandle;
        use nfstrace_nfs::types::{Fattr3, NfsStat3, Sattr3, WccAttr, WccData};
        use nfstrace_nfs::v2::{DirEntry2, DirOpArgs2, Fattr2, Sattr2};
        use nfstrace_nfs::v3::{
            Access3Args, Commit3Args, Create3Args, Create3Res, CreateHow, DirOpArgs, FhArgs,
            Getattr3Res, Link3Args, Lookup3Res, Mkdir3Args, Mknod3Args, Read3Args, Read3Res,
            Readdir3Args, Readdirplus3Args, Rename3Args, ReplyFacts3, Setattr3Args, Setattr3Res,
            StableHow, Symlink3Args, Write3Args, Write3Res,
        };

        fn fh(n: u64) -> FileHandle {
            FileHandle::from_u64(n)
        }

        fn dir_op(n: u64, name: &str) -> DirOpArgs {
            DirOpArgs {
                dir: fh(n),
                name: name.into(),
            }
        }

        fn attrs(size: u64) -> Fattr3 {
            Fattr3 {
                size,
                ..Fattr3::default()
            }
        }

        fn wcc(before: Option<u64>, after: Option<u64>) -> WccData {
            WccData {
                before: before.map(|size| WccAttr {
                    size,
                    ..WccAttr::default()
                }),
                after: after.map(attrs),
            }
        }

        fn sample_calls3() -> Vec<Call3> {
            vec![
                Call3::Null,
                Call3::Getattr(FhArgs { object: fh(1) }),
                Call3::Setattr(Setattr3Args {
                    object: fh(2),
                    new_attributes: Sattr3 {
                        size: Some(4096),
                        ..Sattr3::default()
                    },
                    guard_ctime: None,
                }),
                Call3::Lookup(dir_op(3, "passwd")),
                Call3::Access(Access3Args {
                    object: fh(4),
                    access: 0x1f,
                }),
                Call3::Readlink(FhArgs { object: fh(5) }),
                Call3::Read(Read3Args {
                    file: fh(6),
                    offset: 8192,
                    count: 4096,
                }),
                Call3::Write(Write3Args {
                    file: fh(7),
                    offset: 123,
                    count: 5,
                    stable: StableHow::FileSync,
                    data: b"hello".to_vec(),
                }),
                Call3::Create(Create3Args {
                    where_: dir_op(8, "newfile"),
                    how: CreateHow::Guarded,
                    attributes: Sattr3::default(),
                }),
                Call3::Mkdir(Mkdir3Args {
                    where_: dir_op(9, "newdir"),
                    attributes: Sattr3::default(),
                }),
                Call3::Symlink(Symlink3Args {
                    where_: dir_op(10, "sl"),
                    attributes: Sattr3::default(),
                    target: "../target/path".into(),
                }),
                Call3::Mknod(Mknod3Args {
                    where_: dir_op(11, "dev"),
                    node_type: 4,
                    attributes: Sattr3::default(),
                }),
                Call3::Remove(dir_op(12, "gone")),
                Call3::Rmdir(dir_op(13, "olddir")),
                Call3::Rename(Rename3Args {
                    from: dir_op(14, "old"),
                    to: dir_op(15, "new"),
                }),
                Call3::Link(Link3Args {
                    file: fh(16),
                    link: dir_op(17, "hard"),
                }),
                Call3::Readdir(Readdir3Args {
                    dir: fh(18),
                    ..Readdir3Args::default()
                }),
                Call3::Readdirplus(Readdirplus3Args {
                    dir: fh(19),
                    ..Readdirplus3Args::default()
                }),
                Call3::Fsstat(FhArgs { object: fh(20) }),
                Call3::Fsinfo(FhArgs { object: fh(21) }),
                Call3::Pathconf(FhArgs { object: fh(22) }),
                Call3::Commit(Commit3Args {
                    file: fh(23),
                    offset: 65536,
                    count: 32768,
                }),
            ]
        }

        /// Every reply body the canonical flattener reads something
        /// from, in both populated and empty-optional forms.
        fn replies_for3(proc: Proc3) -> Vec<Reply3> {
            let mut replies = vec![Reply3::error(proc, NfsStat3::Stale)];
            match proc {
                Proc3::Getattr => {
                    replies.push(Reply3::ok(Reply3Body::Getattr(Getattr3Res {
                        attributes: Some(attrs(777)),
                    })));
                }
                Proc3::Setattr => {
                    replies.push(Reply3::ok(Reply3Body::Setattr(Setattr3Res {
                        wcc: wcc(Some(100), Some(200)),
                    })));
                    replies.push(Reply3::ok(Reply3Body::Setattr(Setattr3Res {
                        wcc: wcc(None, None),
                    })));
                }
                Proc3::Lookup => {
                    replies.push(Reply3::ok(Reply3Body::Lookup(Lookup3Res {
                        object: Some(fh(90)),
                        obj_attributes: Some(attrs(333)),
                        dir_attributes: None,
                    })));
                    replies.push(Reply3::ok(Reply3Body::Lookup(Lookup3Res {
                        object: Some(fh(91)),
                        obj_attributes: None,
                        dir_attributes: Some(attrs(1)),
                    })));
                }
                Proc3::Read => {
                    replies.push(Reply3::ok(Reply3Body::Read(Read3Res {
                        file_attributes: Some(attrs(16384)),
                        count: 4096,
                        eof: true,
                        data: vec![0; 4096],
                    })));
                    replies.push(Reply3::ok(Reply3Body::Read(Read3Res {
                        file_attributes: None,
                        count: 100,
                        eof: false,
                        data: vec![0; 100],
                    })));
                }
                Proc3::Write => {
                    replies.push(Reply3::ok(Reply3Body::Write(Write3Res {
                        wcc: wcc(Some(123), Some(128)),
                        count: 5,
                        committed: 2,
                        verf: [9; 8],
                    })));
                }
                Proc3::Create | Proc3::Mkdir | Proc3::Symlink | Proc3::Mknod => {
                    let res = |obj: Option<FileHandle>, a: Option<Fattr3>| Create3Res {
                        obj,
                        obj_attributes: a,
                        dir_wcc: wcc(None, Some(11)),
                    };
                    let wrap = |r: Create3Res| match proc {
                        Proc3::Create => Reply3Body::Create(r),
                        Proc3::Mkdir => Reply3Body::Mkdir(r),
                        Proc3::Symlink => Reply3Body::Symlink(r),
                        _ => Reply3Body::Mknod(r),
                    };
                    replies.push(Reply3::ok(wrap(res(Some(fh(70)), Some(attrs(0))))));
                    replies.push(Reply3::ok(wrap(res(None, None))));
                }
                _ => {}
            }
            replies
        }

        #[test]
        fn v3_streaming_path_matches_canonical_flattener() {
            for call in sample_calls3() {
                let proc = call.proc();
                let args = call.encode_args();
                let view = Call3View::decode(proc, &args).unwrap();
                for reply in replies_for3(proc) {
                    let results = reply.encode_results();
                    let facts = ReplyFacts3::decode(proc, &results).unwrap();

                    let call_meta = CallMeta {
                        reply_micros: 0,
                        ..meta()
                    };
                    let mut streamed = v3_call_record(&call_meta, &view);
                    v3_apply_facts(&mut streamed, meta().reply_micros, &facts);

                    // Feed the oracle what the owned wire path yields:
                    // the sniffer decodes replies from bytes, and e.g. a
                    // NULL reply carries no status on the wire.
                    let wire_reply = Reply3::decode(proc, &results).unwrap();
                    let oracle = v3_to_record(&meta(), &call, &wire_reply);
                    assert_eq!(streamed, oracle, "proc {proc:?}");
                }
            }
        }

        fn sample_calls2() -> Vec<Call2> {
            let dop = |n: u64, name: &str| DirOpArgs2 {
                dir: fh(n),
                name: name.into(),
            };
            vec![
                Call2::Null,
                Call2::Root,
                Call2::Writecache,
                Call2::Getattr(fh(1)),
                Call2::Setattr {
                    file: fh(2),
                    attributes: Sattr2 {
                        size: 512,
                        ..Sattr2::default()
                    },
                },
                Call2::Lookup(dop(3, ".cshrc")),
                Call2::Readlink(fh(4)),
                Call2::Read {
                    file: fh(5),
                    offset: 4096,
                    count: 4096,
                    totalcount: 0,
                },
                Call2::Write {
                    file: fh(6),
                    beginoffset: 0,
                    offset: 100,
                    totalcount: 0,
                    data: b"abcdef".to_vec(),
                },
                Call2::Create {
                    where_: dop(7, "mbox"),
                    attributes: Sattr2::default(),
                },
                Call2::Remove(dop(8, "tmp")),
                Call2::Rename {
                    from: dop(9, "a"),
                    to: dop(10, "b"),
                },
                Call2::Link {
                    from: fh(11),
                    to: dop(12, "ln"),
                },
                Call2::Symlink {
                    where_: dop(13, "sl"),
                    target: "/usr/spool".into(),
                    attributes: Sattr2::default(),
                },
                Call2::Mkdir {
                    where_: dop(14, "d"),
                    attributes: Sattr2::default(),
                },
                Call2::Rmdir(dop(15, "dd")),
                Call2::Readdir {
                    dir: fh(16),
                    cookie: 0,
                    count: 1024,
                },
                Call2::Statfs(fh(17)),
            ]
        }

        fn fattr2(size: u32) -> Fattr2 {
            Fattr2 {
                size,
                ..Fattr2::default()
            }
        }

        fn replies_for2(proc: Proc2) -> Vec<Reply2> {
            match proc {
                Proc2::Null | Proc2::Root | Proc2::Writecache => vec![Reply2::Void],
                Proc2::Getattr | Proc2::Setattr | Proc2::Write => vec![
                    Reply2::AttrStat {
                        status: NfsStat3::Ok,
                        attributes: Some(fattr2(2048)),
                    },
                    Reply2::AttrStat {
                        status: NfsStat3::Stale,
                        attributes: None,
                    },
                ],
                Proc2::Lookup | Proc2::Create | Proc2::Mkdir => vec![
                    Reply2::DirOpRes {
                        status: NfsStat3::Ok,
                        file: Some(fh(44)),
                        attributes: Some(fattr2(99)),
                    },
                    Reply2::DirOpRes {
                        status: NfsStat3::NoEnt,
                        file: None,
                        attributes: None,
                    },
                ],
                Proc2::Read => vec![
                    Reply2::Read {
                        status: NfsStat3::Ok,
                        attributes: Some(fattr2(8192)),
                        data: vec![0; 4096],
                    },
                    Reply2::Read {
                        status: NfsStat3::Stale,
                        attributes: None,
                        data: vec![],
                    },
                ],
                Proc2::Readlink => vec![
                    Reply2::Readlink {
                        status: NfsStat3::Ok,
                        target: "/export/home".into(),
                    },
                    Reply2::Readlink {
                        status: NfsStat3::Stale,
                        target: String::new(),
                    },
                ],
                Proc2::Readdir => vec![
                    Reply2::Readdir {
                        status: NfsStat3::Ok,
                        entries: vec![DirEntry2 {
                            fileid: 9,
                            name: "mbox".into(),
                            cookie: 1,
                        }],
                        eof: true,
                    },
                    Reply2::Readdir {
                        status: NfsStat3::Stale,
                        entries: vec![],
                        eof: false,
                    },
                ],
                Proc2::Statfs => vec![
                    Reply2::Statfs {
                        status: NfsStat3::Ok,
                        info: [8192, 1024, 100, 50, 25],
                    },
                    Reply2::Statfs {
                        status: NfsStat3::Stale,
                        info: [0; 5],
                    },
                ],
                Proc2::Remove | Proc2::Rename | Proc2::Link | Proc2::Symlink | Proc2::Rmdir => {
                    vec![Reply2::Stat(NfsStat3::Ok), Reply2::Stat(NfsStat3::Stale)]
                }
            }
        }

        #[test]
        fn v2_streaming_path_matches_canonical_flattener() {
            for call in sample_calls2() {
                let proc = call.proc();
                let args = call.encode_args();
                let view = Call2View::decode(proc, &args).unwrap();
                for reply in replies_for2(proc) {
                    let results = reply.encode_results();
                    let facts = ReplyFacts2::decode(proc, &results).unwrap();

                    let call_meta = CallMeta {
                        reply_micros: 0,
                        ..meta()
                    };
                    let mut streamed = v2_call_record(&call_meta, &view);
                    v2_apply_facts(&mut streamed, meta().reply_micros, &facts);

                    let wire_reply = Reply2::decode(proc, &results).unwrap();
                    let oracle = v2_to_record(&meta(), &call, &wire_reply);
                    assert_eq!(streamed, oracle, "proc {proc:?}");
                }
            }
        }
    }
}
