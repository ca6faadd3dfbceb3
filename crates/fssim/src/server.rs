//! The NFS protocol front-end over [`SimFs`].
//!
//! Takes decoded NFSv3 (and NFSv2) calls, applies them to the
//! filesystem, and produces replies with faithful attributes and WCC
//! data — the material the client caches key on and the analyses mine.

use crate::fs::SimFs;
use nfstrace_nfs::fh::FileHandle;
use nfstrace_nfs::types::{Fattr3, NfsStat3, WccAttr, WccData};
use nfstrace_nfs::v2::{Call2, DowngradeStats, Reply2};
use nfstrace_nfs::v3::{
    Access3Res, Call3, Commit3Res, Create3Res, DirEntry3, DirEntryPlus3, Fsinfo3Res, Fsstat3Res,
    Getattr3Res, Link3Res, Lookup3Res, Pathconf3Res, Read3Res, Readdir3Res, Readdirplus3Res,
    Readlink3Res, Remove3Res, Rename3Res, Reply3, Reply3Body, Setattr3Res, Write3Res,
};

/// A simulated NFS server instance.
#[derive(Debug)]
pub struct NfsServer {
    fs: SimFs,
    /// Server identity used in traces.
    pub server_ip: u32,
    /// What narrowing v3 replies for v2 callers has saturated.
    v2_narrowed: DowngradeStats,
}

impl NfsServer {
    /// Creates a server over a fresh filesystem.
    pub fn new(server_ip: u32) -> Self {
        Self {
            fs: SimFs::new(),
            server_ip,
            v2_narrowed: DowngradeStats::default(),
        }
    }

    /// The filesystem, for workload setup (building home directories).
    pub fn fs_mut(&mut self) -> &mut SimFs {
        &mut self.fs
    }

    /// The filesystem, read-only.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// The root file handle clients mount.
    pub fn root_fh(&self) -> FileHandle {
        FileHandle::from_u64(self.fs.root())
    }

    fn attr_of(&self, id: u64) -> Option<Fattr3> {
        self.fs.inode(id).ok().map(|i| i.fattr3())
    }

    fn wcc(&self, pre: Option<(u64, u64)>, id: u64) -> WccData {
        WccData {
            before: pre.map(|(size, mtime)| WccAttr {
                size,
                mtime: nfstrace_nfs::types::NfsTime3::from_micros(mtime),
                ctime: nfstrace_nfs::types::NfsTime3::from_micros(mtime),
            }),
            after: self.attr_of(id),
        }
    }

    fn pre_of(&self, id: u64) -> Option<(u64, u64)> {
        self.fs.inode(id).ok().map(|i| (i.size, i.mtime))
    }

    /// Handles one NFSv3 call at simulation time `now` (µs).
    pub fn handle_v3(&mut self, call: &Call3, now: u64) -> Reply3 {
        match call {
            Call3::Null => Reply3::ok(Reply3Body::Null),
            Call3::Getattr(a) => match self.fh_id(&a.object) {
                Ok(id) => match self.attr_of(id) {
                    Some(attr) => Reply3::ok(Reply3Body::Getattr(Getattr3Res {
                        attributes: Some(attr),
                    })),
                    None => Reply3::error(call.proc(), NfsStat3::Stale),
                },
                Err(s) => Reply3::error(call.proc(), s),
            },
            Call3::Setattr(a) => {
                let id = match self.fh_id(&a.object) {
                    Ok(id) => id,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(id);
                if let Some(size) = a.new_attributes.size {
                    if self.fs.set_size(id, size, now).is_err() {
                        return Reply3::error(call.proc(), NfsStat3::IsDir);
                    }
                }
                Reply3::ok(Reply3Body::Setattr(Setattr3Res {
                    wcc: self.wcc(pre, id),
                }))
            }
            Call3::Lookup(a) => {
                let dir = match self.fh_id(&a.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                match self.fs.lookup(dir, &a.name) {
                    Ok(child) => Reply3::ok(Reply3Body::Lookup(Lookup3Res {
                        object: Some(FileHandle::from_u64(child)),
                        obj_attributes: self.attr_of(child),
                        dir_attributes: self.attr_of(dir),
                    })),
                    Err(e) => Reply3 {
                        status: e.to_nfsstat(),
                        body: Reply3Body::Lookup(Lookup3Res {
                            object: None,
                            obj_attributes: None,
                            dir_attributes: self.attr_of(dir),
                        }),
                    },
                }
            }
            Call3::Access(a) => match self.fh_id(&a.object) {
                Ok(id) => Reply3::ok(Reply3Body::Access(Access3Res {
                    obj_attributes: self.attr_of(id),
                    access: a.access,
                })),
                Err(s) => Reply3::error(call.proc(), s),
            },
            Call3::Readlink(a) => {
                let id = match self.fh_id(&a.object) {
                    Ok(id) => id,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                match self.fs.inode(id).ok().and_then(|i| i.link_target.clone()) {
                    Some(target) => Reply3::ok(Reply3Body::Readlink(Readlink3Res {
                        obj_attributes: self.attr_of(id),
                        target,
                    })),
                    None => Reply3::error(call.proc(), NfsStat3::Inval),
                }
            }
            Call3::Read(a) => {
                let id = match self.fh_id(&a.file) {
                    Ok(id) => id,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                match self.fs.read(id, a.offset, a.count, now) {
                    Ok((n, eof, _size)) => Reply3::ok(Reply3Body::Read(Read3Res {
                        file_attributes: self.attr_of(id),
                        count: n,
                        eof,
                        data: vec![0u8; n as usize],
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Write(a) => {
                let id = match self.fh_id(&a.file) {
                    Ok(id) => id,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(id);
                match self.fs.write(id, a.offset, a.count, now) {
                    Ok((_pre, _post)) => Reply3::ok(Reply3Body::Write(Write3Res {
                        wcc: self.wcc(pre, id),
                        count: a.count,
                        committed: 2, // FILE_SYNC
                        verf: [7; 8],
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Create(a) => {
                let dir = match self.fh_id(&a.where_.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.create(dir, &a.where_.name, 0, 0, now) {
                    Ok((id, _existed)) => Reply3::ok(Reply3Body::Create(Create3Res {
                        obj: Some(FileHandle::from_u64(id)),
                        obj_attributes: self.attr_of(id),
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Mkdir(a) => {
                let dir = match self.fh_id(&a.where_.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.mkdir(dir, &a.where_.name, 0, 0, now) {
                    Ok(id) => Reply3::ok(Reply3Body::Mkdir(Create3Res {
                        obj: Some(FileHandle::from_u64(id)),
                        obj_attributes: self.attr_of(id),
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Symlink(a) => {
                let dir = match self.fh_id(&a.where_.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.symlink(dir, &a.where_.name, &a.target, 0, 0, now) {
                    Ok(id) => Reply3::ok(Reply3Body::Symlink(Create3Res {
                        obj: Some(FileHandle::from_u64(id)),
                        obj_attributes: self.attr_of(id),
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Mknod(a) => {
                // Special nodes are rare on both systems; treat as files.
                let dir = match self.fh_id(&a.where_.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.create(dir, &a.where_.name, 0, 0, now) {
                    Ok((id, _)) => Reply3::ok(Reply3Body::Mknod(Create3Res {
                        obj: Some(FileHandle::from_u64(id)),
                        obj_attributes: self.attr_of(id),
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Remove(a) => {
                let dir = match self.fh_id(&a.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.remove(dir, &a.name, now) {
                    Ok(_) => Reply3::ok(Reply3Body::Remove(Remove3Res {
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Rmdir(a) => {
                let dir = match self.fh_id(&a.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.rmdir(dir, &a.name, now) {
                    Ok(_) => Reply3::ok(Reply3Body::Rmdir(Remove3Res {
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Rename(a) => {
                let from = match self.fh_id(&a.from.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let to = match self.fh_id(&a.to.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre_from = self.pre_of(from);
                let pre_to = self.pre_of(to);
                match self.fs.rename(from, &a.from.name, to, &a.to.name, now) {
                    Ok(_) => Reply3::ok(Reply3Body::Rename(Rename3Res {
                        from_wcc: self.wcc(pre_from, from),
                        to_wcc: self.wcc(pre_to, to),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Link(a) => {
                let file = match self.fh_id(&a.file) {
                    Ok(f) => f,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let dir = match self.fh_id(&a.link.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                let pre = self.pre_of(dir);
                match self.fs.link(file, dir, &a.link.name, now) {
                    Ok(()) => Reply3::ok(Reply3Body::Link(Link3Res {
                        file_attributes: self.attr_of(file),
                        dir_wcc: self.wcc(pre, dir),
                    })),
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Readdir(a) => {
                let dir = match self.fh_id(&a.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                match self.fs.readdir(dir) {
                    Ok(entries) => {
                        let skip = a.cookie as usize;
                        let page: Vec<DirEntry3> = entries
                            .iter()
                            .enumerate()
                            .skip(skip)
                            .take(64)
                            .map(|(i, (name, id))| DirEntry3 {
                                fileid: *id,
                                name: name.clone(),
                                cookie: (i + 1) as u64,
                            })
                            .collect();
                        let eof = skip + page.len() >= entries.len();
                        Reply3::ok(Reply3Body::Readdir(Readdir3Res {
                            dir_attributes: self.attr_of(dir),
                            cookieverf: [0; 8],
                            entries: page,
                            eof,
                        }))
                    }
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Readdirplus(a) => {
                let dir = match self.fh_id(&a.dir) {
                    Ok(d) => d,
                    Err(s) => return Reply3::error(call.proc(), s),
                };
                match self.fs.readdir(dir) {
                    Ok(entries) => {
                        let skip = a.cookie as usize;
                        let page: Vec<DirEntryPlus3> = entries
                            .iter()
                            .enumerate()
                            .skip(skip)
                            .take(32)
                            .map(|(i, (name, id))| DirEntryPlus3 {
                                fileid: *id,
                                name: name.clone(),
                                cookie: (i + 1) as u64,
                                name_attributes: self.attr_of(*id),
                                name_handle: Some(FileHandle::from_u64(*id)),
                            })
                            .collect();
                        let eof = skip + page.len() >= entries.len();
                        Reply3::ok(Reply3Body::Readdirplus(Readdirplus3Res {
                            dir_attributes: self.attr_of(dir),
                            cookieverf: [0; 8],
                            entries: page,
                            eof,
                        }))
                    }
                    Err(e) => Reply3::error(call.proc(), e.to_nfsstat()),
                }
            }
            Call3::Fsstat(a) => match self.fh_id(&a.object) {
                Ok(id) => Reply3::ok(Reply3Body::Fsstat(Fsstat3Res {
                    obj_attributes: self.attr_of(id),
                    tbytes: 53_000_000_000,
                    fbytes: 20_000_000_000,
                    abytes: 20_000_000_000,
                    tfiles: 4_000_000,
                    ffiles: 3_000_000,
                    afiles: 3_000_000,
                    invarsec: 0,
                })),
                Err(s) => Reply3::error(call.proc(), s),
            },
            Call3::Fsinfo(a) => match self.fh_id(&a.object) {
                Ok(id) => Reply3::ok(Reply3Body::Fsinfo(Fsinfo3Res {
                    obj_attributes: self.attr_of(id),
                    rtmax: 32768,
                    rtpref: 32768,
                    rtmult: 4096,
                    wtmax: 32768,
                    wtpref: 32768,
                    wtmult: 4096,
                    dtpref: 8192,
                    maxfilesize: u64::MAX,
                    time_delta: nfstrace_nfs::types::NfsTime3 {
                        seconds: 0,
                        nseconds: 1000,
                    },
                    properties: 0x1b,
                })),
                Err(s) => Reply3::error(call.proc(), s),
            },
            Call3::Pathconf(a) => match self.fh_id(&a.object) {
                Ok(id) => Reply3::ok(Reply3Body::Pathconf(Pathconf3Res {
                    obj_attributes: self.attr_of(id),
                    linkmax: 32767,
                    name_max: 255,
                    no_trunc: true,
                    chown_restricted: true,
                    case_insensitive: false,
                    case_preserving: true,
                })),
                Err(s) => Reply3::error(call.proc(), s),
            },
            Call3::Commit(a) => match self.fh_id(&a.file) {
                Ok(id) => Reply3::ok(Reply3Body::Commit(Commit3Res {
                    wcc: self.wcc(self.pre_of(id), id),
                    verf: [7; 8],
                })),
                Err(s) => Reply3::error(call.proc(), s),
            },
        }
    }

    /// Handles one NFSv2 call at simulation time `now` (µs): widen it
    /// ([`Call2::to_v3`]), serve the v3 call, narrow the reply
    /// ([`Reply2::from_v3`]). There is one file server; how the two
    /// protocol versions correspond is `nfstrace_nfs::v2`'s business.
    /// Ids and cookies the narrowing had to saturate are counted
    /// in [`NfsServer::v2_narrowings`].
    pub fn handle_v2(&mut self, call: &Call2, now: u64) -> Reply2 {
        let call3 = call.to_v3();
        let reply3 = self.handle_v3(&call3, now);
        Reply2::from_v3(&reply3, &mut self.v2_narrowed)
    }

    /// How many file ids, filesystem ids and cookies [`handle_v2`]
    /// replies have saturated to `u32::MAX` so far (simulated inode
    /// ids are 64-bit; v2 names 32).
    ///
    /// [`handle_v2`]: NfsServer::handle_v2
    pub fn v2_narrowings(&self) -> DowngradeStats {
        self.v2_narrowed
    }

    fn fh_id(&self, fh: &FileHandle) -> Result<u64, NfsStat3> {
        fh.as_u64().ok_or(NfsStat3::Stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_nfs::v3::{
        Create3Args, CreateHow, DirOpArgs, FhArgs, Read3Args, Setattr3Args, Write3Args,
    };
    use nfstrace_nfs::Sattr3;

    fn create(server: &mut NfsServer, dir: FileHandle, name: &str, now: u64) -> FileHandle {
        let reply = server.handle_v3(
            &Call3::Create(Create3Args {
                where_: DirOpArgs {
                    dir,
                    name: name.to_string(),
                },
                how: CreateHow::Unchecked,
                attributes: Sattr3::default(),
            }),
            now,
        );
        match reply.body {
            Reply3Body::Create(res) => res.obj.expect("created"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_write_read_cycle() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        let fh = create(&mut s, root, "inbox", 10);
        let w = s.handle_v3(
            &Call3::Write(Write3Args {
                file: fh.clone(),
                offset: 0,
                count: 5000,
                stable: Default::default(),
                data: vec![0; 5000],
            }),
            20,
        );
        assert!(w.status.is_ok());
        let r = s.handle_v3(
            &Call3::Read(Read3Args {
                file: fh,
                offset: 0,
                count: 8192,
            }),
            30,
        );
        match r.body {
            Reply3Body::Read(res) => {
                assert_eq!(res.count, 5000);
                assert!(res.eof);
                assert_eq!(res.data.len(), 5000);
                assert_eq!(res.file_attributes.unwrap().size, 5000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_carries_wcc_pre_size() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        let fh = create(&mut s, root, "f", 0);
        s.handle_v3(
            &Call3::Write(Write3Args {
                file: fh.clone(),
                offset: 0,
                count: 100,
                stable: Default::default(),
                data: vec![0; 100],
            }),
            1,
        );
        let w2 = s.handle_v3(
            &Call3::Write(Write3Args {
                file: fh,
                offset: 100,
                count: 100,
                stable: Default::default(),
                data: vec![0; 100],
            }),
            2,
        );
        match w2.body {
            Reply3Body::Write(res) => {
                assert_eq!(res.wcc.before.unwrap().size, 100);
                assert_eq!(res.wcc.after.unwrap().size, 200);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookup_missing_is_noent_with_dir_attrs() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        let r = s.handle_v3(
            &Call3::Lookup(DirOpArgs {
                dir: root,
                name: "nope".into(),
            }),
            0,
        );
        assert_eq!(r.status, NfsStat3::NoEnt);
        match r.body {
            Reply3Body::Lookup(res) => assert!(res.dir_attributes.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn setattr_truncate() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        let fh = create(&mut s, root, "f", 0);
        s.handle_v3(
            &Call3::Write(Write3Args {
                file: fh.clone(),
                offset: 0,
                count: 9999,
                stable: Default::default(),
                data: vec![0; 9999],
            }),
            1,
        );
        let r = s.handle_v3(
            &Call3::Setattr(Setattr3Args {
                object: fh,
                new_attributes: Sattr3 {
                    size: Some(0),
                    ..Sattr3::default()
                },
                guard_ctime: None,
            }),
            2,
        );
        match r.body {
            Reply3Body::Setattr(res) => {
                assert_eq!(res.wcc.before.unwrap().size, 9999);
                assert_eq!(res.wcc.after.unwrap().size, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn readdir_pages_and_eof() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        for i in 0..100 {
            create(&mut s, root.clone(), &format!("f{i:03}"), i);
        }
        let r = s.handle_v3(
            &Call3::Readdir(nfstrace_nfs::v3::Readdir3Args {
                dir: root.clone(),
                cookie: 0,
                cookieverf: [0; 8],
                count: 4096,
            }),
            200,
        );
        let (n1, eof1, next) = match r.body {
            Reply3Body::Readdir(res) => (
                res.entries.len(),
                res.eof,
                res.entries.last().unwrap().cookie,
            ),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(n1, 64);
        assert!(!eof1);
        let r2 = s.handle_v3(
            &Call3::Readdir(nfstrace_nfs::v3::Readdir3Args {
                dir: root,
                cookie: next,
                cookieverf: [0; 8],
                count: 4096,
            }),
            201,
        );
        match r2.body {
            Reply3Body::Readdir(res) => {
                assert_eq!(res.entries.len(), 36);
                assert!(res.eof);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v2_roundtrip_basicops() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        let r = s.handle_v2(
            &Call2::Create {
                where_: nfstrace_nfs::v2::DirOpArgs2 {
                    dir: root,
                    name: "old.c".into(),
                },
                attributes: Default::default(),
            },
            0,
        );
        let fh = match r {
            Reply2::DirOpRes {
                status,
                file: Some(fh),
                ..
            } => {
                assert!(status.is_ok());
                fh
            }
            other => panic!("unexpected {other:?}"),
        };
        let r = s.handle_v2(
            &Call2::Write {
                file: fh.clone(),
                beginoffset: 0,
                offset: 0,
                totalcount: 0,
                data: vec![0; 321],
            },
            1,
        );
        match r {
            Reply2::AttrStat {
                status,
                attributes: Some(a),
            } => {
                assert!(status.is_ok());
                assert_eq!(a.size, 321);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = s.handle_v2(
            &Call2::Read {
                file: fh,
                offset: 0,
                count: 1000,
                totalcount: 0,
            },
            2,
        );
        match r {
            Reply2::Read { status, data, .. } => {
                assert!(status.is_ok());
                assert_eq!(data.len(), 321);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Simulated inode ids are 64-bit (the workloads base each user's
    /// at `(u + 2) << 32`): a v2 listing must not truncate them into
    /// small, valid-looking file ids.
    #[test]
    fn v2_readdir_saturates_wide_inode_ids_and_counts_them() {
        let mut s = NfsServer::new(1);
        let root = s.root_fh();
        create(&mut s, root.clone(), "narrow", 0);
        s.fs_mut().set_next_id(3 << 32);
        let wide_a = create(&mut s, root.clone(), "wide-a", 1);
        create(&mut s, root.clone(), "wide-b", 2);
        let r = s.handle_v2(
            &Call2::Readdir {
                dir: root,
                cookie: 0,
                count: 4096,
            },
            3,
        );
        let Reply2::Readdir {
            status,
            entries,
            eof,
        } = r
        else {
            panic!("unexpected {r:?}");
        };
        assert!(status.is_ok() && eof);
        let ids: Vec<(&str, u32)> = entries
            .iter()
            .map(|e| (e.name.as_str(), e.fileid))
            .collect();
        assert_eq!(
            ids,
            [("narrow", 2), ("wide-a", u32::MAX), ("wide-b", u32::MAX)]
        );
        assert_eq!(
            entries.iter().map(|e| e.cookie).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(
            s.v2_narrowings(),
            DowngradeStats {
                saturated_cookies: 0,
                saturated_fileids: 2
            }
        );

        // The same id in attributes saturates and counts too, never
        // truncating to its low 32 bits (here 0).
        let r = s.handle_v2(&Call2::Getattr(wide_a), 4);
        let Reply2::AttrStat {
            attributes: Some(attributes),
            ..
        } = r
        else {
            panic!("unexpected {r:?}");
        };
        assert_eq!((attributes.fileid, attributes.fsid), (u32::MAX, 1));
        assert_eq!(s.v2_narrowings().saturated_fileids, 3);
    }

    #[test]
    fn stale_handle_v3() {
        let mut s = NfsServer::new(1);
        let r = s.handle_v3(
            &Call3::Getattr(FhArgs {
                object: FileHandle::from_u64(424242),
            }),
            0,
        );
        assert_eq!(r.status, NfsStat3::Stale);
    }
}
