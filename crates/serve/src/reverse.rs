//! Trace records back to wire messages — the sniffer's inverse.
//!
//! The serving loop replays a *trace*, but the only thing on a TCP
//! connection is RPC. This module reconstructs, for every
//! [`TraceRecord`], an NFS call and reply whose wire encoding flattens
//! back to exactly that record under the sniffer's canonical
//! flattening (`nfstrace_sniffer::convert`). That is the identity the
//! whole loop rests on:
//!
//! ```text
//! flatten(decode(encode(call_of_record(r), reply_of_record(r)))) == r
//! ```
//!
//! The reconstruction is *not* a full inverse of the flattening — it
//! cannot be, since flattening drops payloads, cookies, and most
//! attributes. It only has to be a **section** of it: any wire pair
//! that flattens to `r` will do, and fields the flattener ignores are
//! filled with fixed defaults (zero payload bytes, empty directory
//! listings, zero verifiers). Data buffers are zero-filled at their
//! recorded lengths so wire *sizes* stay faithful even though content
//! is gone, exactly like the simulator's own encoder.
//!
//! Every record replays as **NFSv3 wire messages**, including records
//! tagged `vers == 2`. The canonical record is precisely the v3
//! flattening (the generators flatten v2-tagged clients through
//! `v3_to_record` too), while the genuine v2 wire narrowing is lossy —
//! it has no ACCESS or COMMIT, drops `pre_size`, and narrows 64-bit
//! fields (`nfstrace_nfs::v2::{Call2, Reply2}::from_v3` define the
//! narrowing). A record round-tripped through the serving loop
//! therefore reproduces every analysis-bearing field; the one
//! discrepancy is that v2-tagged records re-capture as `vers == 3`, a
//! tag no analysis product consumes. Genuine v2 *callers* are still
//! served faithfully — by the live filesystem service's v2 dispatch
//! (widen, `handle_v3`, narrow), not by replay.
//!
//! The RPC envelope around the reconstructed call and reply — XID,
//! version, and the client's AUTH_UNIX credential — is the simulator's
//! own, [`nfstrace_sniffer::wire::Envelope`], so a replayed call
//! names its client exactly as a simulated one does.

use nfstrace_core::record::{Op, TraceRecord};
use nfstrace_nfs::fh::FileHandle;
use nfstrace_nfs::types::{Fattr3, Ftype3, NfsStat3, Sattr3, WccAttr, WccData};
use nfstrace_nfs::v3::{
    Access3Args, Call3, Commit3Args, Create3Args, Create3Res, CreateHow, DirOpArgs, FhArgs,
    Getattr3Res, Link3Args, Lookup3Res, Mkdir3Args, Mknod3Args, Read3Args, Read3Res, Readdir3Args,
    Readdir3Res, Readdirplus3Args, Readdirplus3Res, Rename3Args, Reply3, Reply3Body, Setattr3Args,
    Setattr3Res, Symlink3Args, Write3Args, Write3Res,
};
use nfstrace_rpc::RpcMessage;
use nfstrace_sniffer::wire::Envelope;

fn fh_of(id: u64) -> FileHandle {
    FileHandle::from_u64(id)
}

fn dirop(r: &TraceRecord) -> DirOpArgs {
    DirOpArgs {
        dir: fh_of(r.fh.0),
        name: r.name.clone().unwrap_or_default(),
    }
}

/// Reconstructs the call half of a record.
pub fn call_of_record(r: &TraceRecord) -> Call3 {
    match r.op {
        Op::Null => Call3::Null,
        Op::Getattr => Call3::Getattr(FhArgs {
            object: fh_of(r.fh.0),
        }),
        Op::Setattr => Call3::Setattr(Setattr3Args {
            object: fh_of(r.fh.0),
            new_attributes: Sattr3 {
                size: r.truncate_to,
                ..Sattr3::default()
            },
            guard_ctime: None,
        }),
        Op::Lookup => Call3::Lookup(dirop(r)),
        Op::Access => Call3::Access(Access3Args {
            object: fh_of(r.fh.0),
            access: 0x1f,
        }),
        Op::Readlink => Call3::Readlink(FhArgs {
            object: fh_of(r.fh.0),
        }),
        Op::Read => Call3::Read(Read3Args {
            file: fh_of(r.fh.0),
            offset: r.offset,
            count: r.count,
        }),
        Op::Write => Call3::Write(Write3Args {
            file: fh_of(r.fh.0),
            offset: r.offset,
            count: r.count,
            stable: Default::default(),
            data: vec![0; r.count as usize],
        }),
        Op::Create => Call3::Create(Create3Args {
            where_: dirop(r),
            how: CreateHow::Unchecked,
            attributes: Sattr3::default(),
        }),
        Op::Mkdir => Call3::Mkdir(Mkdir3Args {
            where_: dirop(r),
            attributes: Sattr3::default(),
        }),
        Op::Symlink => Call3::Symlink(Symlink3Args {
            where_: dirop(r),
            attributes: Sattr3::default(),
            target: String::new(),
        }),
        Op::Mknod => Call3::Mknod(Mknod3Args {
            where_: dirop(r),
            node_type: Ftype3::Fifo.as_u32(),
            attributes: Sattr3::default(),
        }),
        Op::Remove => Call3::Remove(dirop(r)),
        Op::Rmdir => Call3::Rmdir(dirop(r)),
        Op::Rename => Call3::Rename(Rename3Args {
            from: dirop(r),
            to: DirOpArgs {
                dir: fh_of(r.fh2.unwrap_or_default().0),
                name: r.name2.clone().unwrap_or_default(),
            },
        }),
        Op::Link => Call3::Link(Link3Args {
            file: fh_of(r.fh.0),
            link: DirOpArgs {
                dir: fh_of(r.fh2.unwrap_or_default().0),
                name: r.name.clone().unwrap_or_default(),
            },
        }),
        Op::Readdir => Call3::Readdir(Readdir3Args {
            dir: fh_of(r.fh.0),
            cookie: 0,
            cookieverf: [0; 8],
            count: 4096,
        }),
        Op::Readdirplus => Call3::Readdirplus(Readdirplus3Args {
            dir: fh_of(r.fh.0),
            cookie: 0,
            cookieverf: [0; 8],
            dircount: 4096,
            maxcount: 8192,
        }),
        // STATFS is the v2 name for the same flattened op; FSSTAT
        // flattens identically.
        Op::Fsstat | Op::Statfs => Call3::Fsstat(FhArgs {
            object: fh_of(r.fh.0),
        }),
        Op::Fsinfo => Call3::Fsinfo(FhArgs {
            object: fh_of(r.fh.0),
        }),
        Op::Pathconf => Call3::Pathconf(FhArgs {
            object: fh_of(r.fh.0),
        }),
        Op::Commit => Call3::Commit(Commit3Args {
            file: fh_of(r.fh.0),
            offset: r.offset,
            count: r.count,
        }),
    }
}

/// The reply-side attributes a record retained: size and type.
fn attrs_of(r: &TraceRecord) -> Option<Fattr3> {
    r.post_size.map(|size| Fattr3 {
        size,
        ftype: r
            .ftype
            .and_then(|t| Ftype3::from_u32(u32::from(t)).ok())
            .unwrap_or_default(),
        fileid: r.new_fh.unwrap_or(r.fh).0,
        nlink: 1,
        ..Fattr3::default()
    })
}

fn wcc_of(r: &TraceRecord) -> WccData {
    WccData {
        before: r.pre_size.map(|size| WccAttr {
            size,
            ..WccAttr::default()
        }),
        after: r.post_size.map(|size| Fattr3 {
            size,
            fileid: r.fh.0,
            nlink: 1,
            ..Fattr3::default()
        }),
    }
}

fn status_of(r: &TraceRecord) -> NfsStat3 {
    NfsStat3::from_u32(r.status).unwrap_or(NfsStat3::Io)
}

/// Reconstructs the reply half of a record, or `None` for a record
/// whose reply was never captured (`status == u32::MAX`).
pub fn reply_of_record(r: &TraceRecord) -> Option<Reply3> {
    if r.status == u32::MAX {
        return None;
    }
    let status = status_of(r);
    let body = match r.op {
        Op::Null => Reply3Body::Null,
        Op::Getattr => Reply3Body::Getattr(Getattr3Res {
            attributes: attrs_of(r),
        }),
        Op::Setattr => Reply3Body::Setattr(Setattr3Res { wcc: wcc_of(r) }),
        Op::Lookup => Reply3Body::Lookup(Lookup3Res {
            object: r.new_fh.map(|id| fh_of(id.0)),
            obj_attributes: attrs_of(r),
            dir_attributes: None,
        }),
        Op::Read => Reply3Body::Read(Read3Res {
            file_attributes: attrs_of(r),
            count: r.ret_count,
            eof: r.eof,
            data: vec![0; r.ret_count as usize],
        }),
        Op::Write => Reply3Body::Write(Write3Res {
            wcc: wcc_of(r),
            count: r.ret_count,
            committed: 2,
            verf: [0; 8],
        }),
        Op::Create | Op::Mkdir | Op::Symlink | Op::Mknod => {
            let res = Create3Res {
                obj: r.new_fh.map(|id| fh_of(id.0)),
                obj_attributes: attrs_of(r),
                dir_wcc: WccData::default(),
            };
            match r.op {
                Op::Create => Reply3Body::Create(res),
                Op::Mkdir => Reply3Body::Mkdir(res),
                Op::Symlink => Reply3Body::Symlink(res),
                _ => Reply3Body::Mknod(res),
            }
        }
        Op::Readdir => Reply3Body::Readdir(Readdir3Res {
            eof: true,
            ..Readdir3Res::default()
        }),
        Op::Readdirplus => Reply3Body::Readdirplus(Readdirplus3Res {
            eof: true,
            ..Readdirplus3Res::default()
        }),
        // Status-only under the flattening: defaults everywhere.
        _ => {
            let call = call_of_record(r);
            return Some(Reply3 {
                status,
                body: Reply3::error(call.proc(), status).body,
            });
        }
    };
    Some(Reply3 { status, body })
}

/// Reconstructs the full RPC messages for a record: the call, and the
/// reply if one was captured.
pub(crate) fn rpc_pair_of_record(r: &TraceRecord) -> (RpcMessage, Option<RpcMessage>) {
    let env = Envelope {
        xid: r.xid,
        client_ip: r.client,
        uid: r.uid,
        gid: r.gid,
    };
    let call = call_of_record(r);
    let reply = reply_of_record(r).map(|rep| env.reply(rep.encode_results()));
    (env.call(3, call.proc().as_u32(), call.encode_args()), reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::FileId;
    use nfstrace_sniffer::wire::client_ip_of_machine_name;

    /// A reconstructed call names its record's client, uid and gid the
    /// way the replay server reads them back.
    #[test]
    fn machine_name_roundtrips() {
        for ip in [0u32, 1, 0x0a00_0001, u32::MAX] {
            let r = TraceRecord {
                client: ip,
                uid: 5,
                gid: 6,
                ..TraceRecord::new(0, Op::Null, FileId(0))
            };
            let (call, _) = rpc_pair_of_record(&r);
            let unix = call.as_call().unwrap().cred.as_unix().unwrap().unwrap();
            assert_eq!((unix.uid, unix.gid), (5, 6));
            assert_eq!(client_ip_of_machine_name(&unix.machine_name), Some(ip));
        }
    }

    #[test]
    fn lost_reply_reconstructs_as_none() {
        let mut r = TraceRecord::new(5, Op::Getattr, FileId(7));
        r.status = u32::MAX;
        r.reply_micros = 0;
        assert_eq!(reply_of_record(&r), None);
        let (_, reply) = rpc_pair_of_record(&r);
        assert!(reply.is_none());
    }
}
