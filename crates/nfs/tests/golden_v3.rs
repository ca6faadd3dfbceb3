//! Golden NFSv3 messages, written by hand from the XDR grammar of
//! RFC 1831 (the RPC envelope, `AUTH_UNIX`) and RFC 1813 (`nfs_fh3`,
//! `GETATTR3args`, `GETATTR3res`, `fattr3`), not produced by this
//! repository's encoders.
//!
//! Every other codec test in the workspace round-trips bytes its own
//! encoder wrote, so an encoder and a decoder that agree on the same
//! mistake pass them all. These vectors are an oracle outside that
//! loop: each must decode through the owned decoders (`Call3`,
//! `Reply3`), the borrowed ones (`Call3View`, `ReplyFacts3`) and the
//! RPC view to the values spelled out here, and the encoders must
//! write the same bytes back.

use nfstrace_nfs::types::NfsTime3;
use nfstrace_nfs::v3::{
    Call3, Call3View, FhArgs, Getattr3Res, Proc3, Reply3, Reply3Body, ReplyFacts3,
};
use nfstrace_nfs::{Fattr3, FileHandle, Ftype3, NfsStat3};
use nfstrace_rpc::auth::{flavor, AuthUnix, OpaqueAuth};
use nfstrace_rpc::msg::{accept_stat, ReplyStat};
use nfstrace_rpc::{RpcMessage, RpcMessageView, PROG_NFS};
use nfstrace_xdr::Pack;

/// `nfs_fh3` data: opaque to the client, 12 bytes here.
const HANDLE: [u8; 12] = [
    0x00, 0x00, 0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x00, 0x2a,
];

/// A GETATTR call from uid 1000, gid 100 on host `mailhub`.
#[rustfmt::skip]
const GETATTR_CALL: [u8; 92] = [
    // rpc_msg
    0x1f, 0x2e, 0x3d, 0x4c, // xid
    0x00, 0x00, 0x00, 0x00, // msg_type CALL
    // call_body
    0x00, 0x00, 0x00, 0x02, // rpcvers 2
    0x00, 0x01, 0x86, 0xa3, // prog 100003 (NFS)
    0x00, 0x00, 0x00, 0x03, // vers 3
    0x00, 0x00, 0x00, 0x01, // proc 1 (GETATTR)
    // cred: opaque_auth
    0x00, 0x00, 0x00, 0x01, // flavor AUTH_UNIX
    0x00, 0x00, 0x00, 0x24, // body length 36
    // authunix_parms
    0x5d, 0x1c, 0x0e, 0x2a, // stamp
    0x00, 0x00, 0x00, 0x07, // machinename length 7
    b'm', b'a', b'i', b'l', //
    b'h', b'u', b'b', 0x00, // "mailhub" + 1 pad byte
    0x00, 0x00, 0x03, 0xe8, // uid 1000
    0x00, 0x00, 0x00, 0x64, // gid 100
    0x00, 0x00, 0x00, 0x02, // gids<16> count 2
    0x00, 0x00, 0x00, 0x64, // 100
    0x00, 0x00, 0x00, 0x0a, // 10
    // verf: opaque_auth
    0x00, 0x00, 0x00, 0x00, // flavor AUTH_NONE
    0x00, 0x00, 0x00, 0x00, // body length 0
    // GETATTR3args: nfs_fh3 object
    0x00, 0x00, 0x00, 0x0c, // data length 12
    0x00, 0x00, 0x00, 0x01, //
    0xde, 0xad, 0xbe, 0xef, //
    0x00, 0x00, 0x00, 0x2a, //
];

/// The call's successful reply: `NFS3_OK` and the object's `fattr3`.
#[rustfmt::skip]
const GETATTR_OK: [u8; 112] = [
    // rpc_msg
    0x1f, 0x2e, 0x3d, 0x4c, // xid
    0x00, 0x00, 0x00, 0x01, // msg_type REPLY
    // reply_body
    0x00, 0x00, 0x00, 0x00, // reply_stat MSG_ACCEPTED
    0x00, 0x00, 0x00, 0x00, // verf flavor AUTH_NONE
    0x00, 0x00, 0x00, 0x00, // verf body length 0
    0x00, 0x00, 0x00, 0x00, // accept_stat SUCCESS
    // GETATTR3res
    0x00, 0x00, 0x00, 0x00, // status NFS3_OK
    // fattr3
    0x00, 0x00, 0x00, 0x01, // type NF3REG
    0x00, 0x00, 0x01, 0xa4, // mode 0644
    0x00, 0x00, 0x00, 0x01, // nlink 1
    0x00, 0x00, 0x03, 0xe8, // uid 1000
    0x00, 0x00, 0x00, 0x64, // gid 100
    0x00, 0x00, 0x00, 0x00, //
    0x00, 0x02, 0xf4, 0xa1, // size 193697
    0x00, 0x00, 0x00, 0x00, //
    0x00, 0x03, 0x00, 0x00, // used 196608
    0x00, 0x00, 0x00, 0x00, // rdev specdata1
    0x00, 0x00, 0x00, 0x00, // rdev specdata2
    0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x07, // fsid 7
    0x00, 0x00, 0x00, 0x02, //
    0x00, 0x00, 0x00, 0x11, // fileid 0x2_0000_0011
    0x3b, 0xd2, 0x10, 0x00, // atime seconds 1003622400
    0x1d, 0xcd, 0x65, 0x00, // atime nseconds 500000000
    0x3b, 0xd2, 0x10, 0x3c, // mtime seconds 1003622460
    0x00, 0x00, 0x00, 0x00, // mtime nseconds 0
    0x3b, 0xd2, 0x10, 0x3c, // ctime seconds 1003622460
    0x00, 0x00, 0x00, 0x07, // ctime nseconds 7
];

/// A reply to the same call after the file was removed: GETATTR3res's
/// failure arm is `void`, so the status is the whole result.
#[rustfmt::skip]
const GETATTR_STALE: [u8; 28] = [
    0x1f, 0x2e, 0x3d, 0x4c, // xid
    0x00, 0x00, 0x00, 0x01, // msg_type REPLY
    0x00, 0x00, 0x00, 0x00, // reply_stat MSG_ACCEPTED
    0x00, 0x00, 0x00, 0x00, // verf flavor AUTH_NONE
    0x00, 0x00, 0x00, 0x00, // verf body length 0
    0x00, 0x00, 0x00, 0x00, // accept_stat SUCCESS
    0x00, 0x00, 0x00, 0x46, // status NFS3ERR_STALE (70)
];

const XID: u32 = 0x1f2e_3d4c;

fn credential() -> AuthUnix {
    AuthUnix {
        stamp: 0x5d1c_0e2a,
        machine_name: "mailhub".into(),
        uid: 1000,
        gid: 100,
        gids: vec![100, 10],
    }
}

fn attributes() -> Fattr3 {
    Fattr3 {
        ftype: Ftype3::Regular,
        mode: 0o644,
        nlink: 1,
        uid: 1000,
        gid: 100,
        size: 193_697,
        used: 196_608,
        rdev: (0, 0),
        fsid: 7,
        fileid: 0x2_0000_0011,
        atime: NfsTime3 {
            seconds: 1_003_622_400,
            nseconds: 500_000_000,
        },
        mtime: NfsTime3 {
            seconds: 1_003_622_460,
            nseconds: 0,
        },
        ctime: NfsTime3 {
            seconds: 1_003_622_460,
            nseconds: 7,
        },
    }
}

/// The RPC results of a reply vector, after checking its envelope.
fn accepted_results(bytes: &[u8]) -> &[u8] {
    let msg = RpcMessageView::decode(bytes).expect("reply envelope decodes");
    assert_eq!(msg.xid, XID);
    let reply = msg.as_reply().expect("a reply");
    assert_eq!(reply.stat, ReplyStat::Accepted);
    assert_eq!(reply.verf.flavor, flavor::AUTH_NONE);
    assert_eq!(reply.accept_stat, accept_stat::SUCCESS);
    reply.results
}

#[test]
fn getattr_call_with_auth_unix() {
    let msg = RpcMessageView::decode(&GETATTR_CALL).expect("call envelope decodes");
    assert_eq!(msg.xid, XID);
    let call = msg.as_call().expect("a call");
    assert_eq!((call.rpcvers, call.prog, call.vers), (2, PROG_NFS, 3));
    assert_eq!(Proc3::from_u32(call.proc).unwrap(), Proc3::Getattr);
    assert_eq!(call.cred.flavor, flavor::AUTH_UNIX);
    assert_eq!(call.cred.unix_uid_gid(), Some((1000, 100)));
    assert_eq!(call.cred.unix_machine_name(), Some("mailhub"));
    assert_eq!(
        call.cred.to_owned().as_unix().unwrap().unwrap(),
        credential()
    );
    assert_eq!(call.verf.flavor, flavor::AUTH_NONE);

    let expected = Call3::Getattr(FhArgs {
        object: FileHandle::new(&HANDLE),
    });
    assert_eq!(Call3::decode(Proc3::Getattr, call.args).unwrap(), expected);
    let view = Call3View::decode(Proc3::Getattr, call.args).unwrap();
    assert_eq!(view.proc(), Proc3::Getattr);
    assert_eq!(view.to_owned(), expected);

    let encoded = RpcMessage::call(
        XID,
        PROG_NFS,
        3,
        Proc3::Getattr.as_u32(),
        OpaqueAuth::unix(&credential()),
        expected.encode_args(),
    )
    .to_xdr_bytes();
    assert_eq!(encoded, GETATTR_CALL);
}

#[test]
fn getattr_ok_reply_with_fattr3() {
    let results = accepted_results(&GETATTR_OK);
    let expected = Reply3::ok(Reply3Body::Getattr(Getattr3Res {
        attributes: Some(attributes()),
    }));
    assert_eq!(Reply3::decode(Proc3::Getattr, results).unwrap(), expected);

    let facts = ReplyFacts3::decode(Proc3::Getattr, results).unwrap();
    assert_eq!(facts.status, NfsStat3::Ok);
    assert_eq!(facts.post_size, Some(193_697));
    assert_eq!(facts.ftype, Some(Ftype3::Regular));
    assert_eq!(
        (facts.pre_size, facts.ret_count, facts.eof, facts.new_fh),
        (None, None, None, None)
    );

    let encoded = RpcMessage::reply_success(XID, expected.encode_results()).to_xdr_bytes();
    assert_eq!(encoded, GETATTR_OK);
}

#[test]
fn getattr_stale_reply_is_status_only() {
    let results = accepted_results(&GETATTR_STALE);
    let expected = Reply3::error(Proc3::Getattr, NfsStat3::Stale);
    let decoded = Reply3::decode(Proc3::Getattr, results).unwrap();
    assert_eq!(decoded, expected);
    assert_eq!(
        decoded.body,
        Reply3Body::Getattr(Getattr3Res { attributes: None })
    );

    let facts = ReplyFacts3::decode(Proc3::Getattr, results).unwrap();
    assert_eq!(facts.status, NfsStat3::Stale);
    assert_eq!(
        (facts.post_size, facts.ftype, facts.pre_size, facts.new_fh),
        (None, None, None, None)
    );

    let encoded = RpcMessage::reply_success(XID, expected.encode_results()).to_xdr_bytes();
    assert_eq!(encoded, GETATTR_STALE);
}
