//! RPC call and reply messages (RFC 1831 §8).
//!
//! Two decode surfaces share one implementation: the borrowed
//! [`RpcMessageView`] reads a message as views into the record buffer
//! (no body copies — this is what the sniffer's hot path uses), and the
//! owned [`RpcMessage`]'s `Unpack` impl is the view decode followed by a
//! single materializing copy.

use crate::auth::{AuthRef, OpaqueAuth};
use nfstrace_xdr::{Decoder, Encoder, Error, Pack, Result, Unpack};

/// RPC protocol version; always 2.
pub const RPC_VERSION: u32 = 2;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;

/// The body of a call message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallBody {
    /// RPC version (must be 2).
    pub rpcvers: u32,
    /// Remote program, e.g. [`crate::PROG_NFS`].
    pub prog: u32,
    /// Program version (2 or 3 for NFS).
    pub vers: u32,
    /// Procedure number within the program.
    pub proc: u32,
    /// Credential.
    pub cred: OpaqueAuth,
    /// Verifier.
    pub verf: OpaqueAuth,
    /// Procedure arguments, left as raw XDR for the NFS layer.
    pub args: Vec<u8>,
}

/// Reply disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStat {
    /// The call was accepted and executed (body carries a status).
    Accepted,
    /// The call was rejected (auth failure or version mismatch).
    Denied,
}

/// Accept status for accepted replies (RFC 1831 `accept_stat`).
pub mod accept_stat {
    /// Procedure executed successfully.
    pub const SUCCESS: u32 = 0;
    /// Program not exported here.
    pub const PROG_UNAVAIL: u32 = 1;
    /// Program version out of range.
    pub const PROG_MISMATCH: u32 = 2;
    /// Unsupported procedure.
    pub const PROC_UNAVAIL: u32 = 3;
    /// Arguments undecodable.
    pub const GARBAGE_ARGS: u32 = 4;
    /// Server-side memory or similar failure.
    pub const SYSTEM_ERR: u32 = 5;
}

/// The body of a reply message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyBody {
    /// Accepted or denied.
    pub stat: ReplyStat,
    /// Verifier (accepted replies only; zeroed otherwise).
    pub verf: OpaqueAuth,
    /// `accept_stat` for accepted replies; rejection code for denials.
    pub accept_stat: u32,
    /// Procedure results, raw XDR for the NFS layer (accepted+success).
    pub results: Vec<u8>,
}

/// Either body variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgBody {
    /// A call.
    Call(CallBody),
    /// A reply.
    Reply(ReplyBody),
}

/// A complete RPC message: XID plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcMessage {
    /// Transaction id linking a reply to its call.
    pub xid: u32,
    /// Call or reply body.
    pub body: MsgBody,
}

impl RpcMessage {
    /// Builds a call message.
    pub fn call(
        xid: u32,
        prog: u32,
        vers: u32,
        proc: u32,
        cred: OpaqueAuth,
        args: Vec<u8>,
    ) -> Self {
        RpcMessage {
            xid,
            body: MsgBody::Call(CallBody {
                rpcvers: RPC_VERSION,
                prog,
                vers,
                proc,
                cred,
                verf: OpaqueAuth::none(),
                args,
            }),
        }
    }

    /// Builds a successful accepted reply carrying `results`.
    pub fn reply_success(xid: u32, results: Vec<u8>) -> Self {
        RpcMessage {
            xid,
            body: MsgBody::Reply(ReplyBody {
                stat: ReplyStat::Accepted,
                verf: OpaqueAuth::none(),
                accept_stat: accept_stat::SUCCESS,
                results,
            }),
        }
    }

    /// Builds an accepted reply carrying a non-`SUCCESS`
    /// [`accept_stat`] code and no results — how a server refuses a
    /// call it understood at the RPC layer but cannot service
    /// (`PROG_UNAVAIL`, `PROG_MISMATCH`, `PROC_UNAVAIL`,
    /// `GARBAGE_ARGS`, `SYSTEM_ERR`).
    pub fn reply_error(xid: u32, accept_stat: u32) -> Self {
        RpcMessage {
            xid,
            body: MsgBody::Reply(ReplyBody {
                stat: ReplyStat::Accepted,
                verf: OpaqueAuth::none(),
                accept_stat,
                results: Vec::new(),
            }),
        }
    }

    /// The call body, if this is a call.
    pub fn as_call(&self) -> Option<&CallBody> {
        match &self.body {
            MsgBody::Call(c) => Some(c),
            MsgBody::Reply(_) => None,
        }
    }

    /// The reply body, if this is a reply.
    pub fn as_reply(&self) -> Option<&ReplyBody> {
        match &self.body {
            MsgBody::Reply(r) => Some(r),
            MsgBody::Call(_) => None,
        }
    }
}

impl Pack for RpcMessage {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_u32(self.xid);
        match &self.body {
            MsgBody::Call(c) => {
                enc.put_u32(MSG_CALL);
                enc.put_u32(c.rpcvers);
                enc.put_u32(c.prog);
                enc.put_u32(c.vers);
                enc.put_u32(c.proc);
                c.cred.pack(enc);
                c.verf.pack(enc);
                enc.put_opaque_fixed(&c.args); // args are already XDR
            }
            MsgBody::Reply(r) => {
                enc.put_u32(MSG_REPLY);
                match r.stat {
                    ReplyStat::Accepted => {
                        enc.put_u32(0); // MSG_ACCEPTED
                        r.verf.pack(enc);
                        enc.put_u32(r.accept_stat);
                        enc.put_opaque_fixed(&r.results);
                    }
                    ReplyStat::Denied => {
                        enc.put_u32(1); // MSG_DENIED
                        enc.put_u32(r.accept_stat);
                    }
                }
            }
        }
    }
}

impl Unpack for RpcMessage {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        RpcMessageView::unpack_view(dec).map(|v| v.to_owned())
    }
}

/// A borrowed call body: [`CallBody`] with credentials and arguments as
/// views into the record buffer (`args: &'a [u8]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallView<'a> {
    /// RPC version (must be 2).
    pub rpcvers: u32,
    /// Remote program, e.g. [`crate::PROG_NFS`].
    pub prog: u32,
    /// Program version (2 or 3 for NFS).
    pub vers: u32,
    /// Procedure number within the program.
    pub proc: u32,
    /// Credential (body borrowed).
    pub cred: AuthRef<'a>,
    /// Verifier (body borrowed).
    pub verf: AuthRef<'a>,
    /// Procedure arguments, raw XDR borrowed from the record buffer.
    pub args: &'a [u8],
}

impl CallView<'_> {
    /// Copies into an owned [`CallBody`].
    pub fn to_owned(self) -> CallBody {
        CallBody {
            rpcvers: self.rpcvers,
            prog: self.prog,
            vers: self.vers,
            proc: self.proc,
            cred: self.cred.to_owned(),
            verf: self.verf.to_owned(),
            args: self.args.to_vec(),
        }
    }
}

/// A borrowed reply body: [`ReplyBody`] with `results: &'a [u8]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyView<'a> {
    /// Accepted or denied.
    pub stat: ReplyStat,
    /// Verifier (accepted replies only; empty otherwise).
    pub verf: AuthRef<'a>,
    /// `accept_stat` for accepted replies; rejection code for denials.
    pub accept_stat: u32,
    /// Procedure results, raw XDR borrowed from the record buffer.
    pub results: &'a [u8],
}

impl ReplyView<'_> {
    /// Copies into an owned [`ReplyBody`].
    pub fn to_owned(self) -> ReplyBody {
        ReplyBody {
            stat: self.stat,
            verf: self.verf.to_owned(),
            accept_stat: self.accept_stat,
            results: self.results.to_vec(),
        }
    }
}

/// Either borrowed body variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgBodyView<'a> {
    /// A call.
    Call(CallView<'a>),
    /// A reply.
    Reply(ReplyView<'a>),
}

/// A complete RPC message decoded as views into the record buffer: the
/// zero-copy counterpart of [`RpcMessage`].
///
/// All byte fields (`args`, `results`, authenticator bodies) borrow the
/// input passed to [`RpcMessageView::decode`], so xid matching and NFS
/// argument decoding never copy a body. The owned decoder is implemented
/// on top of this one, which keeps the accepted wire forms — and every
/// error case — identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcMessageView<'a> {
    /// Transaction id linking a reply to its call.
    pub xid: u32,
    /// Call or reply body.
    pub body: MsgBodyView<'a>,
}

impl<'a> RpcMessageView<'a> {
    /// Decodes a whole record as a borrowed message, requiring that the
    /// entire input is consumed (the record reader hands over exactly
    /// one record).
    ///
    /// # Errors
    ///
    /// Exactly those of `RpcMessage::from_xdr_bytes`.
    pub fn decode(bytes: &'a [u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Self::unpack_view(&mut dec)?;
        if dec.is_empty() {
            Ok(v)
        } else {
            Err(Error::TrailingBytes {
                remaining: dec.remaining(),
            })
        }
    }

    fn unpack_view(dec: &mut Decoder<'a>) -> Result<Self> {
        let xid = dec.get_u32()?;
        let mtype = dec.get_u32()?;
        match mtype {
            MSG_CALL => {
                let rpcvers = dec.get_u32()?;
                if rpcvers != RPC_VERSION {
                    return Err(Error::InvalidDiscriminant {
                        what: "rpc version",
                        value: rpcvers,
                    });
                }
                let prog = dec.get_u32()?;
                let vers = dec.get_u32()?;
                let proc = dec.get_u32()?;
                let cred = AuthRef::decode(dec)?;
                let verf = AuthRef::decode(dec)?;
                let args = dec.get_opaque_fixed_ref(dec.remaining())?;
                Ok(RpcMessageView {
                    xid,
                    body: MsgBodyView::Call(CallView {
                        rpcvers,
                        prog,
                        vers,
                        proc,
                        cred,
                        verf,
                        args,
                    }),
                })
            }
            MSG_REPLY => {
                let reply_stat = dec.get_u32()?;
                match reply_stat {
                    0 => {
                        let verf = AuthRef::decode(dec)?;
                        let accept_stat = dec.get_u32()?;
                        let results = dec.get_opaque_fixed_ref(dec.remaining())?;
                        Ok(RpcMessageView {
                            xid,
                            body: MsgBodyView::Reply(ReplyView {
                                stat: ReplyStat::Accepted,
                                verf,
                                accept_stat,
                                results,
                            }),
                        })
                    }
                    1 => {
                        let reject = dec.get_u32()?;
                        // Consume any remaining detail (mismatch info /
                        // auth stat) without interpreting it.
                        let _ = dec.skip(dec.remaining());
                        Ok(RpcMessageView {
                            xid,
                            body: MsgBodyView::Reply(ReplyView {
                                stat: ReplyStat::Denied,
                                verf: AuthRef {
                                    flavor: crate::auth::flavor::AUTH_NONE,
                                    body: &[],
                                },
                                accept_stat: reject,
                                results: &[],
                            }),
                        })
                    }
                    other => Err(Error::InvalidDiscriminant {
                        what: "reply_stat",
                        value: other,
                    }),
                }
            }
            other => Err(Error::InvalidDiscriminant {
                what: "msg_type",
                value: other,
            }),
        }
    }

    /// Copies into an owned [`RpcMessage`]: the single materialization
    /// the owned `Unpack` impl performs.
    pub fn to_owned(self) -> RpcMessage {
        RpcMessage {
            xid: self.xid,
            body: match self.body {
                MsgBodyView::Call(c) => MsgBody::Call(c.to_owned()),
                MsgBodyView::Reply(r) => MsgBody::Reply(r.to_owned()),
            },
        }
    }

    /// The call view, if this is a call.
    pub fn as_call(&self) -> Option<&CallView<'a>> {
        match &self.body {
            MsgBodyView::Call(c) => Some(c),
            MsgBodyView::Reply(_) => None,
        }
    }

    /// The reply view, if this is a reply.
    pub fn as_reply(&self) -> Option<&ReplyView<'a>> {
        match &self.body {
            MsgBodyView::Reply(r) => Some(r),
            MsgBodyView::Call(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthUnix;
    use crate::PROG_NFS;

    #[test]
    fn call_roundtrip() {
        let cred = OpaqueAuth::unix(&AuthUnix::new("host1", 10, 20));
        let msg = RpcMessage::call(0xabcd, PROG_NFS, 3, 6, cred, vec![1, 2, 3, 4]);
        let got = RpcMessage::from_xdr_bytes(&msg.to_xdr_bytes()).unwrap();
        assert_eq!(got, msg);
        assert!(got.as_call().is_some());
        let call = got.as_call().unwrap();
        assert_eq!(call.prog, PROG_NFS);
        assert_eq!(call.vers, 3);
        assert_eq!(call.proc, 6);
        assert_eq!(call.args, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reply_roundtrip() {
        let msg = RpcMessage::reply_success(0xabcd, vec![9, 9, 9, 9]);
        let got = RpcMessage::from_xdr_bytes(&msg.to_xdr_bytes()).unwrap();
        assert_eq!(got, msg);
        let r = got.as_reply().unwrap();
        assert_eq!(r.accept_stat, accept_stat::SUCCESS);
        assert_eq!(r.results, vec![9, 9, 9, 9]);
    }

    #[test]
    fn denied_reply_roundtrip() {
        let msg = RpcMessage {
            xid: 5,
            body: MsgBody::Reply(ReplyBody {
                stat: ReplyStat::Denied,
                verf: OpaqueAuth::none(),
                accept_stat: 1,
                results: Vec::new(),
            }),
        };
        let got = RpcMessage::from_xdr_bytes(&msg.to_xdr_bytes()).unwrap();
        assert_eq!(got.as_reply().unwrap().stat, ReplyStat::Denied);
    }

    #[test]
    fn bad_msg_type_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u32(7); // neither call nor reply
        assert!(matches!(
            RpcMessage::from_xdr_bytes(&enc.into_bytes()),
            Err(Error::InvalidDiscriminant {
                what: "msg_type",
                ..
            })
        ));
    }

    #[test]
    fn bad_rpc_version_rejected() {
        let cred = OpaqueAuth::none();
        let mut msg = RpcMessage::call(1, PROG_NFS, 3, 0, cred, Vec::new());
        if let MsgBody::Call(ref mut c) = msg.body {
            c.rpcvers = 3;
        }
        assert!(RpcMessage::from_xdr_bytes(&msg.to_xdr_bytes()).is_err());
    }

    #[test]
    fn view_decode_matches_owned_and_borrows_the_input() {
        let cred = OpaqueAuth::unix(&AuthUnix::new("host1", 10, 20));
        let cases = [
            RpcMessage::call(0xabcd, PROG_NFS, 3, 6, cred, vec![1, 2, 3, 4]),
            RpcMessage::reply_success(0xabcd, vec![9, 9, 9, 9]),
            RpcMessage {
                xid: 5,
                body: MsgBody::Reply(ReplyBody {
                    stat: ReplyStat::Denied,
                    verf: OpaqueAuth::none(),
                    accept_stat: 1,
                    results: Vec::new(),
                }),
            },
        ];
        for msg in cases {
            let bytes = msg.to_xdr_bytes();
            let view = RpcMessageView::decode(&bytes).unwrap();
            assert_eq!(view.to_owned(), msg);
            if let Some(call) = view.as_call() {
                // The args field is a view into `bytes`, not a copy.
                assert!(bytes.as_ptr_range().contains(&call.args.as_ptr()));
            }
        }
    }

    #[test]
    fn view_decode_rejects_what_owned_decode_rejects() {
        let msg = RpcMessage::call(
            7,
            PROG_NFS,
            3,
            1,
            OpaqueAuth::unix(&AuthUnix::new("m", 1, 2)),
            vec![0; 16],
        );
        let bytes = msg.to_xdr_bytes();
        for cut in 0..bytes.len() {
            let owned = RpcMessage::from_xdr_bytes(&bytes[..cut]);
            let view = RpcMessageView::decode(&bytes[..cut]);
            assert_eq!(owned.is_ok(), view.is_ok(), "truncated at {cut}");
            assert_eq!(owned.err(), view.err());
        }
    }

    #[test]
    fn args_not_multiple_of_four_are_padded() {
        // Args should always be XDR already (multiple of 4); if not, the
        // encoder pads and decode returns the padded form. Document that.
        let msg = RpcMessage::call(1, PROG_NFS, 2, 1, OpaqueAuth::none(), vec![1, 2, 3]);
        let got = RpcMessage::from_xdr_bytes(&msg.to_xdr_bytes()).unwrap();
        assert_eq!(got.as_call().unwrap().args, vec![1, 2, 3, 0]);
    }
}
