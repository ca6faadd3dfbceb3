//! What the serving loop answers with: plan-driven or filesystem-backed.
//!
//! A [`NfsService`] maps one inbound RPC record to at most one
//! outbound RPC message, written into the connection's output buffer.
//! Two implementations:
//!
//! - [`FsService`] is a genuine NFS server: it decodes the call and
//!   services it against a [`SharedNfsServer`] filesystem. This is the
//!   mode for stress, benchmarking, and interactive use — semantically
//!   honest, but it cannot reproduce a recorded trace bit-for-bit
//!   (the sorted trace is not a serializable history).
//! - [`ReplayService`] answers from a [`ReplayPlan`]: the exact reply
//!   bytes the trace recorded, per `(client, xid)` in call order, with
//!   a duplicate-request cache so retransmitted calls re-receive the
//!   *same* reply instead of perturbing the plan — the DRC every real
//!   NFS server keeps, doing here exactly what it did there. Calls the
//!   plan does not know (a client's NULL ping, a stray probe) fall
//!   through to an [`FsService`]. It reads each reply in place: from
//!   the plan it borrows ([`ReplayService::borrowing`], what
//!   `serve_roundtrip` serves), or from the one buffer it copied them
//!   into ([`ReplayService::new`], for a service behind an `Arc` that
//!   outlives the plan).

use crate::plan::{PlannedCall, ReplayPlan, ReplySchedule};
use nfstrace_fssim::SharedNfsServer;
use nfstrace_nfs::v2::{Call2, Proc2};
use nfstrace_nfs::v3::{Call3, Proc3};
use nfstrace_rpc::msg::{accept_stat, CallView};
use nfstrace_rpc::{MsgBodyView, RpcMessage, RpcMessageView, PROG_NFS};
use nfstrace_sniffer::wire::client_ip_of_machine_name;
use nfstrace_xdr::{Encoder, Pack};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maps one inbound RPC record to at most one outbound RPC message.
///
/// The service does not return the reply, it *appends* it to a buffer
/// the connection loop owns and reuses. That buffer already holds the
/// framed replies to the earlier calls of the same burst, and the loop
/// — not the service — does the framing (it reserves the record mark
/// before the call and back-patches the length after it, see
/// [`nfstrace_rpc::record::begin_record`]). A reply therefore goes
/// from wherever the service keeps it to the bytes handed to `write`
/// in one copy, with no allocation.
pub trait NfsService: Send + Sync {
    /// Serves one call: appends the encoded RPC reply message (unframed)
    /// to `out` and returns `true`, or returns `false` when the server
    /// stays silent — undecodable garbage, a reply-shaped message on
    /// the inbound side, or a planned lost reply. `out` is never
    /// cleared or read; whatever a silent call appended is discarded by
    /// the caller.
    fn serve(&self, call_msg: &[u8], out: &mut Vec<u8>) -> bool;
}

/// A real NFS server behind the socket: decode, dispatch, encode.
#[derive(Debug)]
pub struct FsService {
    server: SharedNfsServer,
    /// Logical microsecond clock for attribute timestamps: the wire
    /// carries no trace time, and wall time would make replies
    /// nondeterministic.
    clock: AtomicU64,
}

impl FsService {
    /// Wraps a shared filesystem server.
    pub fn new(server: SharedNfsServer) -> Self {
        FsService {
            server,
            clock: AtomicU64::new(0),
        }
    }

    fn dispatch(&self, call: &CallView<'_>, xid: u32) -> RpcMessage {
        if call.prog != PROG_NFS {
            return RpcMessage::reply_error(xid, accept_stat::PROG_UNAVAIL);
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        match call.vers {
            3 => {
                let Ok(proc) = Proc3::from_u32(call.proc) else {
                    return RpcMessage::reply_error(xid, accept_stat::PROC_UNAVAIL);
                };
                let Ok(decoded) = Call3::decode(proc, call.args) else {
                    return RpcMessage::reply_error(xid, accept_stat::GARBAGE_ARGS);
                };
                let reply = self.server.handle_v3(&decoded, now);
                RpcMessage::reply_success(xid, reply.encode_results())
            }
            2 => {
                let Ok(proc) = Proc2::from_u32(call.proc) else {
                    return RpcMessage::reply_error(xid, accept_stat::PROC_UNAVAIL);
                };
                let Ok(decoded) = Call2::decode(proc, call.args) else {
                    return RpcMessage::reply_error(xid, accept_stat::GARBAGE_ARGS);
                };
                let reply = self.server.handle_v2(&decoded, now);
                RpcMessage::reply_success(xid, reply.encode_results())
            }
            _ => RpcMessage::reply_error(xid, accept_stat::PROG_MISMATCH),
        }
    }
}

impl NfsService for FsService {
    fn serve(&self, call_msg: &[u8], out: &mut Vec<u8>) -> bool {
        let Ok(view) = RpcMessageView::decode(call_msg) else {
            return false;
        };
        let Some(call) = view.as_call() else {
            return false;
        };
        let reply = self.dispatch(call, view.xid);
        // Pack straight onto the end of the caller's buffer.
        let mut enc = Encoder::from(std::mem::take(out));
        reply.pack(&mut enc);
        *out = enc.into_bytes();
        true
    }
}

/// Where a [`ReplayService`] reads its replies: call `i`'s planned
/// reply, `None` for a planned lost reply.
enum Replies<'p> {
    /// The plan's own calls, borrowed.
    Plan(&'p [PlannedCall]),
    /// Every reply copied into one buffer; `spans[i]` is call `i`'s.
    Copied {
        bytes: Vec<u8>,
        spans: Vec<Option<Range<usize>>>,
    },
}

impl Replies<'_> {
    fn copied(calls: &[PlannedCall]) -> Replies<'static> {
        let total = calls
            .iter()
            .filter_map(|c| c.reply_bytes.as_ref())
            .map(Vec::len)
            .sum();
        let mut bytes = Vec::with_capacity(total);
        let mut spans = Vec::with_capacity(calls.len());
        for c in calls {
            spans.push(c.reply_bytes.as_ref().map(|reply| {
                bytes.extend_from_slice(reply);
                bytes.len() - reply.len()..bytes.len()
            }));
        }
        Replies::Copied { bytes, spans }
    }

    fn get(&self, call: usize) -> Option<&[u8]> {
        match self {
            Replies::Plan(calls) => calls[call].reply_bytes.as_deref(),
            Replies::Copied { bytes, spans } => spans[call].clone().map(|span| &bytes[span]),
        }
    }
}

/// A trace-faithful responder: planned reply bytes plus a DRC.
///
/// `'p` is the lifetime of the [`ReplayPlan`] it serves from. Beside
/// the plan it keeps only a schedule of call ordinals (one list and
/// one map, whatever the plan's size), and a served reply is copied
/// once, from the plan into the connection's output buffer.
/// [`ReplayService::borrowing`] serves straight from a plan the caller
/// keeps; [`ReplayService::new`] copies the replies once, into one
/// buffer it owns, for a service that must outlive the plan (behind an
/// `Arc<dyn NfsService>`).
pub struct ReplayService<'p> {
    replies: Replies<'p>,
    schedule: Mutex<ReplySchedule>,
    fallback: FsService,
    unplanned: AtomicU64,
}

impl std::fmt::Debug for ReplayService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayService")
            .field("unplanned", &self.unplanned.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ReplayService<'static> {
    /// A service that owns a copy of the plan's replies, all in one
    /// buffer; unplanned calls fall back to a fresh [`FsService`] at
    /// the given server address.
    pub fn new(plan: &ReplayPlan, server_ip: u32) -> Self {
        ReplayService::with_replies(plan, Replies::copied(&plan.calls), server_ip)
    }
}

impl<'p> ReplayService<'p> {
    /// A service that reads every reply in place from `plan`, which it
    /// borrows for as long as it lives; unplanned calls fall back to a
    /// fresh [`FsService`] at the given server address.
    pub fn borrowing(plan: &'p ReplayPlan, server_ip: u32) -> Self {
        ReplayService::with_replies(plan, Replies::Plan(&plan.calls), server_ip)
    }

    fn with_replies(plan: &ReplayPlan, replies: Replies<'p>, server_ip: u32) -> Self {
        ReplayService {
            replies,
            schedule: Mutex::new(plan.reply_schedule()),
            fallback: FsService::new(SharedNfsServer::new(server_ip)),
            unplanned: AtomicU64::new(0),
        }
    }

    /// Calls that missed the plan and were served by the fallback.
    pub fn unplanned_calls(&self) -> u64 {
        self.unplanned.load(Ordering::Relaxed)
    }

    /// The planned answer to the next call for `key` (see
    /// [`ReplySchedule::answer`]).
    fn answer(&self, key: (u32, u32)) -> Option<(usize, bool)> {
        match self.schedule.lock() {
            Ok(mut g) => g.answer(key),
            Err(poisoned) => poisoned.into_inner().answer(key),
        }
    }
}

impl NfsService for ReplayService<'_> {
    fn serve(&self, call_msg: &[u8], out: &mut Vec<u8>) -> bool {
        let Ok(view) = RpcMessageView::decode(call_msg) else {
            return false;
        };
        let MsgBodyView::Call(call) = &view.body else {
            return false;
        };
        let client_ip = call
            .cred
            .unix_machine_name()
            .and_then(client_ip_of_machine_name);
        if let Some((planned, fresh)) = client_ip.and_then(|ip| self.answer((ip, view.xid))) {
            match self.replies.get(planned) {
                Some(bytes) => {
                    out.extend_from_slice(bytes);
                    return true;
                }
                // A planned lost reply is served as silence; repeated
                // by the DRC it has nothing to repeat, and the call
                // counts as unplanned.
                None if fresh => return false,
                None => {}
            }
        }
        self.unplanned.fetch_add(1, Ordering::Relaxed);
        self.fallback.serve(call_msg, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::{FileId, Op, TraceRecord};
    use nfstrace_sniffer::wire::{client_cred, Envelope};

    /// One call through the trait, as the connection loop makes it:
    /// into a buffer that already holds earlier bytes.
    fn serve(service: &dyn NfsService, call_msg: &[u8]) -> Option<Vec<u8>> {
        let mut out = b"earlier".to_vec();
        let replied = service.serve(call_msg, &mut out);
        assert_eq!(&out[..7], b"earlier", "a service only appends");
        replied.then(|| out.split_off(7))
    }

    fn rec(client: u32, xid: u32, size: u64) -> TraceRecord {
        let mut r = TraceRecord::new(xid as u64, Op::Getattr, FileId(2));
        r.client = client;
        r.xid = xid;
        r.post_size = Some(size);
        r.ftype = Some(1);
        r
    }

    /// Runs `check` against a fresh service of each form: the owning
    /// copy and the borrowing index.
    fn each_form(plan: &ReplayPlan, check: impl Fn(&ReplayService<'_>)) {
        check(&ReplayService::new(plan, 1));
        check(&ReplayService::borrowing(plan, 1));
    }

    #[test]
    fn replay_serves_planned_replies_and_drc_for_duplicates() {
        let records = vec![rec(9, 7, 100), rec(9, 7, 200)];
        let plan = ReplayPlan::from_records(&records);
        let call0 = &plan.calls[0].call_bytes;
        let call1 = &plan.calls[1].call_bytes;
        each_form(&plan, |service| {
            let r0 = serve(service, call0).expect("first planned reply");
            assert_eq!(Some(&r0), plan.calls[0].reply_bytes.as_ref());
            let r1 = serve(service, call1).expect("second planned reply");
            assert_eq!(Some(&r1), plan.calls[1].reply_bytes.as_ref());
            assert_ne!(r0, r1, "distinct planned replies");

            // Schedule exhausted: any further copy of the call is a
            // retransmission and must re-receive the *last* reply.
            let dup = serve(service, call1).expect("DRC hit");
            assert_eq!(dup, r1);
            assert_eq!(service.unplanned_calls(), 0);
        });
    }

    #[test]
    fn planned_silence_is_served_as_silence_and_leaves_the_drc_empty() {
        let mut lost = rec(9, 7, 100);
        lost.status = u32::MAX;
        lost.reply_micros = 0;
        let plan = ReplayPlan::from_records(&[lost, rec(9, 8, 100)]);
        assert!(plan.calls[0].reply_bytes.is_none());
        let call = &plan.calls[0].call_bytes;
        each_form(&plan, |service| {
            assert_eq!(serve(service, call), None, "the planned lost reply");
            assert_eq!(service.unplanned_calls(), 0);
            // A retransmission of it finds nothing to repeat and is
            // served by the filesystem, counted as unplanned.
            assert!(serve(service, call).is_some());
            assert_eq!(service.unplanned_calls(), 1);
            // The other key's schedule is untouched.
            let r = serve(service, &plan.calls[1].call_bytes).expect("planned reply");
            assert_eq!(Some(&r), plan.calls[1].reply_bytes.as_ref());
        });
    }

    #[test]
    fn unplanned_calls_fall_back_to_the_filesystem() {
        // A NULL ping from a client the plan has never heard of.
        let call = Envelope {
            xid: 1234,
            client_ip: 77,
            uid: 0,
            gid: 0,
        }
        .call(3, 0, Vec::new())
        .to_xdr_bytes();
        for plan in [
            ReplayPlan::from_records(std::iter::empty()),
            ReplayPlan::from_records(&[rec(9, 1234, 100)]),
        ] {
            each_form(&plan, |service| {
                let reply = serve(service, &call).expect("NULL reply");
                let view = RpcMessageView::decode(&reply).unwrap();
                assert_eq!(view.xid, 1234);
                assert!(view.as_reply().is_some());
                assert_eq!(service.unplanned_calls(), 1);
            });
        }
    }

    #[test]
    fn bad_program_and_version_get_rpc_errors() {
        let service = FsService::new(SharedNfsServer::new(1));
        let cred = client_cred(0, 0, 0);
        for (msg, want) in [
            (
                RpcMessage::call(1, 100_005, 3, 0, cred.clone(), Vec::new()),
                accept_stat::PROG_UNAVAIL,
            ),
            (
                RpcMessage::call(2, PROG_NFS, 4, 0, cred.clone(), Vec::new()),
                accept_stat::PROG_MISMATCH,
            ),
            (
                RpcMessage::call(3, PROG_NFS, 3, 99, cred.clone(), Vec::new()),
                accept_stat::PROC_UNAVAIL,
            ),
            (
                RpcMessage::call(4, PROG_NFS, 3, 6, cred, vec![1]),
                accept_stat::GARBAGE_ARGS,
            ),
        ] {
            let reply = serve(&service, &msg.to_xdr_bytes()).expect("an error reply");
            let view = RpcMessageView::decode(&reply).unwrap();
            let body = view.as_reply().expect("a reply body");
            assert_eq!(body.accept_stat, want, "xid {}", view.xid);
        }
    }
}
