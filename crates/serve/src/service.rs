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
//!   through to an [`FsService`].

use crate::plan::ReplayPlan;
use nfstrace_fssim::SharedNfsServer;
use nfstrace_nfs::v2::{Call2, Proc2};
use nfstrace_nfs::v3::{Call3, Proc3};
use nfstrace_rpc::msg::{accept_stat, CallView};
use nfstrace_rpc::{MsgBodyView, RpcMessage, RpcMessageView, PROG_NFS};
use nfstrace_sniffer::wire::client_ip_of_machine_name;
use nfstrace_xdr::{Encoder, Pack};
use std::collections::HashMap;
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

    /// The underlying shared server (setup, invariant checks).
    pub fn server(&self) -> &SharedNfsServer {
        &self.server
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

/// Replay state for one `(client, xid)` key.
#[derive(Debug)]
struct XidState {
    /// The key's planned replies, in call order; `None` is a planned
    /// lost reply.
    planned: Vec<Option<Vec<u8>>>,
    /// How many of them have been served. The entry before this cursor
    /// is the last reply served — what a retransmitted call gets — so
    /// the duplicate-request cache needs no copy of its own.
    next: usize,
}

/// A trace-faithful responder: planned reply bytes plus a DRC.
///
/// Holds the plan's reply schedule (its one copy of the reply bytes)
/// for as long as it lives and serves out of it in place: a served
/// reply is copied once, from the schedule into the connection's
/// output buffer. Drop the service to release the schedule.
pub struct ReplayService {
    states: Mutex<HashMap<(u32, u32), XidState>>,
    fallback: FsService,
    unplanned: AtomicU64,
}

impl std::fmt::Debug for ReplayService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayService")
            .field("unplanned", &self.unplanned.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ReplayService {
    /// Compiles the plan's reply schedule; unplanned calls fall back
    /// to a fresh [`FsService`] at the given server address.
    pub fn new(plan: &ReplayPlan, server_ip: u32) -> Self {
        let states = plan
            .reply_schedule()
            .into_iter()
            .map(|(key, planned)| (key, XidState { planned, next: 0 }))
            .collect();
        ReplayService {
            states: Mutex::new(states),
            fallback: FsService::new(SharedNfsServer::new(server_ip)),
            unplanned: AtomicU64::new(0),
        }
    }

    /// Calls that missed the plan and were served by the fallback.
    pub fn unplanned_calls(&self) -> u64 {
        self.unplanned.load(Ordering::Relaxed)
    }

    fn lock_states(&self) -> std::sync::MutexGuard<'_, HashMap<(u32, u32), XidState>> {
        match self.states.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl NfsService for ReplayService {
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
        if let Some(client_ip) = client_ip {
            let mut states = self.lock_states();
            if let Some(state) = states.get_mut(&(client_ip, view.xid)) {
                let reply = match state.planned.get(state.next) {
                    // The next planned call for this key: serve its
                    // reply (or planned silence) and step past it.
                    Some(planned) => {
                        state.next += 1;
                        Some(planned)
                    }
                    // Schedule exhausted: a retransmission. The DRC
                    // answers with the same bytes as last time; after a
                    // planned silence it has none and the call counts
                    // as unplanned.
                    None => state.planned.last().filter(|last| last.is_some()),
                };
                match reply {
                    Some(Some(bytes)) => {
                        out.extend_from_slice(bytes);
                        return true;
                    }
                    Some(None) => return false,
                    None => {}
                }
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

    #[test]
    fn replay_serves_planned_replies_and_drc_for_duplicates() {
        let records = vec![rec(9, 7, 100), rec(9, 7, 200)];
        let plan = ReplayPlan::from_records(&records);
        let service = ReplayService::new(&plan, 1);
        let call0 = plan.calls[0].call_bytes.clone();
        let call1 = plan.calls[1].call_bytes.clone();

        let r0 = serve(&service, &call0).expect("first planned reply");
        assert_eq!(Some(&r0), plan.calls[0].reply_bytes.as_ref());
        let r1 = serve(&service, &call1).expect("second planned reply");
        assert_eq!(Some(&r1), plan.calls[1].reply_bytes.as_ref());
        assert_ne!(r0, r1, "distinct planned replies");

        // Schedule exhausted: any further copy of the call is a
        // retransmission and must re-receive the *last* reply.
        let dup = serve(&service, &call1).expect("DRC hit");
        assert_eq!(dup, r1);
        assert_eq!(service.unplanned_calls(), 0);
    }

    #[test]
    fn planned_silence_is_served_as_silence_and_leaves_the_drc_empty() {
        let mut lost = rec(9, 7, 100);
        lost.status = u32::MAX;
        lost.reply_micros = 0;
        let plan = ReplayPlan::from_records(&[lost, rec(9, 8, 100)]);
        assert!(plan.calls[0].reply_bytes.is_none());
        let service = ReplayService::new(&plan, 1);
        let call = plan.calls[0].call_bytes.clone();

        assert_eq!(serve(&service, &call), None, "the planned lost reply");
        assert_eq!(service.unplanned_calls(), 0);
        // A retransmission of it finds nothing to repeat and is served
        // by the filesystem, counted as unplanned.
        assert!(serve(&service, &call).is_some());
        assert_eq!(service.unplanned_calls(), 1);
        // The other key's schedule is untouched.
        let r = serve(&service, &plan.calls[1].call_bytes).expect("planned reply");
        assert_eq!(Some(&r), plan.calls[1].reply_bytes.as_ref());
    }

    #[test]
    fn unplanned_calls_fall_back_to_the_filesystem() {
        let plan = ReplayPlan::from_records(std::iter::empty());
        let service = ReplayService::new(&plan, 1);
        // A NULL ping from a client the plan has never heard of.
        let call = Envelope {
            xid: 1234,
            client_ip: 77,
            uid: 0,
            gid: 0,
        }
        .call(3, 0, Vec::new());
        let reply = serve(&service, &call.to_xdr_bytes()).expect("NULL reply");
        let view = RpcMessageView::decode(&reply).unwrap();
        assert_eq!(view.xid, 1234);
        assert!(view.as_reply().is_some());
        assert_eq!(service.unplanned_calls(), 1);
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
