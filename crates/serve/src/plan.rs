//! The replay plan: a trace precompiled into wire messages.
//!
//! A [`ReplayPlan`] holds, per trace record and in trace order, the
//! encoded RPC call the client will put on its connection and the
//! encoded RPC reply the server will answer with. Precompiling once up
//! front keeps both sides of the loop out of the XDR encoder on the
//! hot path, and gives the server the one thing a *trace-faithful*
//! responder needs that a live filesystem cannot provide: the exact
//! reply bytes the original server sent, in per-client FIFO order (a
//! sorted trace is not a serializable history — overlapping user
//! events interleave — so replaying calls against a fresh filesystem
//! would diverge; see `nfstrace_serve::service::ReplayService`).

use crate::reverse::rpc_pair_of_record;
use nfstrace_core::index::RecordStream;
use nfstrace_core::record::TraceRecord;
use nfstrace_xdr::Pack;
use std::collections::HashMap;

/// One trace record, compiled to wire form.
#[derive(Debug, Clone)]
pub struct PlannedCall {
    /// Position in the trace (drives tap ordering).
    pub idx: usize,
    /// Client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// RPC transaction id.
    pub xid: u32,
    /// Trace-clock time of the call.
    pub micros: u64,
    /// Trace-clock time of the reply (0 if the trace lost it).
    pub reply_micros: u64,
    /// The full encoded RPC call message (unframed).
    pub call_bytes: Vec<u8>,
    /// The full encoded RPC reply message; `None` replays a lost
    /// reply (the server stays silent).
    pub reply_bytes: Option<Vec<u8>>,
}

/// A whole trace, compiled for replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayPlan {
    /// The calls, in trace order.
    pub calls: Vec<PlannedCall>,
}

impl ReplayPlan {
    /// Compiles an in-memory record slice.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut plan = ReplayPlan::default();
        for r in records {
            plan.push(r);
        }
        plan
    }

    /// Compiles any [`RecordStream`] — a store index, a live view, or
    /// a generated trace — without materializing it twice.
    pub fn from_stream(stream: &dyn RecordStream) -> Self {
        let mut plan = ReplayPlan::default();
        stream.for_each_record(&mut |r| plan.push(r));
        plan
    }

    fn push(&mut self, r: &TraceRecord) {
        let (call, reply) = rpc_pair_of_record(r);
        self.calls.push(PlannedCall {
            idx: self.calls.len(),
            client_ip: r.client,
            server_ip: r.server,
            xid: r.xid,
            micros: r.micros,
            reply_micros: r.reply_micros,
            call_bytes: call.to_xdr_bytes(),
            reply_bytes: reply.map(|m| m.to_xdr_bytes()),
        });
    }

    /// The server side of the plan: per `(client, xid)`, the planned
    /// replies in call order. A list (not a map to one reply) because
    /// a long trace reuses XIDs; calls for one client arrive on one
    /// connection in plan order, so serving the list front to back
    /// pairs them correctly. `None` entries (lost replies) are kept so
    /// a reused XID behind a lost reply still lines up.
    ///
    /// This is the one copy of the reply bytes the serving side makes:
    /// the plan is only borrowed, so the schedule owns its bytes.
    pub fn reply_schedule(&self) -> HashMap<(u32, u32), Vec<Option<Vec<u8>>>> {
        let mut map: HashMap<(u32, u32), Vec<Option<Vec<u8>>>> = HashMap::new();
        for c in &self.calls {
            map.entry((c.client_ip, c.xid))
                .or_default()
                .push(c.reply_bytes.clone());
        }
        map
    }

    /// The distinct client addresses in the plan, in first-appearance
    /// order — the unit of connection assignment.
    pub fn client_ips(&self) -> Vec<u32> {
        let mut seen = HashMap::new();
        let mut out = Vec::new();
        for c in &self.calls {
            if seen.insert(c.client_ip, ()).is_none() {
                out.push(c.client_ip);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::{FileId, Op};

    fn rec(micros: u64, client: u32, xid: u32) -> TraceRecord {
        let mut r = TraceRecord::new(micros, Op::Getattr, FileId(2));
        r.client = client;
        r.xid = xid;
        r.post_size = Some(10);
        r.ftype = Some(1);
        r
    }

    #[test]
    fn schedule_keeps_reused_xids_in_call_order() {
        let records = vec![rec(1, 9, 100), rec(2, 9, 100), rec(3, 8, 100)];
        let plan = ReplayPlan::from_records(&records);
        assert_eq!(plan.calls.len(), 3);
        let schedule = plan.reply_schedule();
        assert_eq!(schedule[&(9, 100)].len(), 2);
        assert_eq!(schedule[&(8, 100)].len(), 1);
        assert_eq!(plan.client_ips(), vec![9, 8]);
    }
}
