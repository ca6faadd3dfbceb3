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
//!
//! The plan holds the one copy of those reply bytes on the serving
//! side: the service that answers a replay borrows the plan and reads
//! each reply from its [`PlannedCall`], keeping only a schedule of call
//! ordinals beside it.

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

/// A plan's replies in serving order, as call ordinals: every
/// `(client, xid)` key owns one contiguous range of `order`, and a
/// cursor into it. One `order` list and one map, however many calls
/// the plan has.
#[derive(Debug)]
pub(crate) struct ReplySchedule {
    /// Call ordinals, grouped by key, in call order within a group.
    order: Vec<u32>,
    groups: HashMap<(u32, u32), Group>,
}

/// How far one key's range of [`ReplySchedule::order`] has been
/// served: `next` walks up to `end`.
#[derive(Debug)]
struct Group {
    next: u32,
    end: u32,
}

impl ReplySchedule {
    /// The call whose planned reply answers the next call for `key`,
    /// and whether it is fresh. The next planned call steps the cursor
    /// past it; once a key's calls are all served, a further call is a
    /// retransmission and gets the last one again (not fresh) — the
    /// duplicate-request cache, with no copy of its own. `None` for a
    /// key the plan does not hold.
    pub(crate) fn answer(&mut self, key: (u32, u32)) -> Option<(usize, bool)> {
        let g = self.groups.get_mut(&key)?;
        let fresh = g.next < g.end;
        g.next += u32::from(fresh);
        Some((self.order[g.next as usize - 1] as usize, fresh))
    }
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

    /// The server side of the plan: per `(client, xid)`, the calls
    /// whose replies answer that key, in call order. A list (not one
    /// reply per key) because a long trace reuses XIDs; calls for one
    /// client arrive on one connection in plan order, so serving the
    /// list front to back pairs them correctly. Calls with a lost reply
    /// are kept so a reused XID behind one still lines up.
    ///
    /// The schedule holds call ordinals, not reply bytes: a service
    /// reads each reply where it lies. It is built in two
    /// allocations whatever the plan's size (see [`ReplySchedule`]).
    pub(crate) fn reply_schedule(&self) -> ReplySchedule {
        let calls = u32::try_from(self.calls.len()).expect("a plan holds under 2^32 calls");
        let key = |i: u32| {
            let c = &self.calls[i as usize];
            (c.client_ip, c.xid)
        };
        // The ordinal breaks ties, so the unstable sort (which needs no
        // scratch buffer) keeps each key's calls in call order.
        let mut order: Vec<u32> = (0..calls).collect();
        order.sort_unstable_by_key(|&i| (key(i), i));
        let mut groups = HashMap::with_capacity(self.calls.len());
        let mut start = 0;
        for run in order.chunk_by(|&a, &b| key(a) == key(b)) {
            let end = start + run.len() as u32;
            groups.insert(key(run[0]), Group { next: start, end });
            start = end;
        }
        ReplySchedule { order, groups }
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
        let mut schedule = plan.reply_schedule();
        assert_eq!(schedule.answer((9, 100)), Some((0, true)));
        assert_eq!(schedule.answer((8, 100)), Some((2, true)));
        assert_eq!(schedule.answer((9, 100)), Some((1, true)));
        // Exhausted keys repeat their last call; unknown keys miss.
        assert_eq!(schedule.answer((9, 100)), Some((1, false)));
        assert_eq!(schedule.answer((8, 100)), Some((2, false)));
        assert_eq!(schedule.answer((9, 101)), None);
        assert_eq!(plan.client_ips(), vec![9, 8]);
    }
}
