//! Pairing RPC replies with their calls by XID.
//!
//! The tracer estimates packet loss "by counting the number of call and
//! response messages that had no corresponding response or call"
//! (paper §4.1.4). [`XidMatcher`] keeps a table of outstanding calls per
//! (client, server, xid) key, pairs each reply with its call, and expires
//! calls that never see a reply. It counts nothing: every operation
//! returns what happened — a retransmission, a pairing or an orphan, the
//! calls that expired — and the caller keeps the tally (the sniffer's
//! `SnifferStats`, which states the accounting rules).

use std::collections::HashMap;

/// Key identifying an outstanding call: the flow plus the XID.
///
/// Addresses are 32-bit IPv4 values; ports disambiguate multiple mounts
/// from one client. Keys order by `(client_ip, server_ip, client_port,
/// xid)`, the tiebreaker that makes [`XidMatcher::expire`] and
/// [`XidMatcher::drain`] deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowXid {
    /// Client IP (the caller).
    pub client_ip: u32,
    /// Server IP.
    pub server_ip: u32,
    /// Client source port.
    pub client_port: u16,
    /// RPC transaction id.
    pub xid: u32,
}

/// A call held while awaiting its reply.
#[derive(Debug, Clone)]
pub struct PendingCall<T> {
    /// Capture timestamp of the call, in microseconds.
    pub call_micros: u64,
    /// Caller-supplied payload (decoded call info).
    pub data: T,
}

/// Matches replies to calls with timeout-based expiry.
///
/// `T` is whatever the caller wants carried from call to reply time
/// (the sniffer stores the decoded call body).
///
/// # Examples
///
/// ```
/// use nfstrace_rpc::xid::{FlowXid, XidMatcher};
///
/// let mut m: XidMatcher<&'static str> = XidMatcher::new(2_000_000);
/// let key = FlowXid { client_ip: 1, server_ip: 2, client_port: 900, xid: 7 };
/// assert!(!m.insert_call(key, 1_000, "read call"));
/// assert!(m.insert_call(key, 1_500, "retransmitted"), "same key: a retransmission");
/// let hit = m.match_reply(key, 2_500).expect("paired");
/// assert_eq!(hit.data, "retransmitted");
/// assert!(m.match_reply(key, 2_600).is_none(), "nothing pending: an orphan");
/// ```
#[derive(Debug)]
pub struct XidMatcher<T> {
    pending: HashMap<FlowXid, PendingCall<T>>,
    timeout_micros: u64,
    /// Most recent timestamp observed, for expiry sweeps.
    now_micros: u64,
}

impl<T> XidMatcher<T> {
    /// Creates a matcher that expires unanswered calls after
    /// `timeout_micros`.
    pub fn new(timeout_micros: u64) -> Self {
        Self {
            pending: HashMap::new(),
            timeout_micros,
            now_micros: 0,
        }
    }

    /// Records an outgoing call observed at `call_micros`.
    ///
    /// Returns `true` when the key was already pending: a
    /// retransmission, the same transaction on the wire again. It
    /// replaces the stored call (the reply will match the
    /// retransmission).
    pub fn insert_call(&mut self, key: FlowXid, call_micros: u64, data: T) -> bool {
        self.now_micros = self.now_micros.max(call_micros);
        self.pending
            .insert(key, PendingCall { call_micros, data })
            .is_some()
    }

    /// Attempts to pair a reply observed at `reply_micros` with its call.
    ///
    /// Returns the pending call on success; `None` means no call is
    /// pending under `key` — an orphan reply, whose call was never
    /// captured.
    pub fn match_reply(&mut self, key: FlowXid, reply_micros: u64) -> Option<PendingCall<T>> {
        self.now_micros = self.now_micros.max(reply_micros);
        self.pending.remove(&key)
    }

    /// Expires calls older than the timeout relative to the most recent
    /// observed timestamp. Returns the expired calls, ordered by
    /// `(call_micros, key)` — hash-map iteration order must never leak
    /// into what a caller logs or replays.
    pub fn expire(&mut self) -> Vec<(FlowXid, PendingCall<T>)> {
        let cutoff = self.now_micros.saturating_sub(self.timeout_micros);
        let expired_keys: Vec<FlowXid> = self
            .pending
            .iter()
            .filter(|(_, c)| c.call_micros < cutoff)
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::with_capacity(expired_keys.len());
        for k in expired_keys {
            if let Some(c) = self.pending.remove(&k) {
                out.push((k, c));
            }
        }
        out.sort_by_key(|(k, c)| (c.call_micros, *k));
        out
    }

    /// Drains every outstanding call (end of capture). Ordered by
    /// `(call_micros, key)`, like [`XidMatcher::expire`].
    pub fn drain(&mut self) -> Vec<(FlowXid, PendingCall<T>)> {
        let mut out: Vec<_> = self.pending.drain().collect();
        out.sort_by_key(|(k, c)| (c.call_micros, *k));
        out
    }

    /// Number of calls currently awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Capture time of the oldest call still awaiting its reply, or
    /// `None` when nothing is outstanding.
    ///
    /// This is the matcher's contribution to an incremental drain
    /// watermark: any record a future reply produces will be stamped
    /// with its call's capture time, which is at least this.
    pub fn oldest_pending_micros(&self) -> Option<u64> {
        self.pending.values().map(|c| c.call_micros).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(xid: u32) -> FlowXid {
        FlowXid {
            client_ip: 0x0a000001,
            server_ip: 0x0a000002,
            client_port: 1001,
            xid,
        }
    }

    #[test]
    fn call_then_reply_pairs() {
        let mut m = XidMatcher::new(1_000_000);
        assert!(!m.insert_call(key(1), 100, ()));
        assert_eq!(m.outstanding(), 1);
        assert!(m.match_reply(key(1), 200).is_some());
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn orphan_reply_counted() {
        let mut m: XidMatcher<()> = XidMatcher::new(1_000_000);
        assert!(m.match_reply(key(9), 50).is_none());
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn expiry_removes_old_calls_only() {
        let mut m = XidMatcher::new(1_000);
        m.insert_call(key(1), 0, ());
        m.insert_call(key(2), 5_000, ());
        let expired = m.expire();
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0.xid, 1);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn retransmit_detected() {
        let mut m = XidMatcher::new(1_000_000);
        assert!(!m.insert_call(key(1), 100, "first"));
        assert!(m.insert_call(key(1), 300, "retry"));
        assert_eq!(m.match_reply(key(1), 400).unwrap().data, "retry");
    }

    #[test]
    fn distinct_flows_do_not_collide() {
        let mut m = XidMatcher::new(1_000_000);
        let k1 = FlowXid {
            client_ip: 1,
            server_ip: 2,
            client_port: 10,
            xid: 42,
        };
        let k2 = FlowXid {
            client_port: 11,
            ..k1
        };
        m.insert_call(k1, 0, "a");
        m.insert_call(k2, 0, "b");
        assert_eq!(m.match_reply(k2, 1).unwrap().data, "b");
        assert_eq!(m.match_reply(k1, 1).unwrap().data, "a");
    }

    /// What the §4.1.4 estimate needs, from return values alone: the
    /// pairs, and the orphans whose calls were dropped.
    #[test]
    fn loss_rate_estimate() {
        let mut m: XidMatcher<()> = XidMatcher::new(1_000);
        let mut paired = 0;
        for i in 0..90 {
            m.insert_call(key(i), 0, ());
            paired += usize::from(m.match_reply(key(i), 1).is_some());
        }
        let orphans = (100..110)
            .filter(|&i| m.match_reply(key(i), 1).is_none())
            .count();
        assert_eq!((paired, orphans, m.outstanding()), (90, 10, 0));
    }

    #[test]
    fn oldest_pending_tracks_min_call_time() {
        let mut m = XidMatcher::new(1_000_000);
        assert_eq!(m.oldest_pending_micros(), None);
        m.insert_call(key(1), 500, ());
        m.insert_call(key(2), 100, ());
        m.insert_call(key(3), 900, ());
        assert_eq!(m.oldest_pending_micros(), Some(100));
        assert!(m.match_reply(key(2), 950).is_some());
        assert_eq!(m.oldest_pending_micros(), Some(500));
        m.drain();
        assert_eq!(m.oldest_pending_micros(), None);
    }

    /// Expiry and drain order is pinned: `(call_micros, key)`, never
    /// whatever the hash map happens to iterate.
    #[test]
    fn expire_and_drain_order_is_deterministic() {
        let keys: Vec<FlowXid> = (0..24u32)
            .map(|i| FlowXid {
                client_ip: 0x0a00_0000 | (i % 5),
                server_ip: 0x0a00_00ff,
                client_port: 900 + (i % 3) as u16,
                xid: i.wrapping_mul(0x9e37_79b9),
            })
            .collect();
        // Many ties on call_micros force the key tiebreaker to matter.
        let mut expected: Vec<(FlowXid, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (i as u64 % 4) * 10))
            .collect();
        expected.sort_by_key(|&(k, t)| (t, k));

        let mut m = XidMatcher::new(1_000);
        for (i, &k) in keys.iter().enumerate() {
            m.insert_call(k, (i as u64 % 4) * 10, ());
        }
        m.insert_call(key(999), 1_000_000, ()); // keeps `now` fresh
        let expired: Vec<(FlowXid, u64)> = m
            .expire()
            .into_iter()
            .map(|(k, c)| (k, c.call_micros))
            .collect();
        assert_eq!(expired.len(), keys.len());
        assert_eq!(expired, expected);

        let mut m = XidMatcher::new(1_000_000);
        for (i, &k) in keys.iter().enumerate() {
            m.insert_call(k, (i as u64 % 4) * 10, ());
        }
        let drained: Vec<(FlowXid, u64)> = m
            .drain()
            .into_iter()
            .map(|(k, c)| (k, c.call_micros))
            .collect();
        assert_eq!(drained, expired);
    }

    /// A retransmission is the same transaction twice, not a fresh
    /// call: it says so, and holds one pending slot, which one reply
    /// resolves.
    #[test]
    fn retransmit_does_not_count_as_fresh_call() {
        let mut m = XidMatcher::new(1_000_000);
        assert!(!m.insert_call(key(1), 100, "first"));
        assert!(m.insert_call(key(1), 300, "retry"));
        assert!(m.insert_call(key(1), 500, "retry again"));
        assert_eq!(m.outstanding(), 1);
        assert!(m.match_reply(key(1), 600).is_some());
        assert_eq!(m.outstanding(), 0);
        assert!(
            m.drain().is_empty(),
            "resolved once, nothing left to expire"
        );
    }

    #[test]
    fn drain_counts_expired() {
        let mut m = XidMatcher::new(1_000);
        m.insert_call(key(1), 0, ());
        m.insert_call(key(2), 0, ());
        let drained = m.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.outstanding(), 0);
    }
}
