//! TCP byte-stream reassembly.
//!
//! The paper's tracer had to handle "some forms of TCP packet coalescing"
//! (§2): RPC messages on CAMPUS arrived packed into a TCP stream, split
//! and merged arbitrarily by the sender, and the mirror port could deliver
//! segments out of order or drop them outright. [`StreamReassembler`]
//! reconstructs the in-order byte stream from segments identified by
//! sequence number, tolerating duplication, overlap, and reordering, and
//! reports gaps (from drops) so the RPC layer can resynchronize.

use std::collections::BTreeMap;

/// Reassembles one direction of one TCP connection.
///
/// Segments are fed in with their 32-bit sequence numbers. There are
/// two ways to get the in-order bytes back out, over one state machine:
///
/// * [`StreamReassembler::push_read`] feeds a segment and returns what
///   it made contiguous. For the common segment — at the frontier, with
///   nothing parked and nothing staged — that is the caller's own
///   payload slice, **not copied**; anything else is staged and drained
///   exactly as below.
/// * [`StreamReassembler::push`] stages the bytes in an internal buffer
///   and [`StreamReassembler::read_available`] drains it: any number of
///   pushes, then one read.
///
/// If a gap persists (a dropped segment), [`StreamReassembler::skip_gap`]
/// jumps over it and returns how many bytes it skipped.
///
/// # Examples
///
/// ```
/// use nfstrace_net::reassembly::StreamReassembler;
///
/// let mut r = StreamReassembler::new(1000);
/// r.push(1004, b"world");   // arrives first, out of order
/// r.push(1000, b"hell");
/// assert_eq!(r.read_available(), b"hellworld");
/// assert_eq!(r.push_read(1009, b"!"), b"!"); // in order: the slice itself
/// ```
#[derive(Debug)]
pub struct StreamReassembler {
    /// Reused drain buffer behind [`StreamReassembler::read_available`].
    /// [`StreamReassembler::push`] appends in-order segments here
    /// directly, skipping the pending map; an in-order
    /// [`StreamReassembler::push_read`] skips this buffer too.
    ready: Vec<u8>,
    /// Whether `ready` has been handed out by `read_available` and must
    /// be cleared before the next bytes are staged.
    consumed: bool,
    /// Next expected sequence number (start of the contiguous frontier).
    next_seq: u32,
    /// Out-of-order segments keyed by relative offset from `next_seq`'s
    /// original position. Using u64 relative offsets sidesteps sequence
    /// wraparound for streams under 2^32 bytes either side of the origin.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Origin sequence number, fixed at creation.
    origin: u32,
    /// Relative offset of `next_seq` from the origin.
    frontier: u64,
}

impl StreamReassembler {
    /// Creates a reassembler whose first expected byte is `initial_seq`.
    pub fn new(initial_seq: u32) -> Self {
        Self {
            ready: Vec::new(),
            consumed: false,
            next_seq: initial_seq,
            pending: BTreeMap::new(),
            origin: initial_seq,
            frontier: 0,
        }
    }

    /// Relative stream offset of a sequence number (wrap-aware).
    fn rel(&self, seq: u32) -> u64 {
        u64::from(seq.wrapping_sub(self.origin))
    }

    /// Drops bytes already handed out before staging new ones.
    fn reset_ready(&mut self) {
        if self.consumed {
            self.ready.clear();
            self.consumed = false;
        }
    }

    /// Appends in-order bytes to the drain buffer.
    fn stage(&mut self, data: &[u8]) {
        self.reset_ready();
        self.ready.extend_from_slice(data);
    }

    /// The state machine behind both feeding calls: trims what of one
    /// segment was already delivered, and either parks it
    /// (`None`) or — when it lands exactly at the frontier with nothing
    /// parked — advances the frontier over it and returns the accepted
    /// bytes, still in the caller's buffer, for the caller to splice or
    /// stage.
    fn accept<'p>(&mut self, seq: u32, payload: &'p [u8]) -> Option<&'p [u8]> {
        if payload.is_empty() {
            return None;
        }
        let mut off = self.rel(seq);
        let mut data = payload;

        // Trim any prefix already delivered.
        if off < self.frontier {
            let overlap = (self.frontier - off).min(data.len() as u64) as usize;
            data = &data[overlap..];
            off = self.frontier;
            if data.is_empty() {
                return None;
            }
        }
        // The common in-order stream: nothing to park, nothing to merge.
        if off == self.frontier && self.pending.is_empty() {
            self.frontier += data.len() as u64;
            self.next_seq = self.origin.wrapping_add(self.frontier as u32);
            return Some(data);
        }
        // Insert, unless a segment at the same offset already covers it.
        if self
            .pending
            .get(&off)
            .is_none_or(|existing| existing.len() < data.len())
        {
            self.pending.insert(off, data.to_vec());
        }
        None
    }

    /// Feeds one segment's payload at `seq`, staging whatever it makes
    /// contiguous for [`StreamReassembler::read_available`].
    ///
    /// Duplicate and already-delivered bytes are discarded; overlapping
    /// prefixes are trimmed.
    pub fn push(&mut self, seq: u32, payload: &[u8]) {
        if let Some(data) = self.accept(seq, payload) {
            self.stage(data);
        }
    }

    /// Feeds one segment's payload at `seq` and returns every byte now
    /// contiguous at the frontier and not yet handed out — exactly what
    /// [`StreamReassembler::push`] followed by
    /// [`StreamReassembler::read_available`] returns, without the copy
    /// when the two can be told apart: a segment that lands at the
    /// frontier with nothing parked behind a gap and nothing staged by
    /// an earlier `push` comes back as (the undelivered part of)
    /// `payload` itself. Every other segment takes the staged path and
    /// the result borrows the drain buffer.
    pub fn push_read<'a>(&'a mut self, seq: u32, payload: &'a [u8]) -> &'a [u8] {
        match self.accept(seq, payload) {
            Some(data) if self.consumed || self.ready.is_empty() => data,
            Some(data) => {
                self.stage(data);
                self.read_available()
            }
            None => self.read_available(),
        }
    }

    /// Drains all bytes that are now contiguous at the frontier.
    ///
    /// The returned slice borrows an internal buffer that is reused by
    /// the next call — copy it out if it must outlive the reassembler's
    /// next mutation.
    pub fn read_available(&mut self) -> &[u8] {
        self.reset_ready();
        while let Some((&off, _)) = self.pending.range(..=self.frontier).next_back() {
            let seg = self.pending.remove(&off).expect("key just observed");
            let seg_end = off + seg.len() as u64;
            if seg_end <= self.frontier {
                // Entirely stale.
                continue;
            }
            let skip = (self.frontier - off) as usize;
            self.ready.extend_from_slice(&seg[skip..]);
            self.frontier = seg_end;
            self.next_seq = self.origin.wrapping_add(self.frontier as u32);
        }
        self.consumed = true;
        &self.ready
    }

    /// Whether out-of-order data is waiting beyond a gap.
    pub fn has_gap(&self) -> bool {
        self.pending
            .keys()
            .next()
            .is_some_and(|&off| off > self.frontier)
    }

    /// Total bytes parked out-of-order beyond the frontier, waiting for
    /// a gap to fill. A large value means the gap is real (packet loss),
    /// not mere reordering.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.values().map(|v| v.len() as u64).sum()
    }

    /// Size in bytes of the gap in front of the oldest pending segment,
    /// or 0 when there is no gap.
    pub fn gap_len(&self) -> u64 {
        match self.pending.keys().next() {
            Some(&off) if off > self.frontier => off - self.frontier,
            _ => 0,
        }
    }

    /// Abandons the current gap: advances the frontier to the oldest
    /// pending segment. Returns the number of bytes skipped — lost.
    ///
    /// The sniffer calls this when a gap has aged out, then
    /// resynchronizes on RPC record marks.
    pub fn skip_gap(&mut self) -> u64 {
        let skipped = self.gap_len();
        if skipped > 0 {
            self.frontier += skipped;
            self.next_seq = self.origin.wrapping_add(self.frontier as u32);
        }
        skipped
    }

    /// Next expected sequence number.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"abc");
        r.push(3, b"def");
        assert_eq!(r.read_available(), b"abcdef");
        assert!(!r.has_gap());
    }

    #[test]
    fn out_of_order_two_segments() {
        let mut r = StreamReassembler::new(100);
        r.push(103, b"def");
        assert!(r.has_gap());
        assert_eq!(r.gap_len(), 3);
        assert!(r.read_available().is_empty());
        r.push(100, b"abc");
        assert_eq!(r.read_available(), b"abcdef");
        assert!(!r.has_gap());
    }

    #[test]
    fn duplicate_segment_discarded() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"abcd");
        assert_eq!(r.read_available(), b"abcd");
        r.push(0, b"abcd");
        assert!(r.read_available().is_empty());
        assert_eq!(r.pending_bytes(), 0, "nothing parked either");
        assert_eq!(r.next_seq(), 4);
    }

    #[test]
    fn overlapping_retransmit_trimmed() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"abcd");
        assert_eq!(r.read_available(), b"abcd");
        // Retransmit covering old+new bytes.
        r.push(2, b"cdEF");
        assert_eq!(r.read_available(), b"EF");
    }

    #[test]
    fn gap_skip_counts_lost_bytes() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"ab");
        r.push(10, b"xy");
        assert_eq!(r.read_available(), b"ab");
        assert_eq!(r.gap_len(), 8);
        assert_eq!(r.skip_gap(), 8);
        assert_eq!(r.read_available(), b"xy");
        assert_eq!(r.skip_gap(), 0, "no gap left to skip");
        assert_eq!(r.next_seq(), 12);
    }

    #[test]
    fn sequence_wraparound() {
        let start = u32::MAX - 1;
        let mut r = StreamReassembler::new(start);
        r.push(start, b"ab"); // bytes at 0xFFFFFFFE, 0xFFFFFFFF
        r.push(0, b"cd"); // wraps
        assert_eq!(r.read_available(), b"abcd");
        assert_eq!(r.next_seq(), 2);
    }

    /// Many segments delivered out of order across the `u32::MAX`
    /// boundary: the relative-offset bookkeeping must see one contiguous
    /// stream, not a gap at the wrap point.
    #[test]
    fn wraparound_with_out_of_order_segments() {
        let data: Vec<u8> = (0..200u32).flat_map(|i| i.to_be_bytes()).collect();
        let start = u32::MAX - 350; // the wrap lands mid-stream
        let mut r = StreamReassembler::new(start);
        let chunks: Vec<(u32, &[u8])> = data
            .chunks(16)
            .enumerate()
            .map(|(i, c)| (start.wrapping_add((i * 16) as u32), c))
            .collect();
        // Everything after the first chunk arrives before it.
        for &(seq, chunk) in chunks.iter().skip(1).rev() {
            r.push(seq, chunk);
        }
        assert!(r.has_gap());
        r.push(chunks[0].0, chunks[0].1);
        assert_eq!(r.read_available(), data);
        assert!(!r.has_gap());
        assert_eq!(r.next_seq(), start.wrapping_add(data.len() as u32));
        assert_eq!(r.skip_gap(), 0);
    }

    #[test]
    fn empty_push_is_noop() {
        let mut r = StreamReassembler::new(5);
        r.push(5, b"");
        assert!(r.read_available().is_empty());
        assert!(!r.has_gap());
        assert_eq!(r.next_seq(), 5);
    }

    /// The in-order fast path stages bytes without a heap copy but must
    /// keep `read_available`'s semantics: each call returns exactly the
    /// bytes made contiguous since the previous call.
    #[test]
    fn fast_path_interleaves_with_pending_drain() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"ab"); // fast path
        r.push(2, b"cd"); // fast path
        assert_eq!(r.read_available(), b"abcd");
        assert!(r.read_available().is_empty());
        r.push(6, b"gh"); // out of order: parked
        r.push(4, b"ef"); // fills the gap; pending non-empty so slow path
        assert_eq!(r.read_available(), b"efgh");
        r.push(8, b"ij"); // fast path again after the drain
        assert_eq!(r.read_available(), b"ij");
        assert_eq!(r.skip_gap(), 0);
        assert_eq!(r.next_seq(), 10);
    }

    #[test]
    fn fast_path_after_skip_gap() {
        let mut r = StreamReassembler::new(0);
        r.push(0, b"ab");
        assert_eq!(r.read_available(), b"ab");
        r.push(10, b"xy");
        assert!(r.read_available().is_empty());
        assert_eq!(r.skip_gap(), 8);
        assert_eq!(r.read_available(), b"xy");
        r.push(12, b"zz");
        assert_eq!(r.read_available(), b"zz");
    }

    #[test]
    fn interleaved_many_segments() {
        let data: Vec<u8> = (0..=255).collect();
        let mut r = StreamReassembler::new(0);
        // Push in a scrambled but deterministic order of 16-byte chunks.
        let order = [3usize, 0, 7, 1, 15, 2, 9, 4, 5, 12, 6, 8, 10, 11, 13, 14];
        for &i in &order {
            r.push((i * 16) as u32, &data[i * 16..(i + 1) * 16]);
        }
        assert_eq!(r.read_available(), data);
    }

    #[test]
    fn push_read_lends_the_in_order_payload_and_stages_the_rest() {
        let mut r = StreamReassembler::new(0);
        let seg = *b"abcd";
        let got = r.push_read(0, &seg);
        assert_eq!(got.as_ptr(), seg.as_ptr(), "in order: the slice itself");
        // An overlapping retransmit: the undelivered tail of the payload.
        let seg = *b"cdEF";
        let got = r.push_read(2, &seg);
        assert_eq!((got, got.as_ptr()), (&b"EF"[..], seg[2..].as_ptr()));
        assert!(r.read_available().is_empty(), "nothing was staged");
        // Behind a gap: parked; then the fill drains both, staged.
        assert!(r.push_read(8, b"ij").is_empty());
        assert_eq!(r.push_read(6, b"gh"), b"ghij");
        // After a staged `push`, order wins over the splice.
        r.push(10, b"kl");
        assert_eq!(r.push_read(12, b"mn"), b"klmn");
        assert_eq!(r.push_read(14, b"op"), b"op");
        assert_eq!(r.push_read(14, b"op"), b"", "a duplicate yields nothing");
        assert_eq!(r.next_seq(), 16);
        assert!(r.read_available().is_empty() && !r.has_gap());
    }
}
