//! RPC record marking over TCP (RFC 1831 §10).
//!
//! A TCP byte stream carries RPC messages as *records*, each split into
//! fragments headed by a 4-byte marker: the top bit flags the last
//! fragment, the low 31 bits give the fragment length. The paper's tracer
//! supported "some forms of TCP packet coalescing" (§2) — i.e. multiple
//! records and partial records per segment — which is exactly what
//! [`RecordReader`] handles.

use nfstrace_xdr::{Error, Result};

/// Flag bit marking the final fragment of a record.
const LAST_FRAGMENT: u32 = 0x8000_0000;

/// Sane ceiling on a single record, to resynchronize after stream
/// corruption rather than buffering unboundedly.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

/// Encodes one RPC message as a single-fragment record.
pub fn mark_record(msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + msg.len());
    mark_record_into(msg, &mut out);
    out
}

/// Appends one RPC message as a single-fragment record to `out`: the
/// scratch-buffer-reusing form of [`mark_record`]. `out` is not cleared,
/// so a stream of records can be marked into one reused buffer.
pub fn mark_record_into(msg: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&record_mark(msg.len()));
    out.extend_from_slice(msg);
}

/// The 4-byte mark heading a single-fragment record of `len` bytes —
/// for a sender that puts the mark and the message on the wire from
/// separate buffers.
pub fn record_mark(len: usize) -> [u8; 4] {
    (LAST_FRAGMENT | len as u32).to_be_bytes()
}

/// Starts a single-fragment record in `out` whose message is about to
/// be produced in place: reserves the 4-byte mark and returns its
/// offset. Append the message to `out`, then pass the offset to
/// [`end_record`] — or `out.truncate(offset)` to abandon the record.
/// Together the pair is [`mark_record_into`] for a message that does
/// not exist elsewhere yet, so it need not be copied to be framed.
pub fn begin_record(out: &mut Vec<u8>) -> usize {
    let mark_at = out.len();
    out.extend_from_slice(&[0; 4]);
    mark_at
}

/// Completes the record started by [`begin_record`] at `mark_at`:
/// back-patches the mark with the length of everything appended since.
///
/// # Panics
///
/// Panics if `mark_at` is not an offset [`begin_record`] returned for
/// this buffer (fewer than four bytes follow it).
pub fn end_record(out: &mut [u8], mark_at: usize) {
    let len = out.len() - mark_at - 4;
    out[mark_at..mark_at + 4].copy_from_slice(&record_mark(len));
}

/// Encodes one RPC message split into fragments of at most `frag_len`
/// bytes, exercising multi-fragment reassembly.
///
/// # Panics
///
/// Panics if `frag_len` is zero.
pub fn mark_record_fragmented(msg: &[u8], frag_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.len() + 8);
    mark_record_fragmented_into(msg, frag_len, &mut out);
    out
}

/// Appends a fragmented record to `out`: the scratch-buffer-reusing form
/// of [`mark_record_fragmented`]. `out` is not cleared.
///
/// # Panics
///
/// Panics if `frag_len` is zero.
pub fn mark_record_fragmented_into(msg: &[u8], frag_len: usize, out: &mut Vec<u8>) {
    assert!(frag_len > 0, "fragment length must be positive");
    let mut chunks = msg.chunks(frag_len).peekable();
    if msg.is_empty() {
        out.extend_from_slice(&LAST_FRAGMENT.to_be_bytes());
        return;
    }
    while let Some(chunk) = chunks.next() {
        let mut header = chunk.len() as u32;
        if chunks.peek().is_none() {
            header |= LAST_FRAGMENT;
        }
        out.extend_from_slice(&header.to_be_bytes());
        out.extend_from_slice(chunk);
    }
}

/// Incrementally extracts RPC records from a reassembled TCP stream.
///
/// Feed stream bytes with [`RecordReader::push`]; complete messages pop
/// out of [`RecordReader::next_record`]. Partial input is buffered.
///
/// # Examples
///
/// ```
/// use nfstrace_rpc::record::{mark_record, RecordReader};
///
/// let mut r = RecordReader::new();
/// let wire = mark_record(b"hello rpc");
/// r.push(&wire[..3]);           // partial header
/// assert!(r.next_record().unwrap().is_none());
/// r.push(&wire[3..]);
/// assert_eq!(r.next_record().unwrap().unwrap(), b"hello rpc");
/// ```
#[derive(Debug, Default)]
pub struct RecordReader {
    buf: Vec<u8>,
    /// Offset of unconsumed data in `buf` (dropped by the next `push`).
    start: usize,
    /// Scratch for records assembled across fragments or pushes. Reused:
    /// the previous record's bytes are cleared lazily on the next call
    /// (see `record_done`), so steady-state extraction never allocates.
    record: Vec<u8>,
    /// The scratch holds a fully returned record awaiting lazy clear.
    record_done: bool,
    /// Remaining bytes of the current fragment, if mid-fragment.
    frag_remaining: usize,
    /// Whether the current fragment is the record's last.
    frag_is_last: bool,
    /// Whether we are mid-fragment (frag_remaining may be 0 legally only
    /// between fragments).
    in_fragment: bool,
}

/// One complete record, borrowed from a [`RecordReader`]'s internal
/// buffers. Valid until the reader's next mutation (`push`,
/// `next_record_ref`, `reset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The record's bytes (one whole RPC message).
    pub bytes: &'a [u8],
    /// `true` when the record was assembled in the scratch buffer
    /// (multi-fragment, or split across pushes — its bytes copied there
    /// once); `false` when it is a direct view into the stream buffer.
    pub assembled: bool,
}

impl RecordReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends reassembled stream bytes.
    ///
    /// Bytes that continue the fragment being assembled go straight to
    /// the record scratch when no earlier byte is still waiting in the
    /// stream buffer — the body of a record that spans many segments is
    /// copied once, from the caller's slice into the record. Everything
    /// else (record marks, the records that follow) is staged in the
    /// stream buffer for [`RecordReader::next_record_ref`].
    ///
    /// The consumed prefix of the stream buffer is dropped on every
    /// call, so the buffer holds at most what one push delivered plus a
    /// partial mark, however the stream is cut.
    pub fn push(&mut self, mut data: &[u8]) {
        if self.start > 0 {
            // After a caller has drained its records, fewer than four
            // bytes (a partial mark) remain to be moved.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.in_fragment && self.buf.is_empty() {
            let (body, rest) = data.split_at(data.len().min(self.frag_remaining));
            self.record.extend_from_slice(body);
            self.frag_remaining -= body.len();
            data = rest;
        }
        self.buf.extend_from_slice(data);
    }

    /// Discards all buffered state; used to resynchronize after a stream
    /// gap (the caller realigns on the next record boundary heuristically).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.record.clear();
        self.record_done = false;
        self.frag_remaining = 0;
        self.frag_is_last = false;
        self.in_fragment = false;
    }

    /// Bytes buffered but not yet returned.
    pub fn buffered(&self) -> usize {
        let partial = if self.record_done {
            0 // scratch holds an already-returned record, cleared lazily
        } else {
            self.record.len()
        };
        (self.buf.len() - self.start) + partial
    }

    /// Attempts to extract the next complete record.
    ///
    /// # Errors
    ///
    /// [`Error::LengthTooLarge`] if a fragment header declares a length
    /// beyond [`MAX_RECORD_LEN`] — the stream is corrupt and the caller
    /// should [`RecordReader::reset`].
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.next_record_ref()?.map(|r| r.bytes.to_vec()))
    }

    /// Attempts to extract the next complete record as a borrowed view —
    /// the zero-copy form of [`RecordReader::next_record`].
    ///
    /// A single-fragment record lying contiguous in the stream buffer is
    /// returned as a direct slice into it (no copy at all); records split
    /// across fragments or pushes are assembled in an internal scratch
    /// buffer that is reused from record to record, so steady-state
    /// extraction performs no allocation either way. The returned view
    /// borrows the reader and dies at its next mutation.
    ///
    /// # Errors
    ///
    /// Same as [`RecordReader::next_record`].
    pub fn next_record_ref(&mut self) -> Result<Option<RecordRef<'_>>> {
        if self.record_done {
            self.record.clear();
            self.record_done = false;
        }
        loop {
            if self.in_fragment {
                let avail = self.buf.len() - self.start;
                let take = avail.min(self.frag_remaining);
                self.record
                    .extend_from_slice(&self.buf[self.start..self.start + take]);
                self.start += take;
                self.frag_remaining -= take;
                if self.frag_remaining > 0 {
                    return Ok(None); // need more stream data
                }
                self.in_fragment = false;
                if self.frag_is_last {
                    self.record_done = true;
                    return Ok(Some(RecordRef {
                        bytes: &self.record,
                        assembled: true,
                    }));
                }
                // Fall through to read the next fragment header.
            }
            let avail = self.buf.len() - self.start;
            if avail < 4 {
                return Ok(None);
            }
            let h = &self.buf[self.start..self.start + 4];
            let header = u32::from_be_bytes([h[0], h[1], h[2], h[3]]);
            let len = (header & !LAST_FRAGMENT) as usize;
            if len > MAX_RECORD_LEN || self.record.len() + len > MAX_RECORD_LEN {
                return Err(Error::LengthTooLarge {
                    declared: len,
                    limit: MAX_RECORD_LEN,
                });
            }
            let last = header & LAST_FRAGMENT != 0;
            if last && self.record.is_empty() && avail - 4 >= len {
                // Fast path: a whole single-fragment record contiguous in
                // the stream buffer — hand out a direct view.
                let body = self.start + 4;
                self.start = body + len;
                return Ok(Some(RecordRef {
                    bytes: &self.buf[body..body + len],
                    assembled: false,
                }));
            }
            self.start += 4;
            self.frag_remaining = len;
            self.frag_is_last = last;
            self.in_fragment = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_record() {
        let mut r = RecordReader::new();
        r.push(&mark_record(b"abcd"));
        assert_eq!(r.next_record().unwrap().unwrap(), b"abcd");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn coalesced_records_in_one_push() {
        let mut r = RecordReader::new();
        let mut wire = mark_record(b"first");
        wire.extend_from_slice(&mark_record(b"second"));
        r.push(&wire);
        assert_eq!(r.next_record().unwrap().unwrap(), b"first");
        assert_eq!(r.next_record().unwrap().unwrap(), b"second");
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn record_split_across_pushes_byte_by_byte() {
        let wire = mark_record(b"slow trickle");
        let mut r = RecordReader::new();
        let mut out = Vec::new();
        for b in wire {
            r.push(&[b]);
            if let Some(rec) = r.next_record().unwrap() {
                out = rec;
            }
        }
        assert_eq!(out, b"slow trickle");
    }

    #[test]
    fn multi_fragment_record() {
        let msg: Vec<u8> = (0..100).collect();
        let wire = mark_record_fragmented(&msg, 7);
        let mut r = RecordReader::new();
        r.push(&wire);
        assert_eq!(r.next_record().unwrap().unwrap(), msg);
    }

    #[test]
    fn empty_record() {
        let mut r = RecordReader::new();
        r.push(&mark_record(b""));
        assert_eq!(r.next_record().unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_header_is_error() {
        let mut r = RecordReader::new();
        let header = (MAX_RECORD_LEN as u32 + 1) | 0x8000_0000;
        r.push(&header.to_be_bytes());
        assert!(r.next_record().is_err());
        r.reset();
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn ref_reader_fast_path_is_a_direct_view() {
        let mut r = RecordReader::new();
        let mut wire = mark_record(b"first");
        mark_record_into(b"second", &mut wire);
        r.push(&wire);
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!(rec.bytes, b"first");
        assert!(!rec.assembled, "contiguous record should not be copied");
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!(rec.bytes, b"second");
        assert!(!rec.assembled);
        assert!(r.next_record_ref().unwrap().is_none());
    }

    #[test]
    fn ref_reader_assembles_fragments_in_reused_scratch() {
        let msg: Vec<u8> = (0..100).collect();
        let mut wire = mark_record_fragmented(&msg, 7);
        mark_record_fragmented_into(&msg, 13, &mut wire);
        let mut r = RecordReader::new();
        r.push(&wire);
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!(rec.bytes, msg);
        assert!(rec.assembled);
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!(rec.bytes, msg);
        assert!(rec.assembled);
        assert!(r.next_record_ref().unwrap().is_none());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn ref_reader_split_push_counts_as_assembled() {
        let wire = mark_record(b"split across pushes");
        let mut r = RecordReader::new();
        r.push(&wire[..7]);
        assert!(r.next_record_ref().unwrap().is_none());
        r.push(&wire[7..]);
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!(rec.bytes, b"split across pushes");
        assert!(rec.assembled);
    }

    #[test]
    fn mark_into_variants_append_identically() {
        let mut streamed = Vec::new();
        mark_record_into(b"one", &mut streamed);
        mark_record_fragmented_into(b"twotwo", 4, &mut streamed);
        let mut concat = mark_record(b"one");
        concat.extend_from_slice(&mark_record_fragmented(b"twotwo", 4));
        assert_eq!(streamed, concat);
    }

    #[test]
    fn begin_end_record_frames_in_place_like_mark_record_into() {
        let mut in_place = b"earlier bytes".to_vec();
        let mut copied = in_place.clone();
        for msg in [&b"reply one"[..], b"", b"three"] {
            let mark_at = begin_record(&mut in_place);
            in_place.extend_from_slice(msg);
            end_record(&mut in_place, mark_at);
            mark_record_into(msg, &mut copied);
        }
        assert_eq!(in_place, copied);
        // An abandoned record leaves no trace.
        let mark_at = begin_record(&mut in_place);
        in_place.truncate(mark_at);
        assert_eq!(in_place, copied);
        assert_eq!(record_mark(5), mark_record(b"12345")[..4]);
    }

    #[test]
    fn interleaved_fragment_and_next_record() {
        let a = mark_record_fragmented(b"AAAA", 2);
        let b = mark_record(b"BB");
        let mut wire = a;
        wire.extend_from_slice(&b);
        let mut r = RecordReader::new();
        // Push in awkward chunks.
        for chunk in wire.chunks(3) {
            r.push(chunk);
        }
        assert_eq!(r.next_record().unwrap().unwrap(), b"AAAA");
        assert_eq!(r.next_record().unwrap().unwrap(), b"BB");
    }

    /// Segments that each end a byte or so into the next record's mark
    /// never leave the stream buffer fully consumed; the consumed prefix
    /// must still be dropped, or the buffer grows with the connection.
    #[test]
    fn misaligned_segments_do_not_accumulate_in_the_stream_buffer() {
        const RECORDS: usize = 10_000;
        const SEGMENT: usize = 104; // a 100-byte record plus its mark
        let body = [0x5a_u8; 100];
        let mut wire = Vec::with_capacity(RECORDS * SEGMENT);
        for _ in 0..RECORDS {
            mark_record_into(&body, &mut wire);
        }
        let mut r = RecordReader::new();
        let mut seen = 0;
        // Shifted by one: every segment ends one byte into the next mark.
        let (first, rest) = wire.split_at(SEGMENT + 1);
        for segment in std::iter::once(first).chain(rest.chunks(SEGMENT)) {
            r.push(segment);
            while let Some(rec) = r.next_record_ref().unwrap() {
                assert_eq!(rec.bytes, body);
                seen += 1;
            }
            assert!(
                r.buf.len() <= SEGMENT + 1 + 4,
                "stream buffer holds {} bytes after {seen} records",
                r.buf.len()
            );
        }
        assert_eq!(seen, RECORDS);
        assert_eq!(r.buffered(), 0);
        assert!(r.buf.capacity() <= 4 * SEGMENT, "{}", r.buf.capacity());
    }

    /// The bytes of a fragment under assembly bypass the stream buffer
    /// when nothing is waiting in it — and only then.
    #[test]
    fn fragment_bytes_are_spliced_into_the_record_scratch() {
        let msg: Vec<u8> = (0..200u8).collect();
        let mut wire = mark_record(&msg);
        mark_record_into(b"next", &mut wire);
        let mut r = RecordReader::new();
        r.push(&wire[..50]);
        assert!(r.next_record_ref().unwrap().is_none());
        assert!(r.in_fragment);
        // Mid-body: all of it goes to the scratch.
        r.push(&wire[50..120]);
        assert_eq!((r.buf.len(), r.record.len()), (0, 116));
        assert_eq!(r.buffered(), 116);
        // The body's end, the next record behind it: only the rest is
        // staged.
        r.push(&wire[120..]);
        assert_eq!((r.buf.len(), r.record.len()), (8, 200));
        // Pushed before the reader ran again: ordered behind the staged
        // bytes, not spliced.
        r.push(&mark_record(b"third"));
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!((rec.bytes, rec.assembled), (&msg[..], true));
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!((rec.bytes, rec.assembled), (&b"next"[..], false));
        let rec = r.next_record_ref().unwrap().unwrap();
        assert_eq!((rec.bytes, rec.assembled), (&b"third"[..], false));
        assert!(r.next_record_ref().unwrap().is_none());
        assert_eq!(r.buffered(), 0);
    }
}
