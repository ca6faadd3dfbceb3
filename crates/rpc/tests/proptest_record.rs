//! Property tests for RPC record marking over an arbitrarily cut
//! stream.
//!
//! [`RecordReader::push`] routes bytes two ways — a fragment under
//! assembly takes them straight into the record scratch, everything
//! else waits in the stream buffer — and which way depends on where the
//! stream happens to be cut. None of that may show: however a marked
//! stream is segmented, and whenever the caller drains, the records
//! that come out are the records that went in.

use nfstrace_rpc::record::{mark_record_fragmented_into, mark_record_into, RecordReader};
use proptest::prelude::*;

/// Every record the reader has ready, as `(bytes, assembled)`.
fn drain(reader: &mut RecordReader, out: &mut Vec<(Vec<u8>, bool)>) {
    while let Some(rec) = reader.next_record_ref().expect("well-marked stream") {
        out.push((rec.bytes.to_vec(), rec.assembled));
    }
}

proptest! {
    #[test]
    fn any_segmentation_yields_the_same_records(
        // A message and the fragment length it is marked with (0: one
        // fragment, whatever its size).
        msgs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..300), 0usize..120),
            1..12,
        ),
        cuts in proptest::collection::vec(any::<u16>(), 0..40),
        // Whether the caller drains after the n-th push (second run).
        drains in proptest::collection::vec(any::<bool>(), 41),
    ) {
        // The stream, and where each record lies in it.
        let mut wire = Vec::new();
        let mut layout = Vec::new(); // (start, end, single fragment?)
        for (msg, frag_len) in &msgs {
            let start = wire.len();
            if *frag_len == 0 {
                mark_record_into(msg, &mut wire);
            } else {
                mark_record_fragmented_into(msg, *frag_len, &mut wire);
            }
            layout.push((start, wire.len(), *frag_len == 0 || msg.len() <= *frag_len));
        }

        // Pushed whole: the reference.
        let mut whole = Vec::new();
        let mut reader = RecordReader::new();
        reader.push(&wire);
        drain(&mut reader, &mut whole);
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert_eq!(whole.len(), msgs.len());
        for ((bytes, assembled), ((msg, _), (_, _, single))) in
            whole.iter().zip(msgs.iter().zip(&layout))
        {
            prop_assert_eq!(bytes, msg);
            prop_assert_eq!(*assembled, !single);
        }

        let mut points: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % wire.len()).collect();
        points.extend([0, wire.len()]);
        points.sort_unstable();
        points.dedup();

        // Cut, draining after every push: the same records, and a view
        // of the stream buffer (`assembled == false`) exactly for the
        // single-fragment records whose body arrived in one push — a
        // cut inside the four-byte mark leaves the record contiguous.
        let mut cut = Vec::new();
        let mut reader = RecordReader::new();
        for w in points.windows(2) {
            reader.push(&wire[w[0]..w[1]]);
            drain(&mut reader, &mut cut);
        }
        prop_assert_eq!(reader.buffered(), 0);
        prop_assert_eq!(cut.len(), whole.len());
        for (i, ((bytes, assembled), (start, end, single))) in cut.iter().zip(&layout).enumerate() {
            prop_assert_eq!(bytes, &whole[i].0, "record {}", i);
            let body_cut = points.iter().any(|&c| start + 4 <= c && c < *end);
            prop_assert_eq!(*assembled, !single || body_cut, "record {}", i);
        }

        // Cut, draining only now and then: the same bytes in the same
        // order (where they were assembled is the reader's business).
        let mut lazy = Vec::new();
        let mut reader = RecordReader::new();
        for (w, drain_now) in points.windows(2).zip(&drains) {
            reader.push(&wire[w[0]..w[1]]);
            if *drain_now {
                drain(&mut reader, &mut lazy);
            }
        }
        drain(&mut reader, &mut lazy);
        prop_assert_eq!(reader.buffered(), 0);
        let bytes = |v: &[(Vec<u8>, bool)]| v.iter().map(|(b, _)| b.clone()).collect::<Vec<_>>();
        prop_assert_eq!(bytes(&lazy), bytes(&whole));
    }
}
