//! Minimal self-contained LZ77 codec for chunk bodies.
//!
//! The workspace builds offline — no flate2/lz4/zstd — so the store
//! carries its own byte-oriented compressor. It is deliberately simple:
//! a single-probe hash table finds 4-byte match anchors, matches extend
//! greedily, and the stream interleaves literal runs with back
//! references. Chunk payloads (delta-encoded, varint-packed records
//! sharing a handful of field shapes) are repetitive enough that this
//! typically removes a third or more of the bytes; incompressible
//! chunks fall back to raw storage at the writer (see
//! [`crate::format`]), so the codec never needs to win.
//!
//! Stream grammar, all integers LEB128 varints (see [`crate::codec`]):
//!
//! ```text
//! stream := seq* last
//! seq    := lit_len, lit_len literal bytes, dist, extra
//! last   := lit_len, lit_len literal bytes
//! ```
//!
//! A back reference copies `MIN_MATCH + extra` bytes starting `dist`
//! bytes (≥ 1) behind the current output position; overlapping copies
//! are allowed, as in every LZ77 family. Decoding is driven by the
//! caller-supplied raw length: the final sequence simply omits the back
//! reference once the output is complete. [`decompress`] validates
//! every distance and length and demands the input be consumed exactly,
//! so corrupt streams surface as [`crate::StoreError::Format`] — never
//! as silently wrong bytes (the chunk checksum catches flips even in
//! streams that would still parse).
//!
//! On chunk payloads a sequence is short — a literal run of about one
//! byte, a match of about ten, three or four sequences a record — and
//! one match in a thousand overlaps its own output. [`decompress`] is
//! shaped for that: it writes by index into a buffer sized once, moves a
//! match as one block whenever source and destination are disjoint, and
//! copies byte by byte only when they are not.

use crate::codec::{read_varint, write_varint};
use crate::error::{Result, StoreError};

/// Shortest back reference worth encoding (a match token costs up to
/// three varints).
pub(crate) const MIN_MATCH: usize = 4;

const HASH_BITS: u32 = 15;

/// The empty slot of the position table: no anchor position reaches
/// it, since [`compress`] takes at most `u32::MAX` bytes.
const EMPTY: u32 = u32::MAX;

/// The four bytes at `at`, as one little-endian word.
fn load4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("four bytes"))
}

fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// How many leading bytes `ahead` shares with `behind`, which is at
/// least as long: eight bytes a step while a whole word is left, the
/// first mismatch found by the xor's trailing zeros.
fn common_prefix(behind: &[u8], ahead: &[u8]) -> usize {
    let word =
        |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().expect("eight bytes"));
    let mut len = 0;
    while len + 8 <= ahead.len() {
        let diff = word(behind, len) ^ word(ahead, len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < ahead.len() && behind[len] == ahead[len] {
        len += 1;
    }
    len
}

/// Compresses `input`. Never fails; the output of an incompressible
/// input is the input plus small framing overhead (callers compare
/// sizes and keep the raw form when it wins).
///
/// The match search keeps one `u32` position per hash slot, checks a
/// candidate's 4-byte anchor as one word and extends a match eight
/// bytes at a time; what it finds, and so every byte it emits, is what
/// a byte-at-a-time search over a `usize` table finds.
///
/// # Panics
///
/// If `input` is longer than `u32::MAX` bytes. The store writer flushes
/// chunks long before that (`MAX_CHUNK_PAYLOAD`).
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(
        u32::try_from(input.len()).is_ok(),
        "compress takes at most {} bytes, got {}",
        u32::MAX,
        input.len()
    );
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![EMPTY; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let anchor = load4(input, pos);
        let h = hash4(anchor);
        let cand = table[h];
        table[h] = pos as u32;
        if cand == EMPTY || load4(input, cand as usize) != anchor {
            pos += 1;
            continue;
        }
        let cand = cand as usize;
        let len = MIN_MATCH + common_prefix(&input[cand + MIN_MATCH..], &input[pos + MIN_MATCH..]);
        write_varint(&mut out, (pos - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..pos]);
        write_varint(&mut out, (pos - cand) as u64);
        write_varint(&mut out, (len - MIN_MATCH) as u64);
        // Index the positions the match covers so later data can still
        // anchor inside it, then continue past it.
        let end = pos + len;
        for at in pos + 1..end.min(input.len() + 1 - MIN_MATCH) {
            table[hash4(load4(input, at))] = at as u32;
        }
        pos = end;
        lit_start = end;
    }
    write_varint(&mut out, (input.len() - lit_start) as u64);
    out.extend_from_slice(&input[lit_start..]);
    out
}

/// Decompresses a [`compress`] stream into exactly `raw_len` bytes: a
/// fresh buffer, filled by [`decompress_into`].
///
/// # Errors
///
/// As [`decompress_into`].
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut out = vec![0u8; raw_len];
    decompress_into(input, raw_len, &mut out)?;
    Ok(out)
}

/// Decompresses a [`compress`] stream into `out`, which ends up exactly
/// `raw_len` bytes long.
///
/// `out` is the caller's to reuse: it is resized to `raw_len` — growing
/// only when no earlier stream was as long (callers bound `raw_len`: the
/// reader by `MAX_CHUNK_PAYLOAD`) — and filled by index, every byte
/// written before the stream can end, so nothing it held before shows
/// through. After an error its contents are unspecified. A back
/// reference *overlaps* when `dist < len`: its last bytes are copies of
/// bytes the same reference produces (`dist` 1 is a run of one byte),
/// so only that case goes byte by byte. Otherwise source and
/// destination are disjoint and the match moves as one block — and when
/// `len ≤ 16 ≤ dist` with 16 bytes of room left, as a fixed 16-byte
/// move, which may write up to `16 - len` bytes past the match's end:
/// never past `raw_len` (the room is checked), and only into positions
/// no sequence has produced yet, every one of which a later sequence
/// overwrites before the loop can end at `raw_len` produced bytes.
///
/// # Errors
///
/// [`StoreError::Format`] on any malformed stream: a literal run or
/// back reference overflowing `raw_len`, a distance of zero or beyond
/// the bytes produced so far, a truncated varint, or trailing input
/// after the output is complete.
pub fn decompress_into(input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
    /// Width of the fixed-size move (most matches fit in one).
    const BLOCK: usize = 16;
    out.resize(raw_len, 0);
    let out = &mut out[..];
    // Bytes of `out` produced so far, and bytes of `input` consumed.
    let mut at = 0usize;
    let mut pos = 0usize;
    loop {
        let lit = read_varint(input, &mut pos)? as usize;
        let end = pos
            .checked_add(lit)
            .filter(|&e| e <= input.len())
            .ok_or_else(|| StoreError::Format("truncated literal run".into()))?;
        if lit > raw_len - at {
            return Err(StoreError::Format(
                "literal run overflows the raw length".into(),
            ));
        }
        out[at..at + lit].copy_from_slice(&input[pos..end]);
        at += lit;
        pos = end;
        if at == raw_len {
            break;
        }
        let dist = read_varint(input, &mut pos)? as usize;
        let extra = read_varint(input, &mut pos)? as usize;
        let mlen = MIN_MATCH
            .checked_add(extra)
            .ok_or_else(|| StoreError::Format("match length overflows".into()))?;
        if dist == 0 || dist > at {
            return Err(StoreError::Format("match distance out of range".into()));
        }
        if mlen > raw_len - at {
            return Err(StoreError::Format(
                "back reference overflows the raw length".into(),
            ));
        }
        let start = at - dist;
        if dist < mlen {
            for i in 0..mlen {
                out[at + i] = out[start + i];
            }
        } else if mlen <= BLOCK && dist >= BLOCK && raw_len - at >= BLOCK {
            let (produced, rest) = out.split_at_mut(at);
            rest[..BLOCK].copy_from_slice(&produced[start..start + BLOCK]);
        } else {
            out.copy_within(start..start + mlen, at);
        }
        at += mlen;
    }
    if pos != input.len() {
        return Err(StoreError::Format(
            "trailing bytes after the compressed stream".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The compressor as it was before word-wide search: a `usize`
    /// table, a byte-slice anchor compare and byte-at-a-time match
    /// extension. Kept as the reference [`compress`] must agree with,
    /// byte for byte.
    fn compress_reference(input: &[u8]) -> Vec<u8> {
        fn hash4(window: &[u8]) -> usize {
            let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
            (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
        }
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut lit_start = 0usize;
        let mut pos = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let cand = table[h];
            table[h] = pos;
            if cand == usize::MAX || input[cand..cand + MIN_MATCH] != input[pos..pos + MIN_MATCH] {
                pos += 1;
                continue;
            }
            let mut len = MIN_MATCH;
            while pos + len < input.len() && input[cand + len] == input[pos + len] {
                len += 1;
            }
            write_varint(&mut out, (pos - lit_start) as u64);
            out.extend_from_slice(&input[lit_start..pos]);
            write_varint(&mut out, (pos - cand) as u64);
            write_varint(&mut out, (len - MIN_MATCH) as u64);
            let end = pos + len;
            pos += 1;
            while pos < end && pos + MIN_MATCH <= input.len() {
                table[hash4(&input[pos..])] = pos;
                pos += 1;
            }
            pos = end;
            lit_start = end;
        }
        write_varint(&mut out, (input.len() - lit_start) as u64);
        out.extend_from_slice(&input[lit_start..]);
        out
    }

    /// The decompressor as it was before block copies: output grown by
    /// `push`, every match copied byte by byte. Kept as the reference
    /// [`decompress`] must agree with — bytes on `Ok`, message on `Err`.
    fn decompress_reference(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            let lit = read_varint(input, &mut pos)? as usize;
            let end = pos
                .checked_add(lit)
                .filter(|&e| e <= input.len())
                .ok_or_else(|| StoreError::Format("truncated literal run".into()))?;
            if out.len().checked_add(lit).is_none_or(|n| n > raw_len) {
                return Err(StoreError::Format(
                    "literal run overflows the raw length".into(),
                ));
            }
            out.extend_from_slice(&input[pos..end]);
            pos = end;
            if out.len() == raw_len {
                break;
            }
            let dist = read_varint(input, &mut pos)? as usize;
            let extra = read_varint(input, &mut pos)? as usize;
            let mlen = MIN_MATCH
                .checked_add(extra)
                .ok_or_else(|| StoreError::Format("match length overflows".into()))?;
            if dist == 0 || dist > out.len() {
                return Err(StoreError::Format("match distance out of range".into()));
            }
            if out.len().checked_add(mlen).is_none_or(|n| n > raw_len) {
                return Err(StoreError::Format(
                    "back reference overflows the raw length".into(),
                ));
            }
            let start = out.len() - dist;
            for i in 0..mlen {
                let b = out[start + i];
                out.push(b);
            }
        }
        if pos != input.len() {
            return Err(StoreError::Format(
                "trailing bytes after the compressed stream".into(),
            ));
        }
        Ok(out)
    }

    /// Asserts [`decompress`] and the reference agree on `(stream,
    /// raw_len)` and returns what they agreed on.
    fn agree(stream: &[u8], raw_len: usize) -> std::result::Result<Vec<u8>, String> {
        let got = decompress(stream, raw_len).map_err(|e| e.to_string());
        let want = decompress_reference(stream, raw_len).map_err(|e| e.to_string());
        assert_eq!(got, want, "stream {stream:02x?}, raw_len {raw_len}");
        // Into a reused buffer — shorter or longer, full of old bytes —
        // the same output or the same error.
        for old in [0, raw_len / 2, raw_len + 7] {
            let mut out = vec![0xa5; old];
            let into = decompress_into(stream, raw_len, &mut out)
                .map(|()| out)
                .map_err(|e| e.to_string());
            assert_eq!(
                into, want,
                "stream {stream:02x?}, raw_len {raw_len}, old {old}"
            );
        }
        got
    }

    /// Appends one sequence: a literal run, then (if given) a back
    /// reference `(dist, match length)`.
    fn push_seq(stream: &mut Vec<u8>, literals: &[u8], back: Option<(usize, usize)>) {
        write_varint(stream, literals.len() as u64);
        stream.extend_from_slice(literals);
        if let Some((dist, mlen)) = back {
            write_varint(stream, dist as u64);
            write_varint(stream, (mlen - MIN_MATCH) as u64);
        }
    }

    fn roundtrip(input: &[u8]) {
        let c = compress(input);
        let back = agree(&c, input.len()).expect("decompress");
        assert_eq!(back, input);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"abcdabcdabcdabcdabcdxyzabcdabcd");
        let mut mixed = Vec::new();
        for i in 0..4096u32 {
            mixed.extend_from_slice(&(i % 37).to_le_bytes());
        }
        roundtrip(&mixed);
    }

    #[test]
    fn repetitive_input_shrinks() {
        let input: Vec<u8> = b"inbox.lock inbox inbox.lock snd.123 "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 4,
            "{} bytes compressed to {}",
            input.len(),
            c.len()
        );
        assert_eq!(decompress(&c, input.len()).unwrap(), input);
    }

    #[test]
    fn pseudorandom_input_roundtrips() {
        // Incompressible data must still round-trip (the writer falls
        // back to raw for size, not correctness).
        let mut v = 0x1234_5678_9abc_def0u64;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
                v as u8
            })
            .collect();
        roundtrip(&input);
    }

    #[test]
    fn overlapping_copy_roundtrips() {
        // A long run compresses to matches overlapping their own output.
        let input = vec![7u8; 100_000];
        let c = compress(&input);
        assert!(c.len() < 64);
        assert_eq!(decompress(&c, input.len()).unwrap(), input);
    }

    #[test]
    fn corrupt_streams_error_not_garbage() {
        let input: Vec<u8> = b"abcdabcdabcdabcdabcd".repeat(50);
        let good = compress(&input);
        // Truncations at every boundary.
        for cut in 0..good.len() {
            assert!(decompress(&good[..cut], input.len()).is_err(), "cut={cut}");
        }
        // A wrong raw length in either direction.
        assert!(decompress(&good, input.len() + 1).is_err());
        assert!(decompress(&good, input.len() - 1).is_err());
    }

    #[test]
    fn bad_distance_is_an_error() {
        // lit_len 0, dist 5 with no output yet.
        let bogus = [0u8, 5, 0];
        assert!(decompress(&bogus, 10).is_err());
    }

    #[test]
    fn overflowing_match_length_is_an_error() {
        // lit_len 1, one literal, dist 1, extra = u64::MAX - 4:
        // MIN_MATCH + extra == usize::MAX, so the raw-length bound
        // check must not wrap (it used to, turning this crafted chunk
        // into a near-endless copy loop instead of a Format error).
        let mut bogus = vec![1u8, 0xaa, 1];
        crate::codec::write_varint(&mut bogus, u64::MAX - 4);
        assert!(decompress(&bogus, 1 << 20).is_err());
        // Same shape on the literal side: a literal run whose length
        // varint is absurd must fail cleanly too.
        let mut bogus = Vec::new();
        crate::codec::write_varint(&mut bogus, u64::MAX - 1);
        assert!(decompress(&bogus, 1 << 20).is_err());
    }

    /// Distinct bytes, so a copy from the wrong place shows.
    fn prefix(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 1) as u8).collect()
    }

    #[test]
    fn block_copies_agree_with_the_byte_loop() {
        // Overlapping (dist < len), exactly adjacent (dist == len) and
        // far (dist > len) matches on both sides of the 16-byte move,
        // each with and without room after the match.
        for dist in [1usize, 2, 3, 15, 16, 17] {
            for mlen in [4usize, 15, 16, 17, 40] {
                for tail in [0usize, 1, 15, 16, 40] {
                    let lead = prefix(dist.max(20));
                    let mut stream = Vec::new();
                    push_seq(&mut stream, &lead, Some((dist, mlen)));
                    push_seq(&mut stream, &prefix(tail), None);
                    let raw_len = lead.len() + mlen + tail;
                    let out = agree(&stream, raw_len).expect("a valid stream");
                    assert_eq!(out.len(), raw_len);
                    for i in 0..mlen {
                        assert_eq!(
                            out[lead.len() + i],
                            out[lead.len() + i - dist],
                            "dist {dist} len {mlen} tail {tail} byte {i}"
                        );
                    }
                    assert_eq!(out[lead.len() + mlen..], prefix(tail));
                }
            }
        }
    }

    #[test]
    fn sequences_ending_at_the_raw_length_agree() {
        // A match ending exactly at raw_len (the stream then closes
        // with an empty literal run).
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(32), Some((20, 8)));
        push_seq(&mut stream, &[], None);
        assert_eq!(agree(&stream, 40).expect("valid").len(), 40);
        // A short far match starting fewer than 16 bytes before
        // raw_len: the fixed-width move has no room and must not run.
        for room in 4..16 {
            let mut stream = Vec::new();
            push_seq(&mut stream, &prefix(32), Some((32, 4)));
            push_seq(&mut stream, &prefix(room - 4), None);
            let out = agree(&stream, 32 + room).expect("valid");
            assert_eq!(out[32..36], out[..4]);
        }
        // A stream that is one literal run, ending at raw_len (the
        // tails above are the runs that end there after a match).
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(9), None);
        assert_eq!(agree(&stream, 9).expect("valid"), prefix(9));
        // Two matches back to back, the second reading the first's
        // bytes — a 16-byte move's overshoot must not leak into them.
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(40), Some((40, 5)));
        push_seq(&mut stream, &[], Some((5, 16)));
        push_seq(&mut stream, &prefix(30), None);
        agree(&stream, 40 + 5 + 16 + 30).expect("valid");
    }

    #[test]
    fn every_error_branch_agrees_with_the_reference() {
        let expect = |stream: &[u8], raw_len: usize, what: &str| {
            let err = agree(stream, raw_len).expect_err(what);
            assert!(err.contains(what), "{err:?} does not name {what:?}");
        };
        // Literal run longer than the input that is left.
        expect(&[5, 1, 2], 10, "truncated literal run");
        // Literal run longer than the output that is left.
        expect(&[3, 1, 2, 3], 2, "literal run overflows the raw length");
        // Back reference longer than the output that is left.
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(20), Some((20, 17)));
        expect(&stream, 36, "back reference overflows the raw length");
        // Distance zero, and distance past what has been produced.
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(8), Some((0, 4)));
        expect(&stream, 64, "match distance out of range");
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(8), Some((9, 4)));
        expect(&stream, 64, "match distance out of range");
        // Match length past usize.
        let mut stream = vec![1u8, 0xaa, 1];
        write_varint(&mut stream, u64::MAX - 2);
        expect(&stream, 1 << 20, "match length overflows");
        // Input left over once the output is complete.
        let mut stream = Vec::new();
        push_seq(&mut stream, &prefix(6), None);
        stream.push(0);
        expect(&stream, 6, "trailing bytes after the compressed stream");
        // A varint cut short at each of the three positions: literal
        // length, distance, extra.
        expect(&[0x80], 10, "truncated varint");
        expect(&[2, 7, 7, 0x80], 10, "truncated varint");
        expect(&[2, 7, 7, 1, 0x80], 10, "truncated varint");
        expect(&[], 10, "truncated varint");
        // And one too long to be a u64.
        expect(&[0xff; 11], 10, "varint overflows u64");
    }

    /// Inputs shaped like chunk payloads: a few short words, repeated
    /// in a seeded order with occasional noise, so matches of every
    /// length end at every offset of an eight-byte step.
    fn low_entropy(words: &[Vec<u8>], picks: &[(usize, u8)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(pick, noise) in picks {
            if words.is_empty() || noise < 16 {
                out.push(noise);
            } else {
                out.extend_from_slice(&words[pick % words.len()]);
            }
        }
        out
    }

    #[test]
    fn compress_matches_the_reference_on_edge_shapes() {
        let mut inputs: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"abc".to_vec(),
            b"abcd".to_vec(),
            vec![7u8; 100_000],
            b"abcdabcdabcdabcdabcdxyzabcdabcd".to_vec(),
        ];
        // A match running to the very end, at every residue mod 8.
        for tail in 0..24 {
            let mut v = prefix(40);
            v.extend_from_slice(&prefix(40)[..tail]);
            inputs.push(v);
        }
        for input in &inputs {
            assert_eq!(compress(input), compress_reference(input), "{input:02x?}");
        }
    }

    proptest! {
        /// Random sequence lists, half of them well formed and half
        /// with one fault planted: whatever the reference says — bytes
        /// or message — `decompress` says.
        #[test]
        fn random_sequences_agree_with_the_reference(
            seqs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..24), 0usize..4096, 0usize..40),
                1..24,
            ),
            fault in 0usize..10,
            at in 0usize..24,
        ) {
            let mut stream = Vec::new();
            let mut produced = 0usize;
            for (i, (literals, dist, extra)) in seqs.iter().enumerate() {
                produced += literals.len();
                let dist = match fault {
                    5 if i == at % seqs.len() => 0,
                    6 if i == at % seqs.len() => produced + 1,
                    _ => 1 + dist % produced.max(1),
                };
                push_seq(&mut stream, literals, Some((dist, MIN_MATCH + extra)));
                produced += MIN_MATCH + extra;
            }
            push_seq(&mut stream, &[], None);
            let (raw_len, cut) = match fault {
                7 => (produced + 1, 0),
                8 => (produced - 1, 0),
                9 => (produced, 1 + at % stream.len()),
                _ => (produced, 0),
            };
            let outcome = agree(&stream[..stream.len() - cut], raw_len);
            // A first sequence with no literals has nothing to refer
            // back to; everything else unfaulted must decode.
            if fault < 5 && !seqs[0].0.is_empty() {
                prop_assert_eq!(outcome.map(|out| out.len()), Ok(produced));
            }
        }

        /// Arbitrary bytes compress exactly as the reference does.
        #[test]
        fn compress_matches_the_reference(input in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(compress(&input), compress_reference(&input));
        }

        /// So do low-entropy inputs, where nearly every position
        /// anchors a match and match ends fall anywhere in a word.
        #[test]
        fn compress_matches_the_reference_on_low_entropy_input(
            words in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..6),
            picks in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..600),
        ) {
            let input = low_entropy(&words, &picks);
            prop_assert_eq!(compress(&input), compress_reference(&input));
            prop_assert_eq!(decompress(&compress(&input), input.len()).expect("roundtrip"), input);
        }
    }
}
