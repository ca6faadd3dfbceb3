//! Property tests on the anonymizer's §2 guarantees, and on the mapping
//! blob a site keeps to continue the same mapping later.

use nfstrace_anonymize::{Anonymizer, AnonymizerConfig, NameAnonymizer};
use nfstrace_core::record::{FileId, Op, TraceRecord};
use nfstrace_store::codec::write_varint;
use nfstrace_store::format::fnv1a64;
use nfstrace_store::StoreError;
use proptest::prelude::*;
use std::collections::HashMap;

/// Per record: uid, gid, ip, file handle and name.
type Ids = Vec<(u32, u32, u32, u64, String)>;

fn ids(len: std::ops::Range<usize>) -> impl Strategy<Value = Ids> {
    proptest::collection::vec(
        (
            any::<u32>(),
            0u32..16,
            any::<u32>(),
            any::<u64>(),
            "[a-zA-Z0-9._#~,-]{1,16}",
        ),
        len,
    )
}

/// A trace touching every table the mapping stores: uids, gids, client
/// and server ips, all three file-handle fields, and both names.
fn trace(ids: &Ids) -> Vec<TraceRecord> {
    ids.iter()
        .enumerate()
        .map(|(i, (uid, gid, ip, fh, name))| {
            let mut r =
                TraceRecord::new(i as u64, Op::Rename, FileId(*fh)).with_name(name.as_str());
            r.uid = *uid;
            r.gid = *gid;
            r.client = *ip;
            r.server = ip ^ 1;
            r.fh2 = Some(FileId(fh.rotate_left(17)));
            r.new_fh = Some(FileId(!fh));
            r.name2 = Some(format!("{name}~"));
            r
        })
        .collect()
}

/// An anonymizer that has mapped `trace(ids)`, with one passthrough
/// name added beyond the defaults.
fn used_anonymizer(ids: &Ids, seed: u64) -> (Anonymizer, Vec<TraceRecord>) {
    let mut anon = Anonymizer::new(AnonymizerConfig {
        seed,
        ..AnonymizerConfig::default()
    });
    anon.names_mut().add_passthrough_name("keep-me");
    let out = anon.anonymize_trace(&trace(ids));
    (anon, out)
}

/// Records each raw ↦ anonymized identity of `raw` in `inverse`,
/// failing if a token already stands for a different raw value.
fn claim(
    inverse: &mut HashMap<(&'static str, String), String>,
    raw: &TraceRecord,
    anon: &TraceRecord,
) -> Result<(), String> {
    let pairs = [
        ("uid", raw.uid.to_string(), anon.uid.to_string()),
        ("gid", raw.gid.to_string(), anon.gid.to_string()),
        ("ip", raw.client.to_string(), anon.client.to_string()),
        ("ip", raw.server.to_string(), anon.server.to_string()),
        ("fh", raw.fh.to_string(), anon.fh.to_string()),
        (
            "name",
            format!("{:?}", raw.name),
            format!("{:?}", anon.name),
        ),
    ];
    for (kind, input, output) in pairs {
        match inverse.insert((kind, output.clone()), input.clone()) {
            Some(prev) if prev != input => {
                return Err(format!("{kind} {prev} and {input} share token {output}"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Frames `body` the way `Anonymizer::to_bytes` does — magic, version,
/// body, checksum — so whatever the body claims passes the checksum.
fn blob(body: &[u8]) -> Vec<u8> {
    let mut out = b"NFAN".to_vec();
    out.push(1);
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
    out
}

/// A body assembled field by field from the documented layout: seed 7,
/// no passthrough uids or gids, no flags, the given uid pairs, and
/// every other table and set empty.
fn body_with_uids(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut body = Vec::new();
    for field in [7, 0, 0, 0, pairs.len() as u64] {
        write_varint(&mut body, field);
    }
    for &(id, token) in pairs {
        write_varint(&mut body, id);
        write_varint(&mut body, token);
    }
    // gid, ip and fh tables; passthrough names and suffixes; stem and
    // suffix tables.
    body.extend_from_slice(&[0; 7]);
    body
}

fn is_format_error(result: Result<Anonymizer, StoreError>) -> bool {
    matches!(result, Err(StoreError::Format(_)))
}

#[test]
fn a_hand_assembled_mapping_restores() {
    let body = body_with_uids(&[(1001, 5), (1002, 6)]);
    let mut anon = Anonymizer::from_bytes(&blob(&body)).expect("valid mapping");
    assert_eq!(anon.to_bytes(), blob(&body), "one mapping, one encoding");
    let mut r = TraceRecord::new(0, Op::Getattr, FileId(1));
    r.uid = 1002;
    assert_eq!(anon.anonymize(&r).uid, 6);
}

#[test]
fn a_token_assigned_twice_is_an_error() {
    // Valid checksums, but two identities would merge into one.
    for pairs in [
        &[(1001, 5), (1002, 5)][..],
        &[(1001, 5), (1001, 6)],
        &[(1002, 5), (1001, 6)],
    ] {
        let bytes = blob(&body_with_uids(pairs));
        assert!(is_format_error(Anonymizer::from_bytes(&bytes)), "{pairs:?}");
    }
}

#[test]
fn a_count_beyond_the_payload_is_an_error() {
    // In an empty mapping every byte but the seed (offset 0) and the
    // flags (offset 3) is a one-byte count. Reserving for 2^40 entries
    // would abort the process: each must fail before anything is
    // allocated for it.
    let mut huge = Vec::new();
    write_varint(&mut huge, 1 << 40);
    let empty = body_with_uids(&[]);
    for at in (1..empty.len()).filter(|&at| at != 3) {
        let mut body = empty.clone();
        body.splice(at..=at, huge.iter().copied());
        assert!(
            is_format_error(Anonymizer::from_bytes(&blob(&body))),
            "count at offset {at}"
        );
    }
}

#[test]
fn unknown_flags_and_trailing_bytes_are_errors() {
    let mut flagged = body_with_uids(&[]);
    flagged[3] = 4;
    assert!(is_format_error(Anonymizer::from_bytes(&blob(&flagged))));
    let mut trailing = body_with_uids(&[]);
    trailing.push(0);
    assert!(is_format_error(Anonymizer::from_bytes(&blob(&trailing))));
    let mut version = blob(&body_with_uids(&[]));
    version[4] = 2;
    assert!(is_format_error(Anonymizer::from_bytes(&version)));
}

proptest! {
    /// Consistency: the same name always maps to the same token within
    /// one anonymizer instance, and distinct names stay distinct.
    #[test]
    fn names_consistent_and_injective(
        names in proptest::collection::hash_set("[a-zA-Z0-9._#~,-]{1,24}", 1..40),
        seed in any::<u64>(),
    ) {
        let mut anon = NameAnonymizer::new(seed);
        let names: Vec<String> = names.into_iter().collect();
        let first: Vec<String> = names.iter().map(|n| anon.map(n)).collect();
        let second: Vec<String> = names.iter().map(|n| anon.map(n)).collect();
        prop_assert_eq!(&first, &second);
        let distinct: std::collections::HashSet<&String> = first.iter().collect();
        prop_assert_eq!(distinct.len(), first.len());
    }

    /// Suffix equivalence classes survive: names with the same suffix
    /// map to names with the same (anonymized) suffix.
    #[test]
    fn suffix_classes_survive(
        stems in proptest::collection::hash_set("[a-z]{3,12}", 2..10),
        suffix in "[a-z]{2,5}",
        seed in any::<u64>(),
    ) {
        let mut anon = NameAnonymizer::new(seed);
        let mapped: Vec<String> = stems
            .iter()
            .map(|stem| anon.map(&format!("{stem}.{suffix}")))
            .collect();
        let suffixes: std::collections::HashSet<&str> = mapped
            .iter()
            .map(|m| m.rsplit('.').next().unwrap())
            .collect();
        prop_assert_eq!(suffixes.len(), 1, "{:?}", mapped);
    }

    /// Special forms wrap the inner mapping: #x#, x~, x,v.
    #[test]
    fn special_forms_wrap(inner in "[a-z]{2,12}\\.[a-z]{1,4}", seed in any::<u64>()) {
        let mut anon = NameAnonymizer::new(seed);
        let plain = anon.map(&inner);
        prop_assert_eq!(anon.map(&format!("#{inner}#")), format!("#{plain}#"));
        prop_assert_eq!(anon.map(&format!("{inner}~")), format!("{plain}~"));
        prop_assert_eq!(anon.map(&format!("{inner},v")), format!("{plain},v"));
    }

    /// Record anonymization preserves every analysis-relevant field and
    /// the identity structure (equal inputs ↦ equal outputs).
    #[test]
    fn record_structure_preserved(
        uids in proptest::collection::vec(1000u32..2000, 2..30),
        fhs in proptest::collection::vec(1u64..50, 2..30),
    ) {
        let mut anon = Anonymizer::new(AnonymizerConfig::default());
        let records: Vec<TraceRecord> = uids
            .iter()
            .zip(&fhs)
            .enumerate()
            .map(|(i, (&uid, &fh))| {
                let mut r = TraceRecord::new(i as u64, Op::Read, FileId(fh))
                    .with_range(i as u64 * 8192, 8192);
                r.uid = uid;
                r
            })
            .collect();
        let out = anon.anonymize_trace(&records);
        for (a, b) in records.iter().zip(&out) {
            prop_assert_eq!(a.micros, b.micros);
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.offset, b.offset);
            prop_assert_eq!(a.count, b.count);
        }
        // Identity structure: equal uids/fhs map equal, distinct map
        // distinct.
        for i in 0..records.len() {
            for j in 0..records.len() {
                prop_assert_eq!(
                    records[i].uid == records[j].uid,
                    out[i].uid == out[j].uid
                );
                prop_assert_eq!(
                    records[i].fh == records[j].fh,
                    out[i].fh == out[j].fh
                );
            }
        }
    }

    /// A restored anonymizer maps every uid, gid, ip, file handle and
    /// name it has seen exactly as the original did. One mapping always
    /// encodes to the same bytes, and a restored one re-encodes to the
    /// bytes it came from.
    #[test]
    fn restored_mapping_reproduces_every_assignment(ids in ids(1..40), seed in any::<u64>()) {
        let (original, first) = used_anonymizer(&ids, seed);
        let bytes = original.to_bytes();
        let (twin, _) = used_anonymizer(&ids, seed);
        prop_assert_eq!(twin.to_bytes(), bytes.clone(), "same mapping, other bytes");
        let mut restored = Anonymizer::from_bytes(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(restored.to_bytes(), bytes.clone());
        prop_assert_eq!(restored.anonymize_trace(&trace(&ids)), first);
        prop_assert_eq!(restored.to_bytes(), bytes, "a seen identity was assigned anew");
    }

    /// After a restore, new identities get fresh tokens: no token ever
    /// stands for two raw values, old or new.
    #[test]
    fn restored_anonymizer_assigns_without_collisions(old in ids(1..30), new in ids(1..60)) {
        let (original, first) = used_anonymizer(&old, 3);
        let mut restored =
            Anonymizer::from_bytes(&original.to_bytes()).map_err(|e| e.to_string())?;
        let mut inverse = HashMap::new();
        for (raw, anon) in trace(&old).iter().zip(&first) {
            claim(&mut inverse, raw, anon)?;
        }
        let fresh = trace(&new);
        for (raw, anon) in fresh.iter().zip(&restored.anonymize_trace(&fresh)) {
            claim(&mut inverse, raw, anon)?;
        }
    }

    /// Cut short anywhere, or with any one bit flipped, a mapping is
    /// refused with a typed error: never a panic, never another mapping.
    #[test]
    fn every_truncation_and_bit_flip_is_an_error(ids in ids(1..8), seed in any::<u64>()) {
        let (anon, _) = used_anonymizer(&ids, seed);
        let mut bytes = anon.to_bytes();
        for end in 0..bytes.len() {
            prop_assert!(is_format_error(Anonymizer::from_bytes(&bytes[..end])), "cut at {end}");
        }
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(is_format_error(Anonymizer::from_bytes(&bytes)), "bit {bit} flipped");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
