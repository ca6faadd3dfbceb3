//! Per-segment arrival-sequence sidecars (`seg-NNNNNN.nfseq`).
//!
//! A sharded ingest stores one globally ordered record stream across
//! per-shard segment chains, so a single chain's segments no longer
//! carry enough information to reconstruct the original interleave:
//! records with equal timestamps tie-break on *arrival order*, which
//! the store format does not (and should not) record. Sidecars belong
//! to those sharded chains: each sealed segment of one gets a sidecar
//! file holding the **global arrival sequence number** of every record
//! in it, in record order — record replays k-way merge the chains by
//! these sequences into the exact original stream, and the compactor
//! ([`crate::compact`]) concatenates sidecars when it merges adjacent
//! segments.
//!
//! The sidecar is deliberately *not* part of the store format: a
//! single-writer segment directory has none, and every store reader
//! keeps working unchanged with or without them. Durability follows
//! the segment protocol: the sidecar is written (tmp + rename) **before**
//! its segment is renamed to its sealed name, so a sealed segment always
//! has its sidecar; a crash in between leaves an orphan sidecar that the
//! next sweeping open ([`crate::segments::SegmentCatalog::open_and_sweep`])
//! removes.
//!
//! Layout (all little-endian): magic `NFSQ`, `u8` version, `u64`
//! count, `count × u64` sequences, `u64` FNV-1a checksum over the
//! sequence bytes.

use crate::error::{Result, StoreError};
use crate::format::fnv1a64;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"NFSQ";
const VERSION: u8 = 1;

/// File suffix every sequence sidecar carries.
pub const SEQ_SUFFIX: &str = ".nfseq";

/// The sidecar path for a sealed segment path
/// (`seg-000042.nfseg` → `seg-000042.nfseq`).
pub fn sidecar_path(segment: &Path) -> PathBuf {
    segment.with_extension("nfseq")
}

fn seq_bytes(seqs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(seqs.len() * 8);
    for &s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Writes the sidecar body for `segment` under its temp name
/// (`….nfseq.tmp`, synced) and returns that temp path — the first
/// half of [`write_sidecar`], split out so the crash-safe seal/compact
/// protocols can treat "sidecar bytes durable" and "sidecar visible"
/// as separate filesystem steps.
///
/// # Errors
///
/// On I/O failure.
pub fn write_sidecar_tmp(segment: &Path, seqs: &[u64]) -> Result<PathBuf> {
    let tmp = sidecar_path(segment).with_extension("nfseq.tmp");
    let body = seq_bytes(seqs);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(MAGIC)?;
    file.write_all(&[VERSION])?;
    file.write_all(&(seqs.len() as u64).to_le_bytes())?;
    file.write_all(&body)?;
    file.write_all(&fnv1a64(&body).to_le_bytes())?;
    file.sync_all()?;
    Ok(tmp)
}

/// Writes the sidecar for `segment` (tmp + rename, so a reader never
/// sees a torn sidecar).
///
/// # Errors
///
/// On I/O failure.
pub fn write_sidecar(segment: &Path, seqs: &[u64]) -> Result<()> {
    let tmp = write_sidecar_tmp(segment, seqs)?;
    std::fs::rename(tmp, sidecar_path(segment))?;
    Ok(())
}

/// Reads the sidecar for `segment` and validates magic, version,
/// length, and checksum.
///
/// # Errors
///
/// [`StoreError::Sidecar`] on a missing, truncated, or corrupt sidecar
/// — the `problem` string distinguishes "missing" (the segment was
/// sealed without tracking, or a crash was swept) from byte rot, so a
/// sharded reopen can report exactly what happened.
pub fn read_sidecar(segment: &Path) -> Result<Vec<u64>> {
    let path = sidecar_path(segment);
    let fail = |what: String| StoreError::Sidecar {
        segment: segment.to_path_buf(),
        problem: what,
    };
    let mut bytes = Vec::new();
    std::fs::File::open(&path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                fail(format!(
                    "missing ({} does not exist; the directory was written without \
                     sequence tracking, or the sidecar was swept after a crash)",
                    path.display()
                ))
            } else {
                fail(format!("unreadable: {e}"))
            }
        })?;
    if bytes.len() < 13 || &bytes[..4] != MAGIC {
        return Err(fail("bad magic".into()));
    }
    if bytes[4] != VERSION {
        return Err(fail("unsupported version".into()));
    }
    // The count is untrusted: size arithmetic on it must not wrap.
    let count = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let body_end = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(13))
        .filter(|&end| end == bytes.len() - 8)
        .ok_or_else(|| fail("truncated".into()))?;
    let body = &bytes[13..body_end];
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(fail("checksum mismatch".into()));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_segment(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nfstrace-seqfile-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("seg-000000.nfseg")
    }

    #[test]
    fn roundtrip() {
        let seg = temp_segment("roundtrip");
        let seqs: Vec<u64> = vec![0, 1, 5, 7, u64::MAX];
        write_sidecar(&seg, &seqs).expect("write");
        assert_eq!(read_sidecar(&seg).expect("read"), seqs);
        write_sidecar(&seg, &[]).expect("rewrite empty");
        assert_eq!(read_sidecar(&seg).expect("read empty"), Vec::<u64>::new());
        std::fs::remove_dir_all(seg.parent().unwrap()).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let seg = temp_segment("corrupt");
        write_sidecar(&seg, &[1, 2, 3]).expect("write");
        let path = sidecar_path(&seg);
        let mut bytes = std::fs::read(&path).expect("read raw");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            read_sidecar(&seg),
            Err(StoreError::Sidecar { .. })
        ));
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert!(matches!(
            read_sidecar(&seg),
            Err(StoreError::Sidecar { .. })
        ));
        std::fs::remove_dir_all(seg.parent().unwrap()).ok();
    }

    /// A header claiming 2^61 entries makes `13 + count * 8` wrap to 13:
    /// the 21-byte file would otherwise pass as an empty sidecar.
    #[test]
    fn a_count_that_overflows_the_length_is_truncation() {
        let seg = temp_segment("overflow");
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&[]).to_le_bytes());
        std::fs::write(sidecar_path(&seg), &bytes).expect("write");
        let err = read_sidecar(&seg).expect_err("the header lies about its count");
        assert!(
            matches!(&err, StoreError::Sidecar { problem, .. } if problem == "truncated"),
            "{err}"
        );
        std::fs::remove_dir_all(seg.parent().unwrap()).ok();
    }

    #[test]
    fn missing_sidecar_is_a_precise_error() {
        let seg = temp_segment("missing");
        let err = read_sidecar(&seg).expect_err("no sidecar");
        match &err {
            StoreError::Sidecar { segment, problem } => {
                assert_eq!(segment, &seg);
                assert!(problem.contains("missing"), "{problem}");
            }
            other => panic!("expected a Sidecar error, got {other}"),
        }
        std::fs::remove_dir_all(seg.parent().unwrap()).ok();
    }

    #[test]
    fn tmp_then_rename_matches_write_sidecar() {
        let seg = temp_segment("split");
        let tmp = write_sidecar_tmp(&seg, &[9, 10]).expect("tmp");
        assert!(tmp.to_string_lossy().ends_with(".nfseq.tmp"));
        assert!(matches!(
            read_sidecar(&seg),
            Err(StoreError::Sidecar { .. })
        ));
        std::fs::rename(&tmp, sidecar_path(&seg)).expect("rename");
        assert_eq!(read_sidecar(&seg).expect("read"), vec![9, 10]);
        std::fs::remove_dir_all(seg.parent().unwrap()).ok();
    }
}
