//! Segment naming, generations, and the reopen-and-append catalog.
//!
//! A *segment* is an ordinary store file that holds one contiguous,
//! time-ordered span of a trace. A live ingest rotates through
//! segments — sealing the hot one and starting the next — so a
//! directory of segments **is** the trace: `seg-000000.nfseg`,
//! `seg-000001.nfseg`, … in ordinal (= time) order.
//!
//! # Generations
//!
//! Background compaction ([`crate::compact`]) merges runs of adjacent
//! segments into one larger segment tagged with a **generation**. A
//! [`SegmentId`] names the result: generation 0 is a freshly sealed
//! base segment covering exactly one ordinal (`seg-000042.nfseg`);
//! generation *g* ≥ 1 covers an inclusive base-ordinal range and is
//! named `seg-<lo>-<hi>.g<gen>.nfseg` (`seg-000000-000003.g01.nfseg`).
//! The old single-ordinal names *are* the generation-0 encoding, so
//! every catalog written before compaction existed keeps opening
//! unchanged.
//!
//! A compacted segment **supersedes** the segments it merged: any
//! segment of a higher generation whose ordinal range contains
//! another's. Opening a catalog resolves supersession — if a crash
//! left both a compaction's sources and its output on disk, the output
//! wins and the sources are ignored (and deleted by the sweeping
//! open), so reopen is deterministic: the catalog is always either the
//! pre-compaction or the post-compaction state, never a mix.
//!
//! [`SegmentCatalog`] is the directory view: it scans for segment
//! files, resolves generations, orders survivors by ordinal range, and
//! hands out the next base ordinal to write — which is what makes a
//! stopped ingest *restartable*: reopen the catalog, and appending
//! continues exactly where the last sealed segment left off.
//! [`crate::StoreIndex::open_dir`] builds the merged analysis view
//! over a catalog. [`SegmentCatalog::open`] never touches the
//! directory's files (it may race a live writer's hot `.tmp`);
//! [`SegmentCatalog::open_and_sweep`] — the write path's entry point —
//! additionally deletes stale temps and superseded sources.

use crate::error::{Result, StoreError};
use std::path::{Path, PathBuf};

/// File suffix every segment carries.
pub(crate) const SEGMENT_SUFFIX: &str = ".nfseg";

/// The identity of one segment file: its compaction generation and the
/// inclusive range `[lo, hi]` of base ordinals it covers. A freshly
/// sealed segment is generation 0 with `lo == hi`; each compaction
/// pass merges a contiguous run and bumps the generation past its
/// sources' maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId {
    /// First base ordinal covered.
    pub lo: u64,
    /// Last base ordinal covered (inclusive; `== lo` for a base
    /// segment).
    pub hi: u64,
    /// Compaction generation (0 = sealed directly by an ingest).
    pub generation: u32,
}

impl SegmentId {
    /// The generation-0 id of freshly sealed base segment `ordinal`.
    pub fn base(ordinal: u64) -> Self {
        SegmentId {
            lo: ordinal,
            hi: ordinal,
            generation: 0,
        }
    }

    /// This segment's file name (`seg-000042.nfseg` for a base
    /// segment, `seg-000000-000003.g01.nfseg` for a compacted one).
    pub(crate) fn file_name(&self) -> String {
        if self.generation == 0 && self.lo == self.hi {
            segment_file_name(self.lo)
        } else {
            format!(
                "seg-{:06}-{:06}.g{:02}{SEGMENT_SUFFIX}",
                self.lo, self.hi, self.generation
            )
        }
    }

    /// Whether this segment's ordinal range contains all of `other`'s.
    pub fn contains(&self, other: &SegmentId) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether this segment replaces `other` in a catalog: a strictly
    /// higher generation covering `other`'s whole ordinal range.
    pub(crate) fn supersedes(&self, other: &SegmentId) -> bool {
        self.generation > other.generation && self.contains(other)
    }
}

/// The file name of base segment `ordinal` (`seg-000042.nfseg`).
pub fn segment_file_name(ordinal: u64) -> String {
    format!("seg-{ordinal:06}{SEGMENT_SUFFIX}")
}

/// Parses a segment file name back to its [`SegmentId`]; `None` for
/// anything that is not a segment name (including `.tmp` temps).
pub(crate) fn parse_segment_name(name: &str) -> Option<SegmentId> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(SEGMENT_SUFFIX)?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if digits(rest) {
        return rest.parse().ok().map(SegmentId::base);
    }
    let (range, generation) = rest.split_once(".g")?;
    let (lo, hi) = range.split_once('-')?;
    if !digits(lo) || !digits(hi) || !digits(generation) {
        return None;
    }
    let id = SegmentId {
        lo: lo.parse().ok()?,
        hi: hi.parse().ok()?,
        generation: generation.parse().ok()?,
    };
    (id.generation >= 1 && id.lo <= id.hi).then_some(id)
}

/// Splits scanned segment ids into the surviving catalog (supersession
/// resolved, sorted by ordinal range) and the superseded sources a
/// crashed compaction left behind.
///
/// # Errors
///
/// If two survivors' ordinal ranges overlap — a directory no crash of
/// this crate's protocols can produce, so it is reported rather than
/// silently resolved — or if any name claims ordinal `u64::MAX`: file
/// names are untrusted input, and [`SegmentCatalog::next_ordinal`] has
/// no ordinal to hand out past it.
fn resolve(mut ids: Vec<SegmentId>) -> Result<(Vec<SegmentId>, Vec<SegmentId>)> {
    if let Some(id) = ids.iter().find(|id| id.hi == u64::MAX) {
        return Err(StoreError::Format(format!(
            "segment {} claims the last ordinal; no segment can follow it",
            id.file_name()
        )));
    }
    ids.sort_unstable();
    let superseded: Vec<SegmentId> = ids
        .iter()
        .filter(|a| ids.iter().any(|b| b.supersedes(a)))
        .copied()
        .collect();
    let mut live: Vec<SegmentId> = ids
        .into_iter()
        .filter(|a| !superseded.contains(a))
        .collect();
    live.sort_unstable();
    for w in live.windows(2) {
        if w[1].lo <= w[0].hi {
            return Err(StoreError::Format(format!(
                "segments {} and {} overlap without superseding each other",
                w[0].file_name(),
                w[1].file_name()
            )));
        }
    }
    Ok((live, superseded))
}

/// The ordered set of sealed segments in one directory, generations
/// resolved (see the module docs).
///
/// # Examples
///
/// ```
/// use nfstrace_store::segments::SegmentCatalog;
///
/// let dir = std::env::temp_dir().join("nfstrace-catalog-doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let mut cat = SegmentCatalog::open(&dir).unwrap();
/// let first = cat.next_ordinal();
/// let path = cat.path_for(first);
/// // ... write a store file at `path`, then:
/// // cat.note_sealed(first);
/// ```
#[derive(Debug)]
pub struct SegmentCatalog {
    dir: PathBuf,
    /// Surviving segment ids, ascending by ordinal range.
    ids: Vec<SegmentId>,
}

impl SegmentCatalog {
    /// Opens (creating if needed) a segment directory, scans it, and
    /// resolves supersession. Read-only: stale `.tmp` files and
    /// superseded sources are *ignored*, never deleted —
    /// this may run against a directory another process is actively
    /// writing. Writers reopen with
    /// [`SegmentCatalog::open_and_sweep`] instead.
    ///
    /// # Errors
    ///
    /// On directory create/read failure, or a directory whose
    /// surviving segments overlap or whose names reach ordinal
    /// `u64::MAX`.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(StoreError::Io)?;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_name) {
                ids.push(id);
            }
        }
        let (live, _) = resolve(ids)?;
        Ok(SegmentCatalog { dir, ids: live })
    }

    /// [`SegmentCatalog::open`] for the write path: additionally
    /// deletes everything a crash can leave behind — half-written
    /// `*.nfseg.tmp` temps and the source segments of a compaction
    /// whose output already landed. After the sweep the directory holds exactly the surviving catalog:
    /// reopen is deterministic, always the old state or the new one,
    /// never a mix.
    ///
    /// # Errors
    ///
    /// See [`SegmentCatalog::open`], plus file removal failure.
    pub fn open_and_sweep<P: AsRef<Path>>(dir: P) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(StoreError::Io)?;
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
                continue;
            };
            if name.ends_with(".nfseg.tmp") {
                std::fs::remove_file(entry.path())?;
            } else if let Some(id) = parse_segment_name(&name) {
                ids.push(id);
            }
        }
        let (live, superseded) = resolve(ids)?;
        for id in &superseded {
            std::fs::remove_file(dir.join(id.file_name()))?;
        }
        Ok(SegmentCatalog { dir, ids: live })
    }

    /// Surviving segment ids, ascending by ordinal range.
    pub fn ids(&self) -> &[SegmentId] {
        &self.ids
    }

    /// Number of surviving segments.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no segment has been sealed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Surviving segment paths, in ordinal (= time) order.
    pub fn paths(&self) -> Vec<PathBuf> {
        self.ids.iter().map(|id| self.path_of(id)).collect()
    }

    /// The path base segment `ordinal` lives (or will live) at.
    pub fn path_for(&self, ordinal: u64) -> PathBuf {
        self.path_of(&SegmentId::base(ordinal))
    }

    /// The path segment `id` lives (or will live) at.
    pub fn path_of(&self, id: &SegmentId) -> PathBuf {
        self.dir.join(id.file_name())
    }

    /// The base ordinal the next sealed segment should take — one past
    /// the highest ordinal any surviving segment covers, so a reopened
    /// ingest appends after everything already on disk (compacted or
    /// not).
    pub fn next_ordinal(&self) -> u64 {
        self.ids.last().map_or(0, |id| id.hi + 1)
    }

    /// Records that base segment `ordinal` was sealed (its file fully
    /// written and renamed).
    pub fn note_sealed(&mut self, ordinal: u64) {
        debug_assert!(self.ids.last().is_none_or(|id| id.hi < ordinal));
        self.ids.push(SegmentId::base(ordinal));
    }

    /// Records that a compaction's `output` segment replaced the
    /// contiguous run of catalog entries its ordinal range covers, and
    /// returns that run's position as `(first index, length)` — the
    /// in-memory swap mirroring the on-disk supersession, so a live
    /// ingest can splice its reader vector.
    ///
    /// # Panics
    ///
    /// If `output` does not cover a non-empty contiguous run of whole
    /// existing entries — compaction plans are built from this catalog,
    /// so anything else is a caller bug.
    pub(crate) fn apply_compaction(&mut self, output: SegmentId) -> (usize, usize) {
        let first = self
            .ids
            .iter()
            .position(|id| output.contains(id))
            .expect("compaction output must cover existing segments");
        let count = self.ids[first..]
            .iter()
            .take_while(|id| output.contains(id))
            .count();
        let covered = &self.ids[first..first + count];
        assert!(
            covered.first().is_some_and(|id| id.lo == output.lo)
                && covered.last().is_some_and(|id| id.hi == output.hi),
            "compaction output {} must cover whole catalog entries",
            output.file_name()
        );
        self.ids.splice(first..first + count, [output]);
        (first, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_names_roundtrip() {
        for ord in [0u64, 1, 42, 999_999, 1_000_000] {
            assert_eq!(
                parse_segment_name(&segment_file_name(ord)),
                Some(SegmentId::base(ord))
            );
            assert_eq!(SegmentId::base(ord).file_name(), segment_file_name(ord));
        }
        for bad in [
            "seg-.nfseg",
            "seg-12.nfstore",
            "other-000001.nfseg",
            "seg-12a.nfseg",
            "seg-000001.nfseg.tmp",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn compacted_names_roundtrip() {
        for (lo, hi, generation) in [(0u64, 3u64, 1u32), (4, 4, 2), (100, 1_000_000, 17)] {
            let id = SegmentId { lo, hi, generation };
            assert_eq!(parse_segment_name(&id.file_name()), Some(id), "{id:?}");
        }
        assert_eq!(
            SegmentId {
                lo: 0,
                hi: 3,
                generation: 1
            }
            .file_name(),
            "seg-000000-000003.g01.nfseg"
        );
        for bad in [
            "seg-000000-000003.nfseg",     // range without a generation
            "seg-000000-000003.g00.nfseg", // generation 0 is the base form
            "seg-000003-000000.g01.nfseg", // inverted range
            "seg-000000-00000x.g01.nfseg", // non-digit
            "seg-000000-000003.g01.nfseg.tmp",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn supersession_prefers_higher_generations() {
        let g0: Vec<SegmentId> = (0..4).map(SegmentId::base).collect();
        let g1 = SegmentId {
            lo: 0,
            hi: 3,
            generation: 1,
        };
        assert!(g1.supersedes(&g0[0]) && g1.supersedes(&g0[3]));
        assert!(!g0[0].supersedes(&g1));
        // A crash can leave sources and output side by side: the output
        // wins deterministically.
        let mut all = g0.clone();
        all.push(g1);
        let (live, superseded) = resolve(all).expect("resolve");
        assert_eq!(live, vec![g1]);
        assert_eq!(superseded, g0);
        // Overlap without containment is corruption, not supersession.
        let skew = SegmentId {
            lo: 2,
            hi: 5,
            generation: 1,
        };
        assert!(resolve(vec![g1, skew]).is_err());
    }

    #[test]
    fn catalog_scans_orders_and_appends() {
        let dir = std::env::temp_dir().join(format!("nfstrace-catalog-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cat = SegmentCatalog::open(&dir).expect("open empty");
        assert!(cat.is_empty());
        assert_eq!(cat.next_ordinal(), 0);
        for ord in [0u64, 1, 2] {
            std::fs::write(cat.path_for(ord), b"x").expect("touch");
            cat.note_sealed(ord);
        }
        // Unrelated files are ignored on rescan.
        std::fs::write(dir.join("notes.txt"), b"x").expect("touch");
        let reopened = SegmentCatalog::open(&dir).expect("reopen");
        assert_eq!(
            reopened.ids(),
            &[SegmentId::base(0), SegmentId::base(1), SegmentId::base(2)]
        );
        assert_eq!(reopened.next_ordinal(), 3);
        assert_eq!(reopened.paths().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// File names are untrusted input: a name claiming the last ordinal
    /// leaves `next_ordinal` nothing to hand out (`hi + 1` overflows),
    /// so both openers refuse the directory, naming the file.
    #[test]
    fn a_name_claiming_the_last_ordinal_is_refused_at_open() {
        for (tag, name) in [
            ("base", "seg-18446744073709551615.nfseg"),
            ("gen", "seg-000000-18446744073709551615.g01.nfseg"),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("nfstrace-catalog-max-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("mkdir");
            std::fs::write(dir.join(name), b"x").expect("touch");
            assert!(parse_segment_name(name).is_some(), "{name} parses");
            for open in [SegmentCatalog::open, SegmentCatalog::open_and_sweep] {
                let Err(err) = open(&dir) else {
                    panic!("a directory holding {name} must not open");
                };
                assert!(matches!(err, StoreError::Format(_)), "{err:?}");
                assert!(err.to_string().contains(name), "{err}");
            }
            assert!(dir.join(name).exists(), "the refusal deletes nothing");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn next_ordinal_appends_past_compacted_ranges() {
        let dir = std::env::temp_dir().join(format!("nfstrace-catalog-gen-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let g1 = SegmentId {
            lo: 0,
            hi: 3,
            generation: 1,
        };
        std::fs::write(dir.join(g1.file_name()), b"x").expect("touch");
        std::fs::write(dir.join(segment_file_name(4)), b"x").expect("touch");
        let cat = SegmentCatalog::open(&dir).expect("open");
        assert_eq!(cat.ids(), &[g1, SegmentId::base(4)]);
        assert_eq!(cat.next_ordinal(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a crash during sealing used to leave `*.tmp`
    /// segments — the one orphan a seal can leave — that a plain reopen
    /// tripped over (or silently mis-enumerated). The read-only open
    /// must ignore them; the sweeping open must delete them; both must
    /// enumerate the same surviving catalog.
    #[test]
    fn stale_tmps_and_orphans_are_ignored_then_swept() {
        let dir =
            std::env::temp_dir().join(format!("nfstrace-catalog-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        for ord in [0u64, 1] {
            std::fs::write(dir.join(segment_file_name(ord)), b"x").expect("touch");
        }
        // A crash mid-seal: a half-written segment temp.
        std::fs::write(dir.join("seg-000002.nfseg.tmp"), b"partial").expect("touch");

        let read_only = SegmentCatalog::open(&dir).expect("read-only open");
        assert_eq!(read_only.ids(), &[SegmentId::base(0), SegmentId::base(1)]);
        assert_eq!(read_only.next_ordinal(), 2);
        assert!(
            dir.join("seg-000002.nfseg.tmp").exists(),
            "read-only open must not delete"
        );

        let swept = SegmentCatalog::open_and_sweep(&dir).expect("sweeping open");
        assert_eq!(swept.ids(), read_only.ids());
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "not swept: {leftovers:?}");
        // Sweeping again is a no-op; reopen stays deterministic.
        let again = SegmentCatalog::open_and_sweep(&dir).expect("idempotent");
        assert_eq!(again.ids(), swept.ids());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_removes_superseded_sources() {
        let dir = std::env::temp_dir().join(format!("nfstrace-catalog-sup-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A compaction crashed after renaming its output but before
        // deleting its sources: both live on disk.
        for ord in [0u64, 1] {
            std::fs::write(dir.join(segment_file_name(ord)), b"src").expect("touch");
        }
        let out = SegmentId {
            lo: 0,
            hi: 1,
            generation: 1,
        };
        std::fs::write(dir.join(out.file_name()), b"out").expect("touch");
        std::fs::write(dir.join(segment_file_name(2)), b"tail").expect("touch");

        let swept = SegmentCatalog::open_and_sweep(&dir).expect("sweep");
        assert_eq!(swept.ids(), &[out, SegmentId::base(2)]);
        assert!(!dir.join(segment_file_name(0)).exists());
        assert!(!dir.join(segment_file_name(1)).exists());
        assert!(dir.join(out.file_name()).exists(), "the output survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_compaction_splices_the_covered_run() {
        let dir =
            std::env::temp_dir().join(format!("nfstrace-catalog-apply-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cat = SegmentCatalog::open(&dir).expect("open");
        for ord in 0..5 {
            cat.note_sealed(ord);
        }
        let out = SegmentId {
            lo: 1,
            hi: 3,
            generation: 1,
        };
        assert_eq!(cat.apply_compaction(out), (1, 3));
        assert_eq!(cat.ids(), &[SegmentId::base(0), out, SegmentId::base(4)]);
        assert_eq!(cat.next_ordinal(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
