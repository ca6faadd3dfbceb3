//! On-the-fly reconstruction of the active directory hierarchy (§4.1.1).
//!
//! "It is possible to reconstruct the active parts of the hierarchy
//! on-the-fly by learning the relationship between directories and their
//! contents as revealed by lookup calls and responses ... after
//! processing several minutes of traces, the probability is very small
//! that we will encounter a file or directory whose parent directory has
//! not already been seen."
//!
//! [`Hierarchy`] is the one (directory, name) → file map of a replay,
//! learned by one set of rules: LOOKUP, CREATE, MKDIR, SYMLINK and
//! MKNOD bind the name to the reply's new handle, RENAME moves a known
//! entry, and REMOVE and RMDIR unlink it. Each record's [`NameChange`]
//! tells the analyses that need names — block lifetimes, name
//! prediction and coverage — what it did, so none of them keeps a copy.

use crate::record::{FileId, Op, TraceRecord};
use std::collections::{HashMap, HashSet};

/// What one record did to the namespace, as [`Hierarchy::observe`]
/// reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameChange {
    /// The (directory, child) entry the record made: a bind that named
    /// its child, or a RENAME that moved a known entry.
    pub bound: Option<(FileId, FileId)>,
    /// The file whose entry the record took away: the one a REMOVE or
    /// RMDIR named, or another file whose name a bind or RENAME took.
    pub unlinked: Option<FileId>,
}

/// A reconstructed (partial) namespace: each directory's entries,
/// name → child.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    dirs: HashMap<FileId, HashMap<String, FileId>>,
}

impl Hierarchy {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns from one record and says what it changed. A record without
    /// the name (or, for a bind, the new handle) its rule needs — a
    /// failed CREATE, say — changes nothing, as does a RENAME or REMOVE
    /// of a name not learned.
    pub fn observe(&mut self, r: &TraceRecord) -> NameChange {
        let Some(name) = r.name.as_deref() else {
            return NameChange::default();
        };
        match r.op {
            Op::Lookup | Op::Create | Op::Mkdir | Op::Symlink | Op::Mknod => {
                if let Some(child) = r.new_fh {
                    return self.bind(r.fh, name, child);
                }
            }
            Op::Rename => {
                if let Some(to) = r.name2.as_deref() {
                    if let Some(child) = self.unlink(r.fh, name) {
                        return self.bind(r.fh2.unwrap_or(r.fh), to, child);
                    }
                }
            }
            Op::Remove | Op::Rmdir => {
                return NameChange {
                    bound: None,
                    unlinked: self.unlink(r.fh, name),
                }
            }
            _ => {}
        }
        NameChange::default()
    }

    /// Binds `name` in `dir` to `child`; a name already bound keeps its
    /// key and takes the new child.
    fn bind(&mut self, dir: FileId, name: &str, child: FileId) -> NameChange {
        let entries = self.dirs.entry(dir).or_default();
        let old = match entries.get_mut(name) {
            Some(slot) => Some(std::mem::replace(slot, child)),
            None => entries.insert(name.to_owned(), child),
        };
        NameChange {
            bound: Some((dir, child)),
            unlinked: old.filter(|&old| old != child),
        }
    }

    fn unlink(&mut self, dir: FileId, name: &str) -> Option<FileId> {
        self.dirs.get_mut(&dir)?.remove(name)
    }

    /// Looks up a child by directory and name.
    pub fn child_of(&self, dir: FileId, name: &str) -> Option<FileId> {
        self.dirs.get(&dir)?.get(name).copied()
    }

    /// Number of entries bound.
    pub fn len(&self) -> usize {
        self.dirs.values().map(HashMap::len).sum()
    }

    /// Whether no entry is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One point of the §4.1.1 coverage measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// End of the measurement interval, microseconds.
    pub micros: u64,
    /// Operations in the interval whose primary handle had a known
    /// parent (or was a known directory), over all operations.
    pub known_fraction: f64,
}

/// Replays a trace, measuring per-interval how often an operation's file
/// was already placeable in the hierarchy. The paper's claim: this
/// fraction climbs toward 1 within minutes.
///
/// # Panics
///
/// If `bucket_micros` is 0 ([`CoverageBuilder::new`]).
pub fn coverage_over_time<'a, I>(records: I, bucket_micros: u64) -> Vec<CoveragePoint>
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut b = CoverageBuilder::new(bucket_micros);
    let mut names = Hierarchy::new();
    for r in records {
        b.observe(r, names.observe(r));
    }
    b.finish()
}

/// Record-at-a-time accumulator behind [`coverage_over_time`]. The fused
/// replay ([`crate::index::TraceView::prepare`]) feeds one alongside the
/// other analyzers, so views that cannot hold the trace in memory (the
/// out-of-core store index) stream it. It keeps no namespace of its own:
/// each record comes with the [`NameChange`] the replay's one
/// [`Hierarchy`] made of it.
#[derive(Debug)]
pub struct CoverageBuilder {
    bucket_micros: u64,
    /// Identities placeable so far: every handle an operation other than
    /// RENAME, REMOVE or RMDIR named, and both ends of every entry bound.
    placed: HashSet<FileId>,
    out: Vec<CoveragePoint>,
    bucket_end: u64,
    known: u64,
    total: u64,
}

impl CoverageBuilder {
    /// Creates a builder with the given measurement interval.
    ///
    /// # Panics
    ///
    /// If `bucket_micros` is 0: a zero-width interval never ends.
    pub fn new(bucket_micros: u64) -> Self {
        assert!(
            bucket_micros > 0,
            "hierarchy coverage needs a bucket width above 0 micros, got {bucket_micros}"
        );
        CoverageBuilder {
            bucket_micros,
            placed: HashSet::new(),
            out: Vec::new(),
            bucket_end: 0,
            known: 0,
            total: 0,
        }
    }

    /// Folds one record in, with what it did to the namespace. Records
    /// must arrive in time order. The bucket that would end past the top
    /// of the clock ends at `u64::MAX` instead, and holds every later
    /// record.
    pub fn observe(&mut self, r: &TraceRecord, change: NameChange) {
        if self.bucket_end == 0 {
            self.bucket_end = r.micros.saturating_add(self.bucket_micros);
        }
        while r.micros >= self.bucket_end && self.bucket_end < u64::MAX {
            self.flush_bucket();
        }
        self.total += 1;
        if self.placed.contains(&r.fh) {
            self.known += 1;
        }
        if !matches!(r.op, Op::Rename | Op::Remove | Op::Rmdir) {
            self.placed.insert(r.fh);
        }
        if let Some((dir, child)) = change.bound {
            self.placed.insert(dir);
            self.placed.insert(child);
        }
    }

    fn flush_bucket(&mut self) {
        self.out.push(CoveragePoint {
            micros: self.bucket_end,
            known_fraction: if self.total == 0 {
                0.0
            } else {
                self.known as f64 / self.total as f64
            },
        });
        self.known = 0;
        self.total = 0;
        self.bucket_end = self.bucket_end.saturating_add(self.bucket_micros);
    }

    /// Closes the trailing partial bucket and returns the series.
    pub fn finish(mut self) -> Vec<CoveragePoint> {
        if self.total > 0 {
            self.out.push(CoveragePoint {
                micros: self.bucket_end,
                known_fraction: self.known as f64 / self.total as f64,
            });
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{TraceIndex, TraceView};

    fn lookup(t: u64, dir: u64, name: &str, child: u64) -> TraceRecord {
        let mut r = TraceRecord::new(t, Op::Lookup, FileId(dir)).with_name(name);
        r.new_fh = Some(FileId(child));
        r
    }

    fn record(op: Op, dir: u64, name: &str) -> TraceRecord {
        TraceRecord::new(0, op, FileId(dir)).with_name(name)
    }

    fn rename(dir: u64, from: &str, to_dir: u64, to: &str) -> TraceRecord {
        let mut r = record(Op::Rename, dir, from);
        r.name2 = Some(to.into());
        r.fh2 = Some(FileId(to_dir));
        r
    }

    fn change(bound: Option<(u64, u64)>, unlinked: Option<u64>) -> NameChange {
        NameChange {
            bound: bound.map(|(dir, child)| (FileId(dir), FileId(child))),
            unlinked: unlinked.map(FileId),
        }
    }

    #[test]
    fn paths_reconstruct() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "home7", 2));
        h.observe(&lookup(1, 2, "inbox.lock", 3));
        assert_eq!(h.child_of(FileId(1), "home7"), Some(FileId(2)));
        assert_eq!(h.child_of(FileId(2), "inbox.lock"), Some(FileId(3)));
        assert_eq!(h.child_of(FileId(1), "inbox.lock"), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_unlinks() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&TraceRecord::new(1, Op::Remove, FileId(1)).with_name("f"));
        assert!(h.child_of(FileId(1), "f").is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn rename_relinks() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "old", 2));
        h.observe(&lookup(0, 1, "dir9", 9));
        h.observe(&rename(1, "old", 9, "new"));
        assert_eq!(h.child_of(FileId(9), "new"), Some(FileId(2)));
        assert_eq!(h.child_of(FileId(1), "old"), None);
    }

    #[test]
    fn relink_same_name_replaces_old_child() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&lookup(1, 1, "f", 3)); // recreated with a new identity
        assert_eq!(h.child_of(FileId(1), "f"), Some(FileId(3)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn unknown_path_is_bare() {
        let h = Hierarchy::new();
        assert_eq!(h.child_of(FileId(42), "f"), None);
        assert!(h.is_empty());
    }

    #[test]
    fn a_new_binding_reports_its_entry() {
        let mut h = Hierarchy::new();
        assert_eq!(h.observe(&lookup(0, 1, "f", 2)), change(Some((1, 2)), None));
    }

    #[test]
    fn rebinding_the_same_child_unlinks_nothing() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        let mut create = record(Op::Create, 1, "f");
        create.new_fh = Some(FileId(2));
        assert_eq!(h.observe(&create), change(Some((1, 2)), None));
    }

    #[test]
    fn rebinding_to_another_child_displaces_the_old_one() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        assert_eq!(
            h.observe(&lookup(1, 1, "f", 3)),
            change(Some((1, 3)), Some(2))
        );
    }

    #[test]
    fn a_rename_over_an_existing_name_displaces_its_file() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "mbox", 2));
        h.observe(&lookup(0, 1, "mbox.tmp", 3));
        assert_eq!(
            h.observe(&rename(1, "mbox.tmp", 1, "mbox")),
            change(Some((1, 3)), Some(2))
        );
        assert_eq!(h.child_of(FileId(1), "mbox"), Some(FileId(3)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn a_rename_of_an_unknown_name_changes_nothing() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "mbox", 2));
        assert_eq!(
            h.observe(&rename(1, "ghost", 1, "mbox")),
            change(None, None)
        );
        assert_eq!(h.child_of(FileId(1), "mbox"), Some(FileId(2)));
    }

    #[test]
    fn remove_and_rmdir_report_the_file_they_unlink() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&lookup(0, 1, "d", 3));
        assert_eq!(
            h.observe(&record(Op::Remove, 1, "f")),
            change(None, Some(2))
        );
        assert_eq!(h.observe(&record(Op::Rmdir, 1, "d")), change(None, Some(3)));
        assert_eq!(h.observe(&record(Op::Remove, 1, "f")), change(None, None));
        assert!(h.is_empty());
    }

    #[test]
    fn a_failed_create_changes_nothing() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "inbox.lock", 2));
        // An exclusive create of a held lock fails: no new handle.
        assert_eq!(
            h.observe(&record(Op::Create, 1, "inbox.lock")),
            change(None, None)
        );
        assert_eq!(h.child_of(FileId(1), "inbox.lock"), Some(FileId(2)));
    }

    #[test]
    fn coverage_climbs() {
        // Interleave lookups (which teach) with reads of the same files.
        let mut recs = Vec::new();
        for i in 0..50u64 {
            recs.push(lookup(i * 1000, 1, &format!("f{i}"), 100 + i));
        }
        for i in 0..50u64 {
            recs.push(TraceRecord::new(
                100_000 + i * 1000,
                Op::Read,
                FileId(100 + i),
            ));
        }
        let pts = coverage_over_time(recs.iter(), 50_000);
        // The late buckets (reads of known files) must have full coverage.
        assert!((pts.last().unwrap().known_fraction - 1.0).abs() < 1e-9);
        // The first bucket sees brand-new files.
        assert!(pts[0].known_fraction < 1.0);
    }

    #[test]
    #[should_panic(expected = "hierarchy coverage needs a bucket width above 0 micros, got 0")]
    fn a_zero_bucket_width_is_refused() {
        let idx = TraceIndex::new(vec![lookup(10, 1, "f", 2)]);
        idx.hierarchy_coverage(0);
    }

    #[test]
    fn coverage_ends_its_last_bucket_at_the_top_of_the_clock() {
        let idx = TraceIndex::new(vec![
            lookup(u64::MAX - 1, 1, "f", 2),
            TraceRecord::new(u64::MAX, Op::Read, FileId(2)),
        ]);
        let pts = idx.hierarchy_coverage(30 * 60 * 1_000_000);
        assert_eq!(
            pts.as_slice(),
            [CoveragePoint {
                micros: u64::MAX,
                known_fraction: 0.5
            }]
        );
    }
}
