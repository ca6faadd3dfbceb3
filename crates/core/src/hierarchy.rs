//! On-the-fly reconstruction of the active directory hierarchy (§4.1.1).
//!
//! "It is possible to reconstruct the active parts of the hierarchy
//! on-the-fly by learning the relationship between directories and their
//! contents as revealed by lookup calls and responses ... after
//! processing several minutes of traces, the probability is very small
//! that we will encounter a file or directory whose parent directory has
//! not already been seen."
//!
//! The replay's one file table (`Hierarchy`, crate-private) is learned
//! by one set of rules: LOOKUP, CREATE, MKDIR, SYMLINK and MKNOD bind
//! the name to the reply's new handle, RENAME moves a known entry, and
//! REMOVE and RMDIR unlink it. Each record's `NameChange` tells the
//! analyses that need names — block lifetimes, name prediction and
//! coverage — what it did, so none of them keeps a copy.
//!
//! The table also numbers files. Each handle a record names gets a
//! dense *ordinal* the first time a pass sees it, so every analyzer
//! keeps its per-file state in a vector indexed by ordinal: no map it
//! keeps removes entries, and none iterates in hash order. An ordinal
//! means nothing outside the pass that assigned it. The handle →
//! ordinal map (`FileOrds`, which the construction pass uses too) only
//! ever grows; each directory's entries are ordered by name, so an
//! unlink leaves no tombstone behind and what a replay allocates is a
//! function of its trace.

use crate::record::{FileId, Op, TraceRecord};
use std::collections::{BTreeMap, HashMap};

/// A file's ordinal within one replay: how many distinct handles the
/// pass had seen before this one.
pub(crate) type FileOrd = u32;

/// The slot of `ord` in a per-file vector, grown with defaults to reach
/// it.
pub(crate) fn slot<T: Default>(per_file: &mut Vec<T>, ord: FileOrd) -> &mut T {
    let i = ord as usize;
    if i >= per_file.len() {
        per_file.resize_with(i + 1, T::default);
    }
    &mut per_file[i]
}

/// What one record did to the namespace, as [`Hierarchy::observe`]
/// reports it, in ordinals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameChange {
    /// The record's own handle (`fh`).
    pub file: FileOrd,
    /// The (directory, child) entry the record made: a bind that named
    /// its child, or a RENAME that moved a known entry.
    pub bound: Option<(FileOrd, FileOrd)>,
    /// The file whose entry the record took away: the one a REMOVE or
    /// RMDIR named, or another file whose name a bind or RENAME took.
    pub unlinked: Option<FileOrd>,
}

/// The one numbering of files: each handle's dense ordinal, in the order
/// first seen.
#[derive(Debug, Default)]
pub(crate) struct FileOrds(HashMap<FileId, FileOrd>);

impl FileOrds {
    /// The ordinal of `fh`, numbering it if it is new.
    pub(crate) fn ord(&mut self, fh: FileId) -> FileOrd {
        let next = FileOrd::try_from(self.0.len()).expect("a pass numbers at most 2^32 files");
        *self.0.entry(fh).or_insert(next)
    }

    /// `fh`'s entry in `per_file`, a list in this numbering's order: a
    /// file takes the next entry when its new ordinal equals the list's
    /// length.
    pub(crate) fn entry<'a, T: Default>(
        &mut self,
        per_file: &'a mut Vec<(FileId, T)>,
        fh: FileId,
    ) -> &'a mut T {
        let i = self.ord(fh) as usize;
        if i == per_file.len() {
            per_file.push((fh, T::default()));
        }
        &mut per_file[i].1
    }
}

/// A reconstructed (partial) namespace over numbered files.
#[derive(Debug, Default)]
pub(crate) struct Hierarchy {
    ords: FileOrds,
    /// Each directory's entries, name → child, by the directory's
    /// ordinal.
    dirs: Vec<BTreeMap<String, FileOrd>>,
}

impl Hierarchy {
    /// Numbers the record's handles and learns from it, and says what it
    /// changed. A record without the name (or, for a bind, the new
    /// handle) its rule needs — a failed CREATE, say — changes nothing,
    /// as does a RENAME or REMOVE of a name not learned.
    pub(crate) fn observe(&mut self, r: &TraceRecord) -> NameChange {
        let file = self.ords.ord(r.fh);
        let to_dir = r.fh2.map(|d| self.ords.ord(d));
        let new = r.new_fh.map(|c| self.ords.ord(c));
        let mut change = NameChange {
            file,
            bound: None,
            unlinked: None,
        };
        let Some(name) = r.name.as_deref() else {
            return change;
        };
        match r.op {
            Op::Lookup | Op::Create | Op::Mkdir | Op::Symlink | Op::Mknod => {
                if let Some(child) = new {
                    self.bind(file, name, child, &mut change);
                }
            }
            Op::Rename => {
                if let Some(to) = r.name2.as_deref() {
                    if let Some(child) = self.unlink(file, name) {
                        self.bind(to_dir.unwrap_or(file), to, child, &mut change);
                    }
                }
            }
            Op::Remove | Op::Rmdir => change.unlinked = self.unlink(file, name),
            _ => {}
        }
        change
    }

    /// Binds `name` in `dir` to `child`; a name already bound keeps its
    /// key and takes the new child.
    fn bind(&mut self, dir: FileOrd, name: &str, child: FileOrd, change: &mut NameChange) {
        let entries = slot(&mut self.dirs, dir);
        let old = match entries.get_mut(name) {
            Some(entry) => Some(std::mem::replace(entry, child)),
            None => entries.insert(name.to_owned(), child),
        };
        change.bound = Some((dir, child));
        change.unlinked = old.filter(|&old| old != child);
    }

    fn unlink(&mut self, dir: FileOrd, name: &str) -> Option<FileOrd> {
        self.dirs.get_mut(dir as usize)?.remove(name)
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
/// If `bucket_micros` is 0: a zero-width interval never ends.
pub fn coverage_over_time<'a, I>(records: I, bucket_micros: u64) -> Vec<CoveragePoint>
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut b = CoverageBuilder::new(bucket_micros);
    let mut names = Hierarchy::default();
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
pub(crate) struct CoverageBuilder {
    bucket_micros: u64,
    /// Files placeable so far, by ordinal: every handle an operation
    /// other than RENAME, REMOVE or RMDIR named, and both ends of every
    /// entry bound.
    placed: Vec<bool>,
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
    pub(crate) fn new(bucket_micros: u64) -> Self {
        assert!(
            bucket_micros > 0,
            "hierarchy coverage needs a bucket width above 0 micros, got {bucket_micros}"
        );
        CoverageBuilder {
            bucket_micros,
            placed: Vec::new(),
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
    pub(crate) fn observe(&mut self, r: &TraceRecord, change: NameChange) {
        if self.bucket_end == 0 {
            self.bucket_end = r.micros.saturating_add(self.bucket_micros);
        }
        while r.micros >= self.bucket_end && self.bucket_end < u64::MAX {
            self.flush_bucket();
        }
        self.total += 1;
        if self.placed.get(change.file as usize) == Some(&true) {
            self.known += 1;
        }
        if !matches!(r.op, Op::Rename | Op::Remove | Op::Rmdir) {
            *slot(&mut self.placed, change.file) = true;
        }
        if let Some((dir, child)) = change.bound {
            *slot(&mut self.placed, dir) = true;
            *slot(&mut self.placed, child) = true;
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
    pub(crate) fn finish(mut self) -> Vec<CoveragePoint> {
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

    impl Hierarchy {
        /// Looks up a child by directory and name.
        fn child_of(&self, dir: FileId, name: &str) -> Option<FileId> {
            let child = *self.dirs.get(*self.ords.0.get(&dir)? as usize)?.get(name)?;
            self.ords
                .0
                .iter()
                .find(|&(_, &o)| o == child)
                .map(|(&fh, _)| fh)
        }

        /// Number of entries bound.
        fn len(&self) -> usize {
            self.dirs.iter().map(BTreeMap::len).sum()
        }

        /// Whether no entry is bound.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

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

    /// A change in ordinals: each test's handles are numbered in the
    /// order its records first name them (`fh`, then `fh2`, then
    /// `new_fh`).
    fn change(
        file: FileOrd,
        bound: Option<(FileOrd, FileOrd)>,
        unlinked: Option<FileOrd>,
    ) -> NameChange {
        NameChange {
            file,
            bound,
            unlinked,
        }
    }

    #[test]
    fn paths_reconstruct() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "home7", 2));
        h.observe(&lookup(1, 2, "inbox.lock", 3));
        assert_eq!(h.child_of(FileId(1), "home7"), Some(FileId(2)));
        assert_eq!(h.child_of(FileId(2), "inbox.lock"), Some(FileId(3)));
        assert_eq!(h.child_of(FileId(1), "inbox.lock"), None);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_unlinks() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&TraceRecord::new(1, Op::Remove, FileId(1)).with_name("f"));
        assert!(h.child_of(FileId(1), "f").is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn rename_relinks() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "old", 2));
        h.observe(&lookup(0, 1, "dir9", 9));
        h.observe(&rename(1, "old", 9, "new"));
        assert_eq!(h.child_of(FileId(9), "new"), Some(FileId(2)));
        assert_eq!(h.child_of(FileId(1), "old"), None);
    }

    #[test]
    fn relink_same_name_replaces_old_child() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&lookup(1, 1, "f", 3)); // recreated with a new identity
        assert_eq!(h.child_of(FileId(1), "f"), Some(FileId(3)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn unknown_path_is_bare() {
        let h = Hierarchy::default();
        assert_eq!(h.child_of(FileId(42), "f"), None);
        assert!(h.is_empty());
    }

    #[test]
    fn a_new_binding_reports_its_entry() {
        let mut h = Hierarchy::default();
        assert_eq!(
            h.observe(&lookup(0, 1, "f", 2)),
            change(0, Some((0, 1)), None)
        );
    }

    #[test]
    fn rebinding_the_same_child_unlinks_nothing() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "f", 2));
        let mut create = record(Op::Create, 1, "f");
        create.new_fh = Some(FileId(2));
        assert_eq!(h.observe(&create), change(0, Some((0, 1)), None));
    }

    #[test]
    fn rebinding_to_another_child_displaces_the_old_one() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "f", 2));
        assert_eq!(
            h.observe(&lookup(1, 1, "f", 3)),
            change(0, Some((0, 2)), Some(1))
        );
    }

    #[test]
    fn a_rename_over_an_existing_name_displaces_its_file() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "mbox", 2));
        h.observe(&lookup(0, 1, "mbox.tmp", 3));
        assert_eq!(
            h.observe(&rename(1, "mbox.tmp", 1, "mbox")),
            change(0, Some((0, 2)), Some(1))
        );
        assert_eq!(h.child_of(FileId(1), "mbox"), Some(FileId(3)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn a_rename_of_an_unknown_name_changes_nothing() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "mbox", 2));
        assert_eq!(
            h.observe(&rename(1, "ghost", 1, "mbox")),
            change(0, None, None)
        );
        assert_eq!(h.child_of(FileId(1), "mbox"), Some(FileId(2)));
    }

    #[test]
    fn remove_and_rmdir_report_the_file_they_unlink() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&lookup(0, 1, "d", 3));
        assert_eq!(
            h.observe(&record(Op::Remove, 1, "f")),
            change(0, None, Some(1))
        );
        assert_eq!(
            h.observe(&record(Op::Rmdir, 1, "d")),
            change(0, None, Some(2))
        );
        assert_eq!(
            h.observe(&record(Op::Remove, 1, "f")),
            change(0, None, None)
        );
        assert!(h.is_empty());
    }

    #[test]
    fn a_failed_create_changes_nothing() {
        let mut h = Hierarchy::default();
        h.observe(&lookup(0, 1, "inbox.lock", 2));
        // An exclusive create of a held lock fails: no new handle.
        assert_eq!(
            h.observe(&record(Op::Create, 1, "inbox.lock")),
            change(0, None, None)
        );
        assert_eq!(h.child_of(FileId(1), "inbox.lock"), Some(FileId(2)));
    }

    #[test]
    fn handles_are_numbered_once_in_first_seen_order() {
        let mut h = Hierarchy::default();
        let read = |fh| TraceRecord::new(0, Op::Read, FileId(fh));
        assert_eq!(h.observe(&read(7)).file, 0);
        assert_eq!(
            h.observe(&lookup(0, 5, "f", 7)),
            change(1, Some((1, 0)), None)
        );
        assert_eq!(
            h.observe(&rename(5, "f", 9, "g")),
            change(1, Some((2, 0)), None)
        );
        h.observe(&record(Op::Remove, 9, "g"));
        // An unlink forgets the entry, never the number.
        assert_eq!(h.observe(&read(9)).file, 2);
        assert_eq!(h.observe(&read(5)).file, 1);
        assert_eq!(h.ords.0.len(), 3);
        assert!(h.is_empty());
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
