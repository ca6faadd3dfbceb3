//! On-the-fly reconstruction of the active directory hierarchy (§4.1.1).
//!
//! "It is possible to reconstruct the active parts of the hierarchy
//! on-the-fly by learning the relationship between directories and their
//! contents as revealed by lookup calls and responses ... after
//! processing several minutes of traces, the probability is very small
//! that we will encounter a file or directory whose parent directory has
//! not already been seen."

use crate::record::{FileId, Op, TraceRecord};
use std::collections::HashMap;

/// A reconstructed (partial) namespace: child → (parent, name).
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    parent: HashMap<FileId, (FileId, String)>,
    children: HashMap<(FileId, String), FileId>,
    /// Identities ever observed as a directory argument or child.
    known: std::collections::HashSet<FileId>,
}

impl Hierarchy {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns from one record (lookups, creates, renames, removes).
    pub fn observe(&mut self, r: &TraceRecord) {
        match r.op {
            Op::Lookup | Op::Create | Op::Mkdir | Op::Symlink | Op::Mknod => {
                if let (Some(name), Some(child)) = (&r.name, r.new_fh) {
                    self.link(r.fh, name.clone(), child);
                }
                self.known.insert(r.fh);
            }
            Op::Rename => {
                if let (Some(from), Some(to)) = (&r.name, &r.name2) {
                    let to_dir = r.fh2.unwrap_or(r.fh);
                    if let Some(child) = self.children.remove(&(r.fh, from.clone())) {
                        self.link(to_dir, to.clone(), child);
                    }
                }
            }
            Op::Remove | Op::Rmdir => {
                if let Some(name) = &r.name {
                    if let Some(child) = self.children.remove(&(r.fh, name.clone())) {
                        self.parent.remove(&child);
                    }
                }
            }
            _ => {
                self.known.insert(r.fh);
            }
        }
    }

    fn link(&mut self, dir: FileId, name: String, child: FileId) {
        if let Some(old) = self.children.insert((dir, name.clone()), child) {
            if old != child {
                self.parent.remove(&old);
            }
        }
        self.parent.insert(child, (dir, name));
        self.known.insert(dir);
        self.known.insert(child);
    }

    /// The parent directory and entry name of `fh`, if learned.
    pub fn parent_of(&self, fh: FileId) -> Option<(FileId, &str)> {
        self.parent.get(&fh).map(|(p, n)| (*p, n.as_str()))
    }

    /// Looks up a child by directory and name.
    pub fn child_of(&self, dir: FileId, name: &str) -> Option<FileId> {
        self.children.get(&(dir, name.to_string())).copied()
    }

    /// Reconstructs the path of `fh` as far up as the hierarchy is known,
    /// e.g. `".../home7/inbox.lock"`. Cycles are cut defensively.
    pub fn path_of(&self, fh: FileId) -> String {
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = fh;
        let mut hops = 0;
        while let Some((p, name)) = self.parent_of(cur) {
            parts.push(name);
            cur = p;
            hops += 1;
            if hops > 512 {
                break;
            }
        }
        parts.reverse();
        format!(".../{}", parts.join("/"))
    }

    /// Number of child links learned.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
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
    for r in records {
        b.observe(r);
    }
    b.finish()
}

/// Record-at-a-time accumulator behind [`coverage_over_time`]. The fused
/// replay ([`crate::index::TraceView::prepare`]) feeds one alongside the
/// other analyzers, so views that cannot hold the trace in memory (the
/// out-of-core store index) stream it.
#[derive(Debug)]
pub struct CoverageBuilder {
    bucket_micros: u64,
    h: Hierarchy,
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
            h: Hierarchy::new(),
            out: Vec::new(),
            bucket_end: 0,
            known: 0,
            total: 0,
        }
    }

    /// Folds one record in. Records must arrive in time order. The
    /// bucket that would end past the top of the clock ends at
    /// `u64::MAX` instead, and holds every later record.
    pub fn observe(&mut self, r: &TraceRecord) {
        if self.bucket_end == 0 {
            self.bucket_end = r.micros.saturating_add(self.bucket_micros);
        }
        while r.micros >= self.bucket_end && self.bucket_end < u64::MAX {
            self.flush_bucket();
        }
        self.total += 1;
        if self.h.parent_of(r.fh).is_some() || self.h.known.contains(&r.fh) {
            self.known += 1;
        }
        self.h.observe(r);
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

    #[test]
    fn paths_reconstruct() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "home7", 2));
        h.observe(&lookup(1, 2, "inbox.lock", 3));
        assert_eq!(h.path_of(FileId(3)), ".../home7/inbox.lock");
        assert_eq!(h.parent_of(FileId(3)).unwrap().0, FileId(2));
        assert_eq!(h.child_of(FileId(2), "inbox.lock"), Some(FileId(3)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_unlinks() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&TraceRecord::new(1, Op::Remove, FileId(1)).with_name("f"));
        assert!(h.parent_of(FileId(2)).is_none());
        assert!(h.child_of(FileId(1), "f").is_none());
    }

    #[test]
    fn rename_relinks() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "old", 2));
        let mut rn = TraceRecord::new(1, Op::Rename, FileId(1)).with_name("old");
        rn.name2 = Some("new".into());
        rn.fh2 = Some(FileId(9));
        h.observe(&lookup(0, 1, "dir9", 9));
        h.observe(&rn);
        assert_eq!(h.child_of(FileId(9), "new"), Some(FileId(2)));
        assert_eq!(h.parent_of(FileId(2)).unwrap().0, FileId(9));
    }

    #[test]
    fn relink_same_name_replaces_old_child() {
        let mut h = Hierarchy::new();
        h.observe(&lookup(0, 1, "f", 2));
        h.observe(&lookup(1, 1, "f", 3)); // recreated with a new identity
        assert_eq!(h.child_of(FileId(1), "f"), Some(FileId(3)));
        assert!(h.parent_of(FileId(2)).is_none());
    }

    #[test]
    fn unknown_path_is_bare() {
        let h = Hierarchy::new();
        assert_eq!(h.path_of(FileId(42)), ".../");
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
