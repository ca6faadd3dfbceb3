//! Filename → attribute prediction (§6.3).
//!
//! "On CAMPUS we can predict the size, lifespan, and access patterns of
//! most files extremely well simply by examining the last component of
//! the pathname." Nearly every CAMPUS file is a lock file, a dot file, a
//! mail-composer temporary, or a mailbox; EECS adds window-manager
//! Applet files, browser cache files, and build artifacts. This module
//! classifies names into those categories, states each category's
//! predicted profile, and evaluates the predictions against observed
//! per-file statistics.
//!
//! A file's name is the one its CREATE bound, and its deletion the
//! REMOVE that unlinked it from the replay's one namespace
//! (`core::hierarchy`'s file table, which learns from lookups, renames
//! and RMDIRs too). The table numbers each file with a dense ordinal,
//! so the per-file observations are a vector indexed by ordinal.

use crate::hierarchy::{slot, FileOrd, Hierarchy, NameChange};
use crate::record::{Op, TraceRecord};
use std::collections::HashMap;

/// Categories of files recognizable from the last pathname component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileCategory {
    /// Zero-length mailbox lock files (`*.lock`, `lock.*`).
    Lock,
    /// Configuration dot files (`.pinerc`, `.cshrc`, ...).
    Dot,
    /// Mail-composer temporaries (`snd.*`, `pico.*`).
    MailTmp,
    /// User inboxes and mail folders (`inbox`, `mbox`, `received`, ...).
    Mailbox,
    /// Window-manager scratch files (`Applet_*_Extern`).
    Applet,
    /// Web browser cache files (`cache########`).
    BrowserCache,
    /// Source code (`*.c`, `*.h`, `*.java`, ...).
    Source,
    /// Build artifacts (`*.o`, `*.so`, `*.a`).
    Object,
    /// Log and index files (`*.log`, `*.idx`).
    Log,
    /// Editor temporaries (`#name#`, `name~`).
    EditorTmp,
    /// RCS/CVS version files (`*,v`).
    Rcs,
    /// Everything else.
    Other,
}

impl FileCategory {
    /// All categories, for iteration.
    pub const ALL: [FileCategory; 12] = [
        FileCategory::Lock,
        FileCategory::Dot,
        FileCategory::MailTmp,
        FileCategory::Mailbox,
        FileCategory::Applet,
        FileCategory::BrowserCache,
        FileCategory::Source,
        FileCategory::Object,
        FileCategory::Log,
        FileCategory::EditorTmp,
        FileCategory::Rcs,
        FileCategory::Other,
    ];

    /// A short label for report output.
    pub fn label(self) -> &'static str {
        match self {
            FileCategory::Lock => "lock",
            FileCategory::Dot => "dot",
            FileCategory::MailTmp => "mail-tmp",
            FileCategory::Mailbox => "mailbox",
            FileCategory::Applet => "applet",
            FileCategory::BrowserCache => "browser-cache",
            FileCategory::Source => "source",
            FileCategory::Object => "object",
            FileCategory::Log => "log",
            FileCategory::EditorTmp => "editor-tmp",
            FileCategory::Rcs => "rcs",
            FileCategory::Other => "other",
        }
    }
}

/// Classifies the last component of a pathname.
///
/// # Examples
///
/// ```
/// use nfstrace_core::names::{classify, FileCategory};
///
/// assert_eq!(classify("inbox.lock"), FileCategory::Lock);
/// assert_eq!(classify(".pinerc"), FileCategory::Dot);
/// assert_eq!(classify("snd.1234"), FileCategory::MailTmp);
/// assert_eq!(classify("inbox"), FileCategory::Mailbox);
/// assert_eq!(classify("Applet_12_Extern"), FileCategory::Applet);
/// ```
pub fn classify(name: &str) -> FileCategory {
    // Order matters: locks beat dots so ".inbox.lock" is a lock.
    if name.ends_with(".lock") || name.starts_with("lock.") || name == "lock" {
        return FileCategory::Lock;
    }
    if name.starts_with("snd.") || name.starts_with("pico.") {
        return FileCategory::MailTmp;
    }
    if name.starts_with('.') {
        return FileCategory::Dot;
    }
    if name == "inbox"
        || name == "mbox"
        || name == "received"
        || name.starts_with("mbox.")
        || name == "sent-mail"
        || name == "saved-messages"
    {
        return FileCategory::Mailbox;
    }
    if name.starts_with("Applet_") && name.ends_with("_Extern") {
        return FileCategory::Applet;
    }
    if name.starts_with("cache") && name.len() > 5 && name[5..].bytes().all(|b| b.is_ascii_digit())
    {
        return FileCategory::BrowserCache;
    }
    if name.ends_with(",v") {
        return FileCategory::Rcs;
    }
    if (name.starts_with('#') && name.ends_with('#') && name.len() > 1) || name.ends_with('~') {
        return FileCategory::EditorTmp;
    }
    if name.ends_with(".log") || name.ends_with(".idx") {
        return FileCategory::Log;
    }
    if [".c", ".h", ".cc", ".cpp", ".java", ".rs", ".py", ".tex"]
        .iter()
        .any(|s| name.ends_with(s))
    {
        return FileCategory::Source;
    }
    if [".o", ".so", ".a"].iter().any(|s| name.ends_with(s)) {
        return FileCategory::Object;
    }
    FileCategory::Other
}

/// The attribute profile a category predicts at file-creation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedProfile {
    /// Predicted maximum size in bytes (`u64::MAX` = unbounded).
    pub max_size: u64,
    /// Predicted maximum lifetime in microseconds (`u64::MAX` = long).
    pub max_lifetime: u64,
    /// Whether deletion is expected at all.
    pub expect_deleted: bool,
}

/// The §6.3 predictions, parameterized from the paper's numbers: locks
/// are zero-length and live under 0.4 s; composer temps are under 40 KB
/// and minutes-lived; dot files fit in a few blocks and persist;
/// mailboxes are large and never deleted.
pub fn predicted_profile(cat: FileCategory) -> PredictedProfile {
    use crate::time::{HOUR, MINUTE, SECOND};
    match cat {
        FileCategory::Lock => PredictedProfile {
            max_size: 0,
            max_lifetime: 2 * SECOND,
            expect_deleted: true,
        },
        FileCategory::MailTmp => PredictedProfile {
            max_size: 40 * 1024,
            max_lifetime: 30 * MINUTE,
            expect_deleted: true,
        },
        FileCategory::Dot => PredictedProfile {
            max_size: 32 * 1024,
            max_lifetime: u64::MAX,
            expect_deleted: false,
        },
        FileCategory::Mailbox => PredictedProfile {
            max_size: u64::MAX,
            max_lifetime: u64::MAX,
            expect_deleted: false,
        },
        FileCategory::Applet | FileCategory::EditorTmp => PredictedProfile {
            max_size: 64 * 1024,
            max_lifetime: 12 * HOUR,
            expect_deleted: true,
        },
        FileCategory::BrowserCache => PredictedProfile {
            max_size: 1024 * 1024,
            max_lifetime: u64::MAX,
            expect_deleted: true,
        },
        FileCategory::Object => PredictedProfile {
            max_size: 4 * 1024 * 1024,
            max_lifetime: 12 * HOUR,
            expect_deleted: true,
        },
        FileCategory::Source | FileCategory::Log | FileCategory::Rcs | FileCategory::Other => {
            PredictedProfile {
                max_size: u64::MAX,
                max_lifetime: u64::MAX,
                expect_deleted: false,
            }
        }
    }
}

/// Observed lifecycle of one named file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileObservation {
    /// Creation time, if the create was traced.
    pub created: Option<u64>,
    /// Deletion time, if traced.
    pub deleted: Option<u64>,
    /// Largest size observed.
    pub max_size: u64,
    /// Total read + written bytes.
    pub bytes_moved: u64,
}

impl FileObservation {
    /// Observed lifetime, when both endpoints were traced.
    pub fn lifetime(&self) -> Option<u64> {
        match (self.created, self.deleted) {
            (Some(c), Some(d)) if d >= c => Some(d - c),
            _ => None,
        }
    }
}

/// Per-category accuracy of the name-based predictions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoryStats {
    /// Files observed (created during the trace).
    pub files: u64,
    /// Files both created and deleted during the trace.
    pub created_and_deleted: u64,
    /// Of those, how many had zero observed size.
    pub zero_length: u64,
    /// Files whose observed max size was within the predicted bound.
    pub size_within_prediction: u64,
    /// Files (with measurable lifetime) within the predicted lifetime.
    pub lifetime_within_prediction: u64,
    /// Files with measurable lifetime.
    pub lifetime_measured: u64,
    /// Sorted observed lifetimes in microseconds.
    pub lifetimes: Vec<u64>,
}

impl CategoryStats {
    /// Fraction of size predictions that held.
    pub fn size_accuracy(&self) -> f64 {
        frac(self.size_within_prediction, self.files)
    }

    /// Fraction of lifetime predictions that held.
    pub fn lifetime_accuracy(&self) -> f64 {
        frac(self.lifetime_within_prediction, self.lifetime_measured)
    }

    /// The p-th percentile lifetime (0-100), if measured.
    pub fn lifetime_percentile(&self, p: f64) -> Option<u64> {
        if self.lifetimes.is_empty() {
            return None;
        }
        let idx = ((p / 100.0) * (self.lifetimes.len() - 1) as f64).round() as usize;
        Some(self.lifetimes[idx.min(self.lifetimes.len() - 1)])
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The full §6.3 evaluation over a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NamePredictionReport {
    /// Per-category statistics.
    pub by_category: HashMap<FileCategory, CategoryStats>,
    /// Total files created during the trace.
    pub total_created: u64,
    /// Total files created and deleted during the trace.
    pub total_created_and_deleted: u64,
    /// Renames observed (the paper: "file renames are rare").
    pub renames: u64,
}

impl NamePredictionReport {
    /// Evaluates name-based prediction over time-ordered records.
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut b = NamePredictionBuilder::default();
        let mut names = Hierarchy::default();
        for r in records {
            b.observe(r, names.observe(r));
        }
        b.finish()
    }

    /// Fraction of created-and-deleted files that are locks (the paper:
    /// 96% on CAMPUS, 8% on EECS).
    pub fn lock_fraction_of_churn(&self) -> f64 {
        let locks = self
            .by_category
            .get(&FileCategory::Lock)
            .map_or(0, |s| s.created_and_deleted);
        frac(locks, self.total_created_and_deleted)
    }
}

/// Record-at-a-time accumulator behind
/// [`NamePredictionReport::from_records`]. The fused replay
/// ([`crate::index::TraceView::prepare`]) feeds one alongside the other
/// analyzers, so views that cannot hold the trace in memory (the
/// out-of-core store index) stream it. It keeps no namespace of its own:
/// each record comes with the [`NameChange`] the replay's one
/// [`Hierarchy`] made of it.
#[derive(Debug, Default)]
pub(crate) struct NamePredictionBuilder {
    /// Per-file observations by ordinal, with the category of the name
    /// the file was created under; `None` for a file no CREATE named.
    obs: Vec<Option<(FileCategory, FileObservation)>>,
    report: NamePredictionReport,
}

impl NamePredictionBuilder {
    /// Folds one record in, with what it did to the namespace. Records
    /// must arrive in time order.
    pub(crate) fn observe(&mut self, r: &TraceRecord, change: NameChange) {
        match r.op {
            Op::Create => {
                if let (Some(name), Some((_, child))) = (&r.name, change.bound) {
                    self.report.total_created += 1;
                    slot(&mut self.obs, child).get_or_insert_with(|| {
                        (
                            classify(name),
                            FileObservation {
                                created: Some(r.micros),
                                ..FileObservation::default()
                            },
                        )
                    });
                }
            }
            Op::Remove => {
                if let Some(o) = change.unlinked.and_then(|gone| self.created(gone)) {
                    o.deleted = Some(r.micros);
                }
            }
            Op::Rename => self.report.renames += 1,
            Op::Write | Op::Read => {
                if let Some(o) = self.created(change.file) {
                    o.bytes_moved += u64::from(r.ret_count);
                    let end = r.offset + u64::from(r.ret_count);
                    o.max_size = o.max_size.max(end).max(r.post_size.unwrap_or(0));
                }
            }
            Op::Setattr => {
                if let (Some(sz), Some(o)) = (r.truncate_to, self.created(change.file)) {
                    o.max_size = o.max_size.max(sz);
                }
            }
            _ => {}
        }
    }

    /// The observation of a file a CREATE named.
    fn created(&mut self, file: FileOrd) -> Option<&mut FileObservation> {
        self.obs.get_mut(file as usize)?.as_mut().map(|(_, o)| o)
    }

    /// Folds the per-file observations into category statistics and
    /// returns the report. Files fold in ordinal order, the order the
    /// trace first named them; the fold would not depend on it anyway
    /// (counters are sums, lifetime lists are sorted).
    pub(crate) fn finish(self) -> NamePredictionReport {
        let mut report = self.report;
        for (cat, o) in self.obs.into_iter().flatten() {
            let profile = predicted_profile(cat);
            let stats = report.by_category.entry(cat).or_default();
            stats.files += 1;
            if profile.max_size == u64::MAX || o.max_size <= profile.max_size {
                stats.size_within_prediction += 1;
            }
            if o.deleted.is_some() {
                stats.created_and_deleted += 1;
                report.total_created_and_deleted += 1;
                if o.max_size == 0 {
                    stats.zero_length += 1;
                }
            }
            if let Some(l) = o.lifetime() {
                stats.lifetime_measured += 1;
                stats.lifetimes.push(l);
                if profile.max_lifetime == u64::MAX || l <= profile.max_lifetime {
                    stats.lifetime_within_prediction += 1;
                }
            }
        }
        for stats in report.by_category.values_mut() {
            stats.lifetimes.sort_unstable();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileId;
    use crate::time::SECOND;

    #[test]
    fn classify_paper_examples() {
        assert_eq!(classify("inbox.lock"), FileCategory::Lock);
        assert_eq!(classify("lock.1234"), FileCategory::Lock);
        assert_eq!(classify(".pinerc"), FileCategory::Dot);
        assert_eq!(classify(".cshrc"), FileCategory::Dot);
        assert_eq!(classify(".inbox.lock"), FileCategory::Lock);
        assert_eq!(classify("snd.4821"), FileCategory::MailTmp);
        assert_eq!(classify("pico.9932"), FileCategory::MailTmp);
        assert_eq!(classify("inbox"), FileCategory::Mailbox);
        assert_eq!(classify("mbox"), FileCategory::Mailbox);
        assert_eq!(classify("sent-mail"), FileCategory::Mailbox);
        assert_eq!(classify("Applet_3_Extern"), FileCategory::Applet);
        assert_eq!(classify("cache00412"), FileCategory::BrowserCache);
        assert_eq!(classify("main.c"), FileCategory::Source);
        assert_eq!(classify("main.o"), FileCategory::Object);
        assert_eq!(classify("server.log"), FileCategory::Log);
        assert_eq!(classify("#draft#"), FileCategory::EditorTmp);
        assert_eq!(classify("notes.txt~"), FileCategory::EditorTmp);
        assert_eq!(classify("main.c,v"), FileCategory::Rcs);
        assert_eq!(classify("thesis.pdf"), FileCategory::Other);
        assert_eq!(classify("cachedir"), FileCategory::Other);
    }

    fn create(t: u64, name: &str, child: u64) -> TraceRecord {
        let mut r = TraceRecord::new(t, Op::Create, FileId(1)).with_name(name);
        r.new_fh = Some(FileId(child));
        r
    }

    fn remove(t: u64, name: &str) -> TraceRecord {
        TraceRecord::new(t, Op::Remove, FileId(1)).with_name(name)
    }

    fn write(t: u64, fh: u64, count: u32) -> TraceRecord {
        TraceRecord::new(t, Op::Write, FileId(fh)).with_range(0, count)
    }

    #[test]
    fn lock_lifecycle_is_predicted() {
        let recs = [
            create(0, "inbox.lock", 10),
            remove(SECOND / 4, "inbox.lock"),
        ];
        let rep = NamePredictionReport::from_records(recs.iter());
        let lock = &rep.by_category[&FileCategory::Lock];
        assert_eq!(lock.files, 1);
        assert_eq!(lock.created_and_deleted, 1);
        assert_eq!(lock.zero_length, 1);
        assert_eq!(lock.lifetime_within_prediction, 1);
        assert!((rep.lock_fraction_of_churn() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_mail_tmp_fails_size_prediction() {
        let recs = [
            create(0, "snd.1", 10),
            write(1, 10, 100 * 1024), // 100 KB: beyond the 40 KB bound
            remove(2 * SECOND, "snd.1"),
        ];
        let rep = NamePredictionReport::from_records(recs.iter());
        let tmp = &rep.by_category[&FileCategory::MailTmp];
        assert_eq!(tmp.files, 1);
        assert_eq!(tmp.size_within_prediction, 0);
        assert_eq!(tmp.lifetime_within_prediction, 1);
    }

    #[test]
    fn renames_counted_and_tracked() {
        let mut rn = TraceRecord::new(5, Op::Rename, FileId(1)).with_name("a.lock");
        rn.name2 = Some("b.lock".into());
        let recs = [create(0, "a.lock", 10), rn, remove(10, "b.lock")];
        let rep = NamePredictionReport::from_records(recs.iter());
        assert_eq!(rep.renames, 1);
        // The delete still reaches the file through the rename.
        assert_eq!(rep.by_category[&FileCategory::Lock].created_and_deleted, 1);
    }

    #[test]
    fn an_rmdir_unlinks_a_created_name() {
        let recs = [
            create(0, "a.lock", 10),
            TraceRecord::new(1, Op::Rmdir, FileId(1)).with_name("a.lock"),
            // The name is gone: this REMOVE deletes no file.
            remove(2, "a.lock"),
        ];
        let rep = NamePredictionReport::from_records(recs.iter());
        let lock = &rep.by_category[&FileCategory::Lock];
        assert_eq!(lock.files, 1);
        assert_eq!(lock.created_and_deleted, 0);
    }

    #[test]
    fn lifetime_percentiles() {
        let mut recs = Vec::new();
        for i in 0..100u64 {
            recs.push(create(i * 1000, &format!("l{i}.lock"), 100 + i));
            recs.push(remove(i * 1000 + (i + 1) * 1000, &format!("l{i}.lock")));
        }
        let rep = NamePredictionReport::from_records(recs.iter());
        let lock = &rep.by_category[&FileCategory::Lock];
        assert_eq!(lock.lifetime_measured, 100);
        let p50 = lock.lifetime_percentile(50.0).unwrap();
        let p99 = lock.lifetime_percentile(99.0).unwrap();
        assert!(p50 < p99);
    }

    #[test]
    fn mailbox_never_deleted_prediction() {
        let recs = [create(0, "inbox", 10), write(1, 10, 8192)];
        let rep = NamePredictionReport::from_records(recs.iter());
        let mbox = &rep.by_category[&FileCategory::Mailbox];
        assert_eq!(mbox.files, 1);
        assert_eq!(mbox.created_and_deleted, 0);
        assert_eq!(mbox.size_within_prediction, 1);
    }
}
