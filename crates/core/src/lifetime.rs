//! Create-based block lifetime analysis (§5.2, Table 4, Figure 3).
//!
//! Following Roselli's create-based method, the trace is processed in two
//! phases. During Phase 1 both block *births* (data writes or file
//! extensions) and *deaths* (overwrites, truncates, file deletions) are
//! recorded; during Phase 2 (the *end margin*) only deaths are recorded.
//! Death records whose lifespan exceeds the Phase 2 length are discarded
//! to remove sampling bias, and every Phase-1-born block without a
//! counted death is *end surplus*.
//!
//! The paper ran five 24-hour Phase 1 windows (weekday 9am starts) each
//! with a 24-hour end margin.
//!
//! REMOVE and RENAME name a file only by directory and name, so deaths
//! by deletion are attributed through the replay's one namespace
//! (`core::hierarchy`'s file table), learned by its rules in every
//! phase; the analyzer reads what each record did to it and keeps no
//! names of its own. The table numbers each file the pass sees with a
//! dense ordinal, so the analyzer's per-file state is a vector indexed
//! by ordinal, and each file's live blocks a vector sorted by block:
//! deaths are recorded in block order without a sort, and the report
//! is a function of the trace.

use crate::hierarchy::{slot, FileOrd, Hierarchy, NameChange};
use crate::record::{Op, TraceRecord};
use crate::runs::BLOCK;

/// Why a block died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeathCause {
    /// Overwritten by a later write.
    Overwrite,
    /// Discarded by a truncating SETATTR (or truncating CREATE).
    Truncate,
    /// The file was removed.
    Delete,
}

/// Phase configuration for one analysis window.
///
/// `Hash` so reports can be cached keyed by their configuration (see
/// [`crate::index::TraceIndex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LifetimeConfig {
    /// Start of Phase 1 (births + deaths recorded).
    pub phase1_start: u64,
    /// Length of Phase 1 in microseconds.
    pub phase1_len: u64,
    /// Length of Phase 2, the end margin (deaths only).
    pub phase2_len: u64,
}

impl LifetimeConfig {
    /// The paper's daily configuration: 24 h phase starting at
    /// `start`, with a 24 h end margin.
    pub fn daily(start: u64) -> Self {
        Self {
            phase1_start: start,
            phase1_len: crate::time::DAY,
            phase2_len: crate::time::DAY,
        }
    }

    fn phase1_end(&self) -> u64 {
        self.phase1_start + self.phase1_len
    }

    fn phase2_end(&self) -> u64 {
        self.phase1_end() + self.phase2_len
    }
}

#[derive(Debug, Clone, Copy)]
struct LiveBlock {
    birth_micros: u64,
    /// Whether the birth fell inside Phase 1 (countable).
    countable: bool,
}

#[derive(Debug, Default)]
struct FileState {
    size: u64,
    /// Live blocks by block number, sorted.
    live: Vec<(u64, LiveBlock)>,
}

impl FileState {
    /// Makes `block` live at block number `b`, returning the block it
    /// replaced.
    fn bear(&mut self, b: u64, block: LiveBlock) -> Option<LiveBlock> {
        match self.live.binary_search_by_key(&b, |&(n, _)| n) {
            Ok(i) => Some(std::mem::replace(&mut self.live[i].1, block)),
            Err(i) => {
                self.live.insert(i, (b, block));
                None
            }
        }
    }
}

/// The outcome of one lifetime analysis window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifetimeReport {
    /// Countable births from data writes.
    pub births_write: u64,
    /// Countable births from file extension.
    pub births_extension: u64,
    /// Counted deaths by overwrite.
    pub deaths_overwrite: u64,
    /// Counted deaths by truncation.
    pub deaths_truncate: u64,
    /// Counted deaths by file deletion.
    pub deaths_delete: u64,
    /// Deaths discarded because the lifespan exceeded Phase 2.
    pub deaths_discarded: u64,
    /// Phase-1 births with no counted death.
    pub end_surplus: u64,
    /// Lifespans (µs) of counted deaths, unsorted.
    pub lifespans: Vec<u64>,
}

impl LifetimeReport {
    /// Total countable births.
    pub fn births_total(&self) -> u64 {
        self.births_write + self.births_extension
    }

    /// Total counted deaths.
    pub fn deaths_total(&self) -> u64 {
        self.deaths_overwrite + self.deaths_truncate + self.deaths_delete
    }

    /// End surplus as a fraction of births (the paper reports 2.1–5.9%
    /// for CAMPUS, 3.5–9.5% for EECS).
    pub fn end_surplus_fraction(&self) -> f64 {
        let b = self.births_total();
        if b == 0 {
            0.0
        } else {
            self.end_surplus as f64 / b as f64
        }
    }

    /// Merges another window's report into this one (the paper sums five
    /// weekday windows for Table 4).
    pub fn merge(&mut self, other: &LifetimeReport) {
        self.births_write += other.births_write;
        self.births_extension += other.births_extension;
        self.deaths_overwrite += other.deaths_overwrite;
        self.deaths_truncate += other.deaths_truncate;
        self.deaths_delete += other.deaths_delete;
        self.deaths_discarded += other.deaths_discarded;
        self.end_surplus += other.end_surplus;
        self.lifespans.extend_from_slice(&other.lifespans);
    }

    /// Cumulative fraction of counted deaths with lifespan ≤ each probe
    /// point (Figure 3's x-axis: 1 s, 30 s, 5 min, 1 h, 1 day).
    pub fn cdf(&self, probes_micros: &[u64]) -> Vec<(u64, f64)> {
        let n = self.lifespans.len() as f64;
        probes_micros
            .iter()
            .map(|&p| {
                let c = self.lifespans.iter().filter(|&&l| l <= p).count() as f64;
                (p, if n == 0.0 { 0.0 } else { c / n })
            })
            .collect()
    }

    /// Median lifespan of counted deaths, if any.
    pub fn median_lifespan(&self) -> Option<u64> {
        if self.lifespans.is_empty() {
            return None;
        }
        let mut v = self.lifespans.clone();
        v.sort_unstable();
        Some(v[v.len() / 2])
    }
}

/// Standard Figure 3 probe points.
pub fn figure3_probes() -> Vec<u64> {
    use crate::time::{DAY, HOUR, MINUTE, SECOND};
    vec![
        SECOND,
        30 * SECOND,
        5 * MINUTE,
        30 * MINUTE,
        HOUR,
        6 * HOUR,
        18 * HOUR,
        DAY,
    ]
}

/// The streaming analyzer. Feed time-ordered records, each with the
/// [`NameChange`] a [`Hierarchy`] made of it, to
/// [`BlockLifetimeAnalyzer::observe`], then call
/// [`BlockLifetimeAnalyzer::finish`]. The fused replay
/// ([`crate::index::TraceView::prepare`]) feeds any number of windows
/// alongside the other analyzers from one namespace — the `repro` suite
/// runs all five weekday windows in one pass this way.
#[derive(Debug)]
pub(crate) struct BlockLifetimeAnalyzer {
    config: LifetimeConfig,
    /// Per-file state by ordinal; `None` for a file not known here.
    files: Vec<Option<FileState>>,
    report: LifetimeReport,
}

impl BlockLifetimeAnalyzer {
    /// Creates an analyzer for one window.
    pub(crate) fn new(config: LifetimeConfig) -> Self {
        Self {
            config,
            files: Vec::new(),
            report: LifetimeReport::default(),
        }
    }

    /// Processes one record and what it did to the namespace. A RENAME
    /// over another file's name deletes that file whenever it happens
    /// (after Phase 2, its Phase-1-born blocks end as surplus); every
    /// other record outside the two phases is ignored. Inside them, a
    /// REMOVE deletes the file it unlinked, a CREATE deletes the file
    /// whose name it took and truncates the file it bound to 0 (a failed
    /// CREATE binds nothing and changes nothing), and a WRITE that moves
    /// no bytes changes nothing.
    pub(crate) fn observe(&mut self, r: &TraceRecord, change: NameChange) {
        if r.op == Op::Rename {
            if let Some(old) = change.unlinked {
                self.kill_file(old, r.micros, DeathCause::Delete);
            }
        }
        if r.micros < self.config.phase1_start || r.micros >= self.config.phase2_end() {
            return;
        }
        match r.op {
            Op::Write if r.ret_count.max(r.count) > 0 => self.on_write(r, change.file),
            Op::Setattr => {
                if let Some(target) = r.truncate_to {
                    self.on_truncate(change.file, target, r.micros);
                }
            }
            Op::Create | Op::Remove => {
                if let Some(gone) = change.unlinked {
                    self.kill_file(gone, r.micros, DeathCause::Delete);
                }
                if let Some((_, created)) = change.bound {
                    // Known from here on, at size 0: its blocks die.
                    self.on_truncate(created, 0, r.micros);
                    slot(&mut self.files, created).get_or_insert_with(FileState::default);
                }
            }
            _ => {}
        }
    }

    fn on_write(&mut self, r: &TraceRecord, file: FileOrd) {
        let now = r.micros;
        let count = r.ret_count.max(r.count);
        let state = slot(&mut self.files, file).get_or_insert_with(FileState::default);
        // Seed size from WCC pre-op attributes when this is the first
        // sighting of the file.
        if state.size == 0 && state.live.is_empty() {
            if let Some(pre) = r.pre_size {
                state.size = pre;
            }
        }
        let in_phase1 = now < self.config.phase1_end();

        // Extension births: blocks between old EOF and the write start.
        if r.offset > state.size {
            let first = state.size.div_ceil(BLOCK);
            let last = r.offset / BLOCK;
            for b in first..last {
                state.bear(
                    b,
                    LiveBlock {
                        birth_micros: now,
                        countable: in_phase1,
                    },
                );
                if in_phase1 {
                    self.report.births_extension += 1;
                }
            }
        }

        // Written blocks: overwrite deaths then births.
        let start = r.offset / BLOCK;
        let end = (r.offset + u64::from(count)).div_ceil(BLOCK);
        for b in start..end {
            let born = LiveBlock {
                birth_micros: now,
                countable: in_phase1,
            };
            if let Some(old) = state.bear(b, born) {
                record_death(
                    &mut self.report,
                    &self.config,
                    old,
                    now,
                    DeathCause::Overwrite,
                );
            }
            if in_phase1 {
                self.report.births_write += 1;
            }
        }
        state.size = state.size.max(r.offset + u64::from(count));
    }

    fn on_truncate(&mut self, file: FileOrd, target: u64, now: u64) {
        let Some(Some(state)) = self.files.get_mut(file as usize) else {
            return;
        };
        if target < state.size {
            let first_dead = target.div_ceil(BLOCK);
            let cut = state.live.partition_point(|&(b, _)| b < first_dead);
            for (_, old) in state.live.drain(cut..) {
                record_death(
                    &mut self.report,
                    &self.config,
                    old,
                    now,
                    DeathCause::Truncate,
                );
            }
        }
        state.size = target;
    }

    fn kill_file(&mut self, file: FileOrd, now: u64, cause: DeathCause) {
        if let Some(state) = self.files.get_mut(file as usize).and_then(Option::take) {
            for (_, old) in state.live {
                record_death(&mut self.report, &self.config, old, now, cause);
            }
        }
    }

    /// Ends the analysis: every still-live countable block becomes end
    /// surplus. Returns the report.
    pub(crate) fn finish(mut self) -> LifetimeReport {
        for state in self.files.iter().flatten() {
            self.report.end_surplus +=
                state.live.iter().filter(|(_, b)| b.countable).count() as u64;
        }
        self.report
    }
}

fn record_death(
    report: &mut LifetimeReport,
    config: &LifetimeConfig,
    block: LiveBlock,
    now: u64,
    cause: DeathCause,
) {
    if !block.countable {
        return;
    }
    if now >= config.phase2_end() {
        // No death is recorded past the end margin (only a RENAME kills
        // there): the block is end surplus, like any other without one.
        report.end_surplus += 1;
        return;
    }
    let lifespan = now.saturating_sub(block.birth_micros);
    if lifespan > config.phase2_len {
        // Sampling-bias removal: counted as end surplus instead.
        report.deaths_discarded += 1;
        report.end_surplus += 1;
        return;
    }
    match cause {
        DeathCause::Overwrite => report.deaths_overwrite += 1,
        DeathCause::Truncate => report.deaths_truncate += 1,
        DeathCause::Delete => report.deaths_delete += 1,
    }
    report.lifespans.push(lifespan);
}

/// Runs a full windowed analysis over time-ordered records.
pub fn analyze<'a, I>(records: I, config: LifetimeConfig) -> LifetimeReport
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut a = BlockLifetimeAnalyzer::new(config);
    let mut names = Hierarchy::default();
    for r in records {
        a.observe(r, names.observe(r));
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FileId;
    use crate::time::{DAY, HOUR, SECOND};

    fn cfg() -> LifetimeConfig {
        LifetimeConfig {
            phase1_start: 0,
            phase1_len: DAY,
            phase2_len: DAY,
        }
    }

    fn write(t: u64, fh: u64, off: u64, cnt: u32) -> TraceRecord {
        TraceRecord::new(t, Op::Write, FileId(fh)).with_range(off, cnt)
    }

    fn create(t: u64, dir: u64, name: &str, child: u64) -> TraceRecord {
        let mut r = TraceRecord::new(t, Op::Create, FileId(dir)).with_name(name);
        r.new_fh = Some(FileId(child));
        r
    }

    fn remove(t: u64, dir: u64, name: &str) -> TraceRecord {
        TraceRecord::new(t, Op::Remove, FileId(dir)).with_name(name)
    }

    #[test]
    fn overwrite_death_and_lifespan() {
        let recs = [
            write(0, 1, 0, BLOCK as u32),
            write(10 * SECOND, 1, 0, BLOCK as u32),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.births_write, 2);
        assert_eq!(rep.deaths_overwrite, 1);
        assert_eq!(rep.lifespans, vec![10 * SECOND]);
        // The overwriting block itself survives.
        assert_eq!(rep.end_surplus, 1);
    }

    #[test]
    fn extension_births_counted() {
        // Write at offset 4 blocks into an empty file: blocks 0-3 born by
        // extension, block 4 by write.
        let recs = [write(0, 1, 4 * BLOCK, BLOCK as u32)];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.births_extension, 4);
        assert_eq!(rep.births_write, 1);
    }

    #[test]
    fn a_zero_length_write_births_nothing() {
        // A 0-byte WRITE at block 4 of an empty file, then a one-block
        // WRITE at block 8: blocks 0-7 born by extension, block 8 by
        // write, each once.
        let recs = [
            write(0, 1, 4 * BLOCK, 0),
            write(HOUR, 1, 8 * BLOCK, BLOCK as u32),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.births_extension, 8);
        assert_eq!(rep.births_write, 1);
        assert_eq!(rep.births_total(), 9);
        assert_eq!(rep.deaths_total(), 0);
        assert_eq!(rep.end_surplus, 9);
    }

    #[test]
    fn truncate_deaths() {
        let recs = [write(0, 1, 0, (4 * BLOCK) as u32), {
            let mut r = TraceRecord::new(HOUR, Op::Setattr, FileId(1));
            r.truncate_to = Some(0);
            r
        }];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_truncate, 4);
        assert_eq!(rep.end_surplus, 0);
    }

    #[test]
    fn delete_deaths_via_name_resolution() {
        let recs = [
            create(0, 99, "scratch", 7),
            write(1, 7, 0, (2 * BLOCK) as u32),
            remove(2 * SECOND, 99, "scratch"),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_delete, 2);
        assert_eq!(rep.births_write, 2);
        assert_eq!(rep.end_surplus, 0);
    }

    #[test]
    fn phase2_births_not_counted_but_deaths_are() {
        let recs = [
            write(DAY - SECOND, 1, 0, BLOCK as u32), // phase-1 birth
            write(DAY + HOUR, 1, 0, BLOCK as u32),   // phase-2: kills it
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.births_write, 1);
        assert_eq!(rep.deaths_overwrite, 1);
        // The phase-2-born block is not surplus (not countable).
        assert_eq!(rep.end_surplus, 0);
    }

    #[test]
    fn long_lifespan_discarded_as_surplus() {
        let mut c = cfg();
        c.phase2_len = HOUR; // short end margin
        let recs = [
            write(0, 1, 0, BLOCK as u32),
            // Death at phase1_end + 30min, lifespan ≈ 24.5h > 1h margin.
            write(DAY + HOUR / 2, 1, 0, BLOCK as u32),
        ];
        let rep = analyze(recs.iter(), c);
        assert_eq!(rep.deaths_overwrite, 0);
        assert_eq!(rep.deaths_discarded, 1);
        assert_eq!(rep.end_surplus, 1);
    }

    #[test]
    fn events_after_phase2_ignored() {
        let recs = [
            write(0, 1, 0, BLOCK as u32),
            write(3 * DAY, 1, 0, BLOCK as u32),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_total(), 0);
        assert_eq!(rep.end_surplus, 1);
    }

    #[test]
    fn rename_over_existing_deletes_target() {
        let recs = [
            create(0, 99, "mbox", 7),
            write(1, 7, 0, BLOCK as u32),
            create(2, 99, "mbox.tmp", 8),
            write(3, 8, 0, BLOCK as u32),
            {
                let mut r = TraceRecord::new(SECOND, Op::Rename, FileId(99)).with_name("mbox.tmp");
                r.name2 = Some("mbox".into());
                r.fh2 = Some(FileId(99));
                r
            },
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_delete, 1); // old mbox block
        assert_eq!(rep.end_surplus, 1); // the renamed file's block lives
    }

    #[test]
    fn a_rename_over_a_file_after_the_end_margin_leaves_its_blocks_surplus() {
        let recs = [
            create(0, 99, "mbox", 7),
            write(1, 7, 0, BLOCK as u32),
            create(3 * DAY, 99, "mbox.tmp", 8),
            {
                let mut r = TraceRecord::new(3 * DAY, Op::Rename, FileId(99)).with_name("mbox.tmp");
                r.name2 = Some("mbox".into());
                r
            },
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.births_total(), 1);
        assert_eq!(rep.deaths_total(), 0);
        assert_eq!(rep.deaths_discarded, 0);
        assert_eq!(rep.end_surplus, 1);
    }

    #[test]
    fn a_remove_outside_the_phases_unlinks_the_name() {
        let mut c = cfg();
        c.phase1_start = HOUR;
        let recs = [
            create(0, 99, "f", 7),
            remove(1, 99, "f"),
            write(HOUR, 7, 0, (2 * BLOCK) as u32),
            // The name is gone: this REMOVE reaches no file.
            remove(HOUR + SECOND, 99, "f"),
        ];
        let rep = analyze(recs.iter(), c);
        assert_eq!(rep.deaths_delete, 0);
        assert_eq!(rep.end_surplus, 2);
    }

    #[test]
    fn an_rmdir_unlinks_the_name() {
        let recs = [
            create(0, 99, "f", 7),
            write(1, 7, 0, (2 * BLOCK) as u32),
            TraceRecord::new(2, Op::Rmdir, FileId(99)).with_name("f"),
            remove(3, 99, "f"),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_delete, 0);
        assert_eq!(rep.end_surplus, 2);
    }

    #[test]
    fn a_failed_create_changes_nothing() {
        let recs = [
            create(0, 99, "inbox.lock", 7),
            write(1, 7, 0, (2 * BLOCK) as u32),
            // An exclusive create of the held name fails: no new handle.
            TraceRecord::new(2, Op::Create, FileId(99)).with_name("inbox.lock"),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_total(), 0);
        assert_eq!(rep.end_surplus, 2);
    }

    #[test]
    fn a_create_over_another_files_name_deletes_it() {
        let recs = [
            create(0, 99, "draft", 7),
            write(1, 7, 0, (2 * BLOCK) as u32),
            create(SECOND, 99, "draft", 8),
        ];
        let rep = analyze(recs.iter(), cfg());
        assert_eq!(rep.deaths_delete, 2);
        assert_eq!(rep.lifespans, vec![SECOND - 1; 2]);
        assert_eq!(rep.end_surplus, 0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let recs = [
            write(0, 1, 0, BLOCK as u32),
            write(SECOND / 2, 1, 0, BLOCK as u32),
            write(10 * SECOND, 1, 0, BLOCK as u32),
            write(20 * crate::time::MINUTE, 1, 0, BLOCK as u32),
        ];
        let rep = analyze(recs.iter(), cfg());
        let cdf = rep.cdf(&figure3_probes());
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Lifespans: 0.5 s, 9.5 s, ~20 min; the median is the middle one.
        assert_eq!(rep.median_lifespan(), Some(9_500_000));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = analyze(
            [
                write(0, 1, 0, BLOCK as u32),
                write(1000, 1, 0, BLOCK as u32),
            ]
            .iter(),
            cfg(),
        );
        let b = analyze(
            [
                write(0, 2, 0, BLOCK as u32),
                write(1000, 2, 0, BLOCK as u32),
            ]
            .iter(),
            cfg(),
        );
        a.merge(&b);
        assert_eq!(a.births_write, 4);
        assert_eq!(a.deaths_overwrite, 2);
        assert_eq!(a.lifespans.len(), 2);
    }

    #[test]
    fn pre_size_seeds_extension_accounting() {
        // WCC says the file was 2 blocks; a write at block 5 extends by 3.
        let mut w = write(0, 1, 5 * BLOCK, BLOCK as u32);
        w.pre_size = Some(2 * BLOCK);
        let rep = analyze(std::iter::once(&w), cfg());
        assert_eq!(rep.births_extension, 3);
        assert_eq!(rep.births_write, 1);
    }
}
