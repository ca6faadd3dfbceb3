//! Segment lifecycle: LSM-style compaction and the crash-safe seal
//! protocol it shares with live ingest.
//!
//! A long-running ingest seals thousands of small segments; a
//! multi-month archive queried through a flat list of them pays a
//! footer parse per segment per open and leaves the directory fragile
//! to crash leftovers. This module merges adjacent sealed segments
//! into larger **generation-tagged** segments (see
//! [`crate::segments`]) without ever making a reader choose between
//! torn states.
//!
//! # Compaction
//!
//! [`CompactionPolicy`] picks the first contiguous run of `fan_in`
//! same-generation segments; [`Compactor::compact`] concatenates them
//! — in catalog order, which **is** the k-way time merge, because
//! adjacent segments' time ranges follow each other and concatenation
//! preserves arrival order for equal timestamps where a timestamp
//! re-sort would not — into one output segment.
//!
//! The unit of that concatenation is the **chunk**, not the record.
//! Since the sources are time-consecutive, a source chunk's stored
//! bytes and its footer entry (record count, time range, checksum,
//! [`crate::format::FileIdFilter`]) are valid verbatim in the output;
//! only `offset` changes. So each chunk is read raw and verified
//! against its footer checksum ([`StoreReader::read_chunk_verified`]),
//! then appended as it is ([`StoreWriter::append_chunk`]): nothing is
//! decoded, re-interned, re-compressed or re-filtered, and a corrupt
//! source fails the pass before the commit point instead of being
//! blessed by a fresh footer. A compacted segment therefore keeps its
//! sources' chunk boundaries and filters — chunks may sit below
//! [`StoreConfig::target_chunk_bytes`], exactly as they did in the
//! separate files they came from — and write amplification is bytes
//! copied, not records re-encoded; `store.compaction_chunks_relocated`
//! counts the chunks moved.
//!
//! # Crash safety
//!
//! Every mutation is tmp + rename, ordered so that a kill between any
//! two filesystem steps leaves a directory that
//! [`crate::segments::SegmentCatalog::open_and_sweep`] resolves to
//! exactly the old or the new catalog — never a mix:
//!
//! 1. output bytes → `….nfseg.tmp` (crash: tmp swept, old state)
//! 2. output rename to its sealed name — **the commit point**: from
//!    here the output supersedes its sources by generation
//! 3. source segments removed (crash: survivors are superseded and
//!    swept, new state)
//!
//! [`FaultInjector`] makes the kill points testable: the crash-recovery
//! proptest runs every protocol with a budget of *n* filesystem steps
//! for every possible *n* and reopens after each induced crash.
//!
//! # Who runs it
//!
//! Nothing here spawns or locks: each call runs the protocol to the end
//! on the caller's thread. A live ingest calls it behind its sink — a
//! rotated segment's [`StoreWriter::finish`], [`seal_segment`] and the
//! [`Compactor::compact`] passes the seal made ripe run in that order
//! on one sealing thread per segment, at most one per segment
//! directory at a time — so the on-disk sequence of steps, and every
//! byte written, is the one an inline seal would produce.

use crate::error::{Result, StoreError};
use crate::reader::StoreReader;
use crate::segments::{SegmentCatalog, SegmentId};
use crate::writer::{StoreConfig, StoreWriter};
use nfstrace_telemetry::{Counter, Registry};
use std::path::{Path, PathBuf};

/// Deterministic crash simulation for the seal/compact protocols: a
/// budget of filesystem steps after which every further [`step`]
/// fails, standing in for a kill at that exact point. Production
/// callers pass [`FaultInjector::none`]; the crash-recovery proptest
/// sweeps every budget.
///
/// [`step`]: FaultInjector::step
#[derive(Debug)]
pub struct FaultInjector {
    remaining: Option<u64>,
}

impl FaultInjector {
    /// No injected faults: every step succeeds.
    pub fn none() -> Self {
        FaultInjector { remaining: None }
    }

    /// Crash after `steps` successful filesystem steps.
    pub fn after(steps: u64) -> Self {
        FaultInjector {
            remaining: Some(steps),
        }
    }

    /// Called immediately before each filesystem step of a protocol.
    ///
    /// # Errors
    ///
    /// When the injected budget is exhausted — the simulated kill.
    pub fn step(&mut self) -> Result<()> {
        if let Some(r) = &mut self.remaining {
            if *r == 0 {
                return Err(StoreError::Format(
                    "simulated crash (fault injection)".into(),
                ));
            }
            *r -= 1;
        }
        Ok(())
    }
}

/// The temp path a segment's bytes are staged at before the sealing
/// rename (`seg-000042.nfseg` → `seg-000042.nfseg.tmp` — the suffix
/// the sweeping reopen deletes).
pub fn tmp_path(segment: &Path) -> PathBuf {
    let mut name = segment
        .file_name()
        .expect("segment paths carry file names")
        .to_os_string();
    name.push(".tmp");
    segment.with_file_name(name)
}

/// Seals a fully written temp segment at its final name — the one
/// crash-safe publication protocol shared by live rotation (on its
/// sealing thread) and compaction: one rename, one filesystem step.
///
/// # Errors
///
/// On I/O failure or an injected fault.
pub fn seal_segment(tmp: &Path, dest: &Path, fault: &mut FaultInjector) -> Result<()> {
    fault.step()?;
    std::fs::rename(tmp, dest)?;
    Ok(())
}

/// When to merge: the fan-in of one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// How many adjacent same-generation segments one pass merges
    /// (minimum 2). Classic tiered shape: `fan_in` generation-*g*
    /// segments become one generation-*g+1* segment, which later
    /// cascades with its own peers.
    pub fan_in: usize,
}

impl CompactionPolicy {
    /// The first mergeable run in `ids` (ascending catalog order), as
    /// the generation-bumped output id covering it — `None` when
    /// nothing is ripe. A run is `fan_in` segments of equal generation
    /// whose ordinal ranges are contiguous (no ordinal gap).
    pub fn plan(&self, ids: &[SegmentId]) -> Option<SegmentId> {
        let k = self.fan_in.max(2);
        ids.windows(k).find_map(|w| {
            let uniform = w.iter().all(|id| id.generation == w[0].generation);
            let contiguous = w.windows(2).all(|p| p[0].hi + 1 == p[1].lo);
            (uniform && contiguous).then(|| SegmentId {
                lo: w[0].lo,
                hi: w[k - 1].hi,
                generation: w[0].generation + 1,
            })
        })
    }
}

/// What one compaction pass did: the output id and where it spliced
/// into the catalog — what a live ingest needs to mirror the swap in
/// its in-memory reader chain.
#[derive(Debug)]
pub struct CompactionOutcome {
    /// The generation-bumped segment now covering the sources' range.
    pub output: SegmentId,
    /// `(first index, length)` of the catalog run the output replaced.
    pub replaced: (usize, usize),
}

/// The background merge engine: applies a [`CompactionPolicy`] to a
/// [`SegmentCatalog`], counting passes into `store.compactions` and
/// the source chunks they moved into
/// `store.compaction_chunks_relocated`.
#[derive(Debug)]
pub struct Compactor {
    policy: CompactionPolicy,
    config: StoreConfig,
    compactions: Counter,
    chunks_relocated: Counter,
}

impl Compactor {
    /// A compactor counting into `registry`. Every source chunk is
    /// relocated as it is, boundaries and filters intact, so `config`
    /// (pass the ingest's) shapes nothing in the output: it is only
    /// handed to the [`StoreWriter`] that lays the moved chunks down.
    pub fn new(policy: CompactionPolicy, config: StoreConfig, registry: &Registry) -> Self {
        Compactor {
            policy,
            config,
            compactions: registry.counter("store.compactions"),
            chunks_relocated: registry.counter("store.compaction_chunks_relocated"),
        }
    }

    /// This compactor's policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// One compaction pass merging the catalog run `output` covers,
    /// following the crash-safe protocol in the module docs. On
    /// success the sources are gone from disk and `catalog`, replaced
    /// by the sealed output.
    ///
    /// The merge reads and writes through private registries so a
    /// shared pipeline registry's `store.*` read/write counters keep
    /// describing the query workload, not maintenance; only
    /// `store.compactions` and `store.compaction_chunks_relocated` are
    /// reported, once the pass has committed.
    ///
    /// # Errors
    ///
    /// On I/O failure, an injected fault (the simulated kill — the
    /// directory is then mid-protocol by design and the next
    /// [`SegmentCatalog::open_and_sweep`] resolves it), corrupt source
    /// bytes (a chunk failing its checksum is a [`StoreError::Format`]
    /// before the commit point: sources and catalog stay as they
    /// were).
    ///
    /// # Panics
    ///
    /// If `output` does not cover a non-empty run of whole catalog
    /// entries (plan with [`CompactionPolicy::plan`]).
    pub fn compact(
        &self,
        catalog: &mut SegmentCatalog,
        output: SegmentId,
        fault: &mut FaultInjector,
    ) -> Result<CompactionOutcome> {
        let sources: Vec<SegmentId> = catalog
            .ids()
            .iter()
            .filter(|id| output.contains(id))
            .copied()
            .collect();
        assert!(
            sources.first().is_some_and(|id| id.lo == output.lo)
                && sources.last().is_some_and(|id| id.hi == output.hi),
            "compaction output {} must cover whole catalog entries",
            output.file_name()
        );
        let paths: Vec<PathBuf> = sources.iter().map(|id| catalog.path_of(id)).collect();
        let dest = catalog.path_of(&output);
        let tmp = tmp_path(&dest);
        fault.step()?;
        let mut writer = StoreWriter::create(&tmp, self.config)?;
        let mut relocated = 0u64;
        for path in &paths {
            let reader = StoreReader::open(path)?;
            for ci in 0..reader.chunk_count() {
                writer.append_chunk(reader.read_chunk_verified(ci)?)?;
            }
            relocated += reader.chunk_count() as u64;
        }
        writer.finish()?;
        seal_segment(&tmp, &dest, fault)?;
        // The commit point has passed: the output supersedes the
        // sources whether or not their removal below completes.
        for path in &paths {
            fault.step()?;
            std::fs::remove_file(path)?;
        }
        let replaced = catalog.apply_compaction(output);
        self.compactions.inc();
        self.chunks_relocated.add(relocated);
        Ok(CompactionOutcome { output, replaced })
    }

    /// Runs compaction passes until the policy finds nothing ripe —
    /// the cascade: merged generation-*g+1* outputs can immediately
    /// form a run of their own.
    ///
    /// # Errors
    ///
    /// See [`Compactor::compact`].
    pub fn compact_all(
        &self,
        catalog: &mut SegmentCatalog,
        fault: &mut FaultInjector,
    ) -> Result<Vec<CompactionOutcome>> {
        let mut outcomes = Vec::new();
        while let Some(output) = self.policy.plan(catalog.ids()) {
            outcomes.push(self.compact(catalog, output, fault)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::stream_records;
    use nfstrace_core::record::{FileId, Op, TraceRecord};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nfstrace-compact-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn record(i: u64) -> TraceRecord {
        TraceRecord::new(i * 1000, Op::Read, FileId(i % 5)).with_range(i * 4096, 4096)
    }

    /// Seals `per_seg`-record base segments 0..count into `dir`.
    fn seed_catalog(dir: &Path, count: u64, per_seg: u64) -> SegmentCatalog {
        let mut cat = SegmentCatalog::open(dir).expect("open");
        for s in 0..count {
            let ordinal = cat.next_ordinal();
            let dest = cat.path_for(ordinal);
            let tmp = tmp_path(&dest);
            let mut w = StoreWriter::create(&tmp, StoreConfig::default()).expect("create");
            let base = s * per_seg;
            for i in base..base + per_seg {
                w.push(&record(i)).expect("push");
            }
            w.finish().expect("finish");
            seal_segment(&tmp, &dest, &mut FaultInjector::none()).expect("seal");
            cat.note_sealed(ordinal);
        }
        cat
    }

    fn catalog_records(cat: &SegmentCatalog) -> Vec<TraceRecord> {
        let readers: Vec<Arc<StoreReader>> = cat
            .paths()
            .iter()
            .map(|p| Arc::new(StoreReader::open(p).expect("open")))
            .collect();
        let mut out = Vec::new();
        stream_records(&readers, 0, u64::MAX, &mut |r| out.push(r.clone()));
        out
    }

    #[test]
    fn plan_finds_contiguous_same_generation_runs() {
        let policy = CompactionPolicy { fan_in: 3 };
        let base: Vec<SegmentId> = (0..3).map(SegmentId::base).collect();
        assert_eq!(
            policy.plan(&base),
            Some(SegmentId {
                lo: 0,
                hi: 2,
                generation: 1
            })
        );
        assert_eq!(policy.plan(&base[..2]), None, "too few");
        // An ordinal gap breaks contiguity.
        let gapped = [SegmentId::base(0), SegmentId::base(2), SegmentId::base(3)];
        assert_eq!(policy.plan(&gapped), None);
        // Mixed generations do not merge; a run of equals later does.
        let mixed = [
            SegmentId {
                lo: 0,
                hi: 2,
                generation: 1,
            },
            SegmentId::base(3),
            SegmentId::base(4),
            SegmentId::base(5),
        ];
        assert_eq!(
            policy.plan(&mixed),
            Some(SegmentId {
                lo: 3,
                hi: 5,
                generation: 1
            })
        );
    }

    #[test]
    fn compaction_preserves_the_record_stream() {
        let dir = tmpdir("merge");
        let mut cat = seed_catalog(&dir, 4, 50);
        let before = catalog_records(&cat);
        let reg = Registry::new();
        let compactor =
            Compactor::new(CompactionPolicy { fan_in: 4 }, StoreConfig::default(), &reg);
        let outcomes = compactor
            .compact_all(&mut cat, &mut FaultInjector::none())
            .expect("compact");
        assert_eq!(outcomes.len(), 1);
        assert_eq!(
            outcomes[0].output,
            SegmentId {
                lo: 0,
                hi: 3,
                generation: 1
            }
        );
        assert_eq!(outcomes[0].replaced, (0, 4));
        assert_eq!(reg.counter("store.compactions").value(), 1);
        // The sources move chunk by chunk.
        assert_eq!(reg.counter("store.compaction_chunks_relocated").value(), 4);
        // The sources are gone, and the record stream is unchanged.
        assert_eq!(cat.ids(), &[outcomes[0].output]);
        assert_eq!(catalog_records(&cat), before);
        let reopened = SegmentCatalog::open_and_sweep(&dir).expect("reopen");
        assert_eq!(reopened.ids(), cat.ids());
        assert_eq!(reopened.next_ordinal(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Relocation must not launder corruption: a flipped bit in a
    /// source chunk fails the pass before the commit rename — no
    /// output whose fresh footer would bless the bad bytes — and the
    /// sources and catalog stay exactly as they were.
    #[test]
    fn a_corrupt_source_chunk_fails_compaction_before_the_commit_point() {
        let dir = tmpdir("corrupt");
        let mut cat = seed_catalog(&dir, 3, 50);
        let ids_before = cat.ids().to_vec();
        let victim = cat.path_for(1);
        let mut bytes = std::fs::read(&victim).expect("read");
        let chunk = StoreReader::open(&victim).expect("open").chunks()[0].clone();
        bytes[(chunk.offset + chunk.len / 2) as usize] ^= 0x04;
        std::fs::write(&victim, &bytes).expect("corrupt");

        let reg = Registry::new();
        let compactor =
            Compactor::new(CompactionPolicy { fan_in: 3 }, StoreConfig::default(), &reg);
        let output = compactor.policy().plan(cat.ids()).expect("plan");
        let err = compactor
            .compact(&mut cat, output, &mut FaultInjector::none())
            .expect_err("corrupt source");
        assert!(
            matches!(&err, StoreError::Format(msg) if msg.contains("checksum mismatch")),
            "{err}"
        );
        assert!(!cat.path_of(&output).exists(), "nothing was committed");
        assert_eq!(cat.ids(), ids_before.as_slice());
        for counter in ["store.compactions", "store.compaction_chunks_relocated"] {
            assert_eq!(reg.counter(counter).value(), 0, "{counter}");
        }
        // A sweeping reopen finds the old catalog, the staged output
        // gone; the good segments read, the bad one still reports its
        // corruption.
        let reopened = SegmentCatalog::open_and_sweep(&dir).expect("reopen");
        assert_eq!(reopened.ids(), ids_before.as_slice());
        assert!(!tmp_path(&cat.path_of(&output)).exists(), "tmp swept");
        for id in &ids_before {
            let path = reopened.path_of(id);
            let read = StoreReader::open(&path).expect("open").read_chunk(0);
            if path == victim {
                assert!(matches!(read, Err(StoreError::Format(_))));
            } else {
                assert_eq!(read.expect("intact source").len(), 50);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
