//! The EECS research workload (§3.1, §6.1.1).
//!
//! A departmental home-directory filer serving single-user workstations.
//! The traffic signature the paper reports, reproduced mechanistically:
//!
//! - **metadata dominance**: clients continually revalidate cached
//!   dot files, desktop state, and web caches (getattr/lookup/access);
//! - **writes outnumber reads**: each workstation has one user, so its
//!   cache rarely suffers foreign invalidation — reads are absorbed,
//!   while builds, logs, browser caches, editor saves, and nightly cron
//!   jobs all push writes to the server;
//! - **fast block death**: build logs and index files are rewritten "in
//!   an unbuffered manner", overwriting the same tail blocks within a
//!   second; `make clean`, browser-cache turnover, and
//!   `Applet_*_Extern` churn (≈10,000 deletions/day) add deletes;
//! - **no inboxes**: mail lives on other servers; only composer
//!   temporaries appear.
//!
//! Generation is sharded per user: each workstation is simulated
//! independently against its own filesystem replica (disjoint inode
//! base, per-user `crate::driver::user_seed`) and the streams merged
//! by timestamp, so the trace is bit-identical for any
//! `NFSTRACE_THREADS` worker count. The only cross-user state — the
//! shared project datasets rewritten nightly — is driven by a refresh
//! schedule precomputed from the base seed: every replica holds the
//! shared files at the same fixed inode ids and applies every refresh
//! to its replica (so everyone's cached copies go stale on schedule),
//! but only the owning user's shard emits the refresh's NFS calls into
//! the merged trace.

use crate::convert::append_records;
use crate::driver::{exp_gap, flip, lognormal, pick, user_first_xid, user_seed, EventQueue};
use crate::rate::DiurnalRate;
use crate::sliced::{SlicedWorkload, UserSim, SLICE_MICROS};
use nfstrace_client::{CacheConfig, ClientConfig, ClientMachine};
use nfstrace_core::record::TraceRecord;
use nfstrace_fssim::NfsServer;
use nfstrace_nfs::fh::FileHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tunable parameters of the EECS model.
#[derive(Debug, Clone, PartialEq)]
pub struct EecsConfig {
    /// Research users, each with a dedicated workstation.
    pub users: usize,
    /// Simulated duration in microseconds.
    pub duration_micros: u64,
    /// RNG seed.
    pub seed: u64,
    /// Desktop revalidation ticks per user per day (each a burst of
    /// attribute calls plus occasional Applet churn).
    pub ticks_per_user_day: f64,
    /// Software builds per user per day.
    pub builds_per_user_day: f64,
    /// Web-browsing sessions per user per day.
    pub browse_per_user_day: f64,
    /// Editor save bursts per user per day.
    pub saves_per_user_day: f64,
    /// Fraction of workstations still speaking NFSv2.
    pub v2_fraction: f64,
    /// Nightly cron data-processing jobs per user per day.
    pub cron_jobs_per_user_day: f64,
    /// Reads of shared project datasets per user per day. Shared files
    /// are rewritten by cron jobs, so these reads periodically go cold —
    /// the research-data read traffic of the RES-style workload.
    pub shared_reads_per_user_day: f64,
    /// Number of shared dataset files (scaled to the population).
    pub shared_files: usize,
    /// Diurnal shape (research hours, busier evenings than CAMPUS).
    pub rate: DiurnalRate,
}

impl Default for EecsConfig {
    fn default() -> Self {
        EecsConfig {
            users: 24,
            duration_micros: nfstrace_core::time::DAY,
            seed: 1789,
            ticks_per_user_day: 1600.0,
            builds_per_user_day: 8.0,
            browse_per_user_day: 6.0,
            saves_per_user_day: 40.0,
            v2_fraction: 0.3,
            cron_jobs_per_user_day: 0.7,
            shared_reads_per_user_day: 28.0,
            shared_files: 12,
            rate: DiurnalRate {
                night_floor: 0.15,
                day_peak: 1.0,
                weekend_factor: 0.5,
            },
        }
    }
}

#[derive(Debug)]
struct Workstation {
    machine: ClientMachine,
    home: FileHandle,
    project: FileHandle,
    cache_dir: FileHandle,
    sources: Vec<(String, FileHandle)>,
    dotfiles: Vec<FileHandle>,
    log: FileHandle,
    data_file: FileHandle,
    /// Monotone counters for unique names.
    applet_seq: u32,
    cache_seq: u32,
    tmp_seq: u32,
    /// Live browser-cache file names (FIFO eviction).
    cache_files: Vec<String>,
    /// Live Applet file name, if any.
    applet: Option<String>,
    /// Object files present from the last build.
    objects: Vec<String>,
    /// Shared dataset files everyone may read.
    shared: Vec<FileHandle>,
    /// Rotating cron output names: the newest is kept, older deleted.
    cron_outputs: Vec<String>,
    cron_seq: u32,
}

#[derive(Debug)]
enum Ev {
    Tick,
    Build,
    Browse,
    Save,
    Cron,
    SharedRead,
    Refresh { dataset: usize, owned: bool },
}

/// One entry of the precomputed shared-dataset refresh schedule.
#[derive(Debug, Clone, Copy)]
struct Refresh {
    /// When the nightly job rewrites the dataset.
    micros: u64,
    /// Which shared dataset is rewritten.
    dataset: usize,
    /// Whose workstation runs the job (that shard emits the records).
    owner: usize,
}

/// Fixed inode base for the shared datasets: identical in every user's
/// filesystem replica, so the merged trace sees one id per dataset.
/// Public so tests can tell shared-dataset ids (`base..2 * base`) from
/// per-user ids (`(u + 2) << 32` and up).
pub const SHARED_INODE_BASE: u64 = 1 << 32;

/// The EECS generator.
#[derive(Debug, Clone)]
pub struct EecsWorkload {
    /// The configuration used.
    pub config: EecsConfig,
}

/// The cross-user state shared by every EECS user simulation: the
/// shared dataset sizes and the precomputed nightly refresh schedule,
/// both derived from the base seed before any shard starts.
///
/// Build it once with [`EecsWorkload::sim_seed`] and hand it to every
/// [`EecsWorkload::user_sim`] call.
#[derive(Debug, Clone)]
pub(crate) struct EecsSimSeed {
    shared_sizes: std::sync::Arc<Vec<u32>>,
    schedule: std::sync::Arc<Vec<Refresh>>,
}

impl EecsWorkload {
    /// Creates a generator.
    pub fn new(config: EecsConfig) -> Self {
        Self { config }
    }

    /// Runs the simulation and returns time-sorted trace records.
    ///
    /// Users are sharded across `NFSTRACE_THREADS` worker threads (see
    /// [`nfstrace_core::parallel::threads`]); the output is
    /// bit-identical for any worker count.
    pub fn generate(&self) -> Vec<TraceRecord> {
        self.generate_with_threads(nfstrace_core::parallel::threads())
    }

    /// [`EecsWorkload::generate`] with an explicit worker count.
    pub fn generate_with_threads(&self, threads: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        nfstrace_core::sink::into_ok(self.generate_into(threads, &mut out));
        out
    }

    /// Streams the merged trace straight into `sink` — a `Vec`, an
    /// on-disk store writer, a partial index — one [`SLICE_MICROS`]
    /// slice at a time, so only a slice of records is ever resident.
    /// The record sequence is [`EecsWorkload::generate`]'s for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates the sink's error (infallible for `Vec<TraceRecord>`).
    pub fn generate_into<S: nfstrace_core::sink::RecordSink>(
        &self,
        threads: usize,
        sink: &mut S,
    ) -> Result<(), S::Err> {
        SlicedWorkload::eecs(self.config.clone(), SLICE_MICROS, threads).run_into(sink)
    }

    /// Precomputes the cross-user state every shard needs. Everything
    /// here is derived from the base seed before the shards start:
    /// shared dataset sizes and the nightly refresh schedule are
    /// identical in every replica.
    pub(crate) fn sim_seed(&self) -> EecsSimSeed {
        let cfg = &self.config;
        let mut srng = StdRng::seed_from_u64(cfg.seed ^ 0x5AED_CAFE);
        let shared_sizes: Vec<u32> = (0..cfg.shared_files.max(1))
            .map(|_| (lognormal(&mut srng, 250_000.0, 0.8) as u32).clamp(40_000, 1_000_000))
            .collect();
        let schedule = self.refresh_schedule(&mut srng, shared_sizes.len());
        EecsSimSeed {
            shared_sizes: std::sync::Arc::new(shared_sizes),
            schedule: std::sync::Arc::new(schedule),
        }
    }

    /// Precomputes the nightly shared-dataset refreshes. Rate matches
    /// the per-user cron model this schedule replaced: each user's
    /// nightly data job refreshes one dataset about half the nights.
    fn refresh_schedule(&self, rng: &mut StdRng, n_datasets: usize) -> Vec<Refresh> {
        use nfstrace_core::time::{DAY, HOUR};
        let cfg = &self.config;
        let p = (cfg.cron_jobs_per_user_day * 0.49).clamp(0.0, 1.0);
        let nights = cfg.duration_micros / DAY + 1;
        let mut out = Vec::new();
        for night in 0..nights {
            for owner in 0..cfg.users {
                if flip(rng, p) {
                    out.push(Refresh {
                        micros: night * DAY + 2 * HOUR + pick(rng, 0, 2 * HOUR),
                        dataset: pick(rng, 0, n_datasets as u64) as usize,
                        owner,
                    });
                }
            }
        }
        out
    }

    /// Builds workstation `u`'s resident simulation, positioned at time
    /// zero. Same contract as [`crate::CampusWorkload::user_sim`]:
    /// deterministic given `(config, seed, u)`, and its stream does not
    /// depend on how the run is sliced.
    pub(crate) fn user_sim(&self, u: usize, seed: &EecsSimSeed) -> EecsUserSim {
        let shared_sizes: &[u32] = &seed.shared_sizes;
        let schedule: &[Refresh] = &seed.schedule;
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(user_seed(cfg.seed, u));
        let mut server = NfsServer::new(0x0a02_0002);
        let root = server.fs_mut().root();

        // Shared project datasets, rewritten nightly and read by anyone.
        // Pinned to a fixed inode base so every replica agrees on ids.
        server.fs_mut().set_next_id(SHARED_INODE_BASE);
        let shared_dir = server.fs_mut().mkdir(root, "shared", 0, 200, 0).unwrap();
        let mut shared = Vec::new();
        for (i, &sz) in shared_sizes.iter().enumerate() {
            let (fh, _) = server
                .fs_mut()
                .create(shared_dir, &format!("dataset{i:02}.dat"), 0, 200, 0)
                .unwrap();
            server.fs_mut().write(fh, 0, sz, 0).unwrap();
            shared.push(FileHandle::from_u64(fh));
        }
        // This user's files live above a disjoint per-user base.
        server.fs_mut().set_next_id((u as u64 + 2) << 32);

        let station = {
            let home = server
                .fs_mut()
                .mkdir(root, &format!("res{u:03}"), u as u32, 200, 0)
                .unwrap();
            let project = server
                .fs_mut()
                .mkdir(home, "project", u as u32, 200, 0)
                .unwrap();
            let cache_dir = server
                .fs_mut()
                .mkdir(home, ".browser-cache", u as u32, 200, 0)
                .unwrap();
            let mut sources = Vec::new();
            for s in 0..pick(&mut rng, 12, 30) {
                let name = format!("mod{s:02}.c");
                let (fh, _) = server
                    .fs_mut()
                    .create(project, &name, u as u32, 200, 0)
                    .unwrap();
                server
                    .fs_mut()
                    .write(
                        fh,
                        0,
                        (lognormal(&mut rng, 6_000.0, 0.9) as u32).clamp(500, 80_000),
                        0,
                    )
                    .unwrap();
                sources.push((name, FileHandle::from_u64(fh)));
            }
            let mut dotfiles = Vec::new();
            for d in [".cshrc", ".xsession", ".emacs", ".netscape-prefs"] {
                let (fh, _) = server.fs_mut().create(home, d, u as u32, 200, 0).unwrap();
                server
                    .fs_mut()
                    .write(fh, 0, pick(&mut rng, 400, 8_000) as u32, 0)
                    .unwrap();
                dotfiles.push(FileHandle::from_u64(fh));
            }
            let (log, _) = server
                .fs_mut()
                .create(project, "build.log", u as u32, 200, 0)
                .unwrap();
            let (data_file, _) = server
                .fs_mut()
                .create(home, "results.dat", u as u32, 200, 0)
                .unwrap();
            server
                .fs_mut()
                .write(
                    data_file,
                    0,
                    (lognormal(&mut rng, 1_500_000.0, 0.8) as u32).clamp(384 << 10, 6 << 20),
                    0,
                )
                .unwrap();

            // Protocol mix: the first `v2_fraction` of workstations
            // still speak NFSv2 — a deterministic assignment, so the
            // mix survives sharding at any population size.
            let vers = if ((u as f64) + 0.5) / (cfg.users as f64) <= cfg.v2_fraction {
                2
            } else {
                3
            };
            let machine = ClientMachine::new(ClientConfig {
                ip: 0x0a02_0100 + u as u32,
                uid: u as u32,
                gid: 200,
                vers,
                nfsiods: 4,
                rsize: 8192,
                wsize: 8192,
                cache: CacheConfig {
                    attr_timeout_micros: 15_000_000,
                    capacity_blocks: 16 * 1024,
                },
                meta_latency_micros: 150,
                server_latency_micros: 250,
                seed: user_seed(cfg.seed, u) ^ 0x77,
                first_xid: user_first_xid(cfg.seed, u),
            });
            Workstation {
                machine,
                home: FileHandle::from_u64(home),
                project: FileHandle::from_u64(project),
                cache_dir: FileHandle::from_u64(cache_dir),
                sources,
                dotfiles,
                log: FileHandle::from_u64(log),
                data_file: FileHandle::from_u64(data_file),
                applet_seq: 0,
                cache_seq: 0,
                tmp_seq: 0,
                cache_files: Vec::new(),
                applet: None,
                objects: Vec::new(),
                shared,
                cron_outputs: Vec::new(),
                cron_seq: 0,
            }
        };
        let w = station;

        let day = nfstrace_core::time::DAY as f64;
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(exp_gap(&mut rng, day / cfg.ticks_per_user_day), Ev::Tick);
        q.push(exp_gap(&mut rng, day / cfg.builds_per_user_day), Ev::Build);
        q.push(exp_gap(&mut rng, day / cfg.browse_per_user_day), Ev::Browse);
        q.push(exp_gap(&mut rng, day / cfg.saves_per_user_day), Ev::Save);
        q.push(self.next_cron(&mut rng, 0), Ev::Cron);
        q.push(
            exp_gap(&mut rng, day / cfg.shared_reads_per_user_day),
            Ev::SharedRead,
        );
        // The department's refresh schedule: every replica replays every
        // refresh (keeping everyone's cached copies on the same
        // staleness clock), but only the owner's shard emits records.
        for r in schedule {
            q.push(
                r.micros,
                Ev::Refresh {
                    dataset: r.dataset,
                    owned: r.owner == u,
                },
            );
        }

        EecsUserSim {
            wl: self.clone(),
            shared_sizes: std::sync::Arc::clone(&seed.shared_sizes),
            server,
            w,
            rng,
            q,
        }
    }

    /// Next cron firing: clustered in the small hours of the night.
    /// The first night counts too — at the Sunday-midnight epoch the
    /// coming 2–4am window is still ahead, so single-day simulations
    /// see their nightly jobs.
    fn next_cron(&self, rng: &mut StdRng, now: u64) -> u64 {
        use nfstrace_core::time::{DAY, HOUR};
        let jobs = self.config.cron_jobs_per_user_day.max(0.01);
        let skip_days = (exp_gap(rng, DAY as f64 / jobs) / DAY).min(6);
        // At most one firing per night per chain: once `now` has reached
        // tonight's window start, the earliest candidate is tomorrow's.
        let night_start = (now / DAY) * DAY + 2 * HOUR;
        let base_night = if now < night_start {
            night_start
        } else {
            night_start + DAY
        };
        base_night + skip_days * DAY + pick(rng, 0, 2 * HOUR)
    }

    /// A burst of cache-revalidation metadata, with occasional window-
    /// manager Applet churn.
    fn desktop_tick(server: &mut NfsServer, w: &mut Workstation, rng: &mut StdRng, t: u64) {
        let mut now = t;
        // Revalidate a few dotfiles: getattr (+ access on v3), with an
        // occasional fresh lookup when the name-cache entry expired.
        let burst = pick(rng, 2, 7) as usize;
        for i in 0..burst {
            let fh = w.dotfiles[(i + t as usize) % w.dotfiles.len()].clone();
            let (_, t2) = w.machine.getattr(server, now, &fh);
            now = t2;
            if flip(rng, 0.4) {
                now = w.machine.access(server, now, &fh);
            }
        }
        if flip(rng, 0.5) {
            let home = w.home.clone();
            let (_, t2) = w.machine.lookup(server, now, &home, ".xsession");
            now = t2;
        }
        if flip(rng, 0.25) {
            now = w.machine.readdir(server, now, &w.home.clone());
        }
        // Applet files: create the new one, delete the old (§5.2.2's
        // ~10,000 Applet_*_Extern deletions per day).
        if flip(rng, 0.5) {
            let old = w.applet.take();
            let name = format!("Applet_{}_Extern", w.applet_seq);
            w.applet_seq += 1;
            let home = w.home.clone();
            let (fh, t2) = w.machine.create(server, now, &home, &name);
            now = t2;
            if let Some(fh) = fh {
                now = w.machine.write(server, now, &fh, 0, pick(rng, 100, 2_000));
            }
            if let Some(old_name) = old {
                now = w.machine.remove(server, now, &home, &old_name);
            }
            w.applet = Some(name);
        }
        let _ = now;
    }

    /// A software build: read sources, write objects and a chattering
    /// log, link a binary, sometimes clean up.
    fn build(server: &mut NfsServer, w: &mut Workstation, rng: &mut StdRng, t: u64) {
        let mut now = t;
        let project = w.project.clone();
        let log = w.log.clone();
        // Reset the log (truncate: the "index/log file" overwrite site).
        now = w.machine.truncate(server, now, &log, 0);
        let n_modules = pick(rng, 3, w.sources.len() as u64) as usize;
        let mut log_off = 0u64;
        for m in 0..n_modules {
            let (src_name, src_fh) = w.sources[m].clone();
            // Source read: absorbed when cached, getattr otherwise.
            now = w.machine.read_file(server, now, &src_fh);
            // Object file: create (truncates any previous) + write.
            let obj = src_name.replace(".c", ".o");
            let (ofh, t2) = w.machine.create(server, now, &project, &obj);
            now = t2;
            if let Some(ofh) = ofh {
                let osz = (lognormal(rng, 15_000.0, 0.8) as u64).clamp(1_000, 300_000);
                now = w.machine.write(server, now, &ofh, 0, osz);
            }
            if !w.objects.contains(&obj) {
                w.objects.push(obj);
            }
            // Unbuffered compiler chatter: many small appends landing in
            // the same 8 KB tail block — sub-second overwrite deaths
            // ("log or index files that are written frequently and in an
            // unbuffered manner", §5.2.3).
            for _ in 0..pick(rng, 10, 24) {
                let n = pick(rng, 60, 400);
                now = w
                    .machine
                    .write(server, now + pick(rng, 20_000, 120_000), &log, log_off, n);
                log_off += n;
            }
        }
        // Link the binary.
        let (bfh, t2) = w.machine.create(server, now, &project, "a.out");
        now = t2;
        if let Some(bfh) = bfh {
            let bsz = (lognormal(rng, 400_000.0, 0.7) as u64).clamp(50_000, 4 << 20);
            now = w.machine.write(server, now, &bfh, 0, bsz);
        }
        // Occasionally `make clean`: delete all objects.
        if flip(rng, 0.3) {
            for obj in std::mem::take(&mut w.objects) {
                now = w.machine.remove(server, now + 50_000, &project, &obj);
            }
        }
    }

    /// A browsing session: the browser cache lives in the home directory
    /// (§6.1.1 — "much of the EECS workload is caching web pages").
    fn browse(server: &mut NfsServer, w: &mut Workstation, rng: &mut StdRng, t: u64) {
        let mut now = t;
        let dir = w.cache_dir.clone();
        let pages = pick(rng, 5, 25);
        for _ in 0..pages {
            // Revisit: read an existing cache file; miss: write a new one.
            if !w.cache_files.is_empty() && flip(rng, 0.35) {
                let name = w.cache_files[pick(rng, 0, w.cache_files.len() as u64) as usize].clone();
                if let (Some(fh), t2) = w.machine.lookup(server, now, &dir, &name) {
                    now = w.machine.read_file(server, t2, &fh);
                } else {
                    now += 1000;
                }
            } else {
                let name = format!("cache{:08}", w.cache_seq);
                w.cache_seq += 1;
                let (fh, t2) = w.machine.create(server, now, &dir, &name);
                now = t2;
                if let Some(fh) = fh {
                    // Unbuffered browsers write the headers first, then
                    // rewrite from offset 0 with the body milliseconds
                    // later: the first block dies within a second.
                    let sz = (lognormal(rng, 8_000.0, 1.2) as u64).clamp(300, 500_000);
                    let t3 = w.machine.write(server, now, &fh, 0, pick(rng, 120, 500));
                    now = w
                        .machine
                        .write(server, t3 + pick(rng, 20_000, 400_000), &fh, 0, sz);
                }
                w.cache_files.push(name);
            }
            now += exp_gap(rng, 8_000_000.0); // think time between pages
        }
        // Cache turnover: evict oldest entries past a cap.
        while w.cache_files.len() > 60 {
            let victim = w.cache_files.remove(0);
            now = w.machine.remove(server, now + 20_000, &dir, &victim);
        }
    }

    /// An editor save: write a `#temp#`, rewrite the file, keep a `~`
    /// backup.
    fn editor_save(server: &mut NfsServer, w: &mut Workstation, rng: &mut StdRng, t: u64) {
        let mut now = t;
        let project = w.project.clone();
        let (name, src) = w.sources[pick(rng, 0, w.sources.len() as u64) as usize].clone();
        now = w.machine.read_file(server, now, &src);
        // The user edits for a while before saving.
        now += pick(rng, 5_000_000, 120_000_000);
        let tmp = format!("#{name}#");
        let (tfh, t2) = w.machine.create(server, now, &project, &tmp);
        now = t2;
        let size = server
            .fs()
            .inode(src.as_u64().unwrap_or(0))
            .map(|i| i.size)
            .unwrap_or(4000)
            .max(500);
        // The file drifts in size as the user edits.
        let new_size = ((size as f64) * (0.9 + 0.2 * (pick(rng, 0, 1000) as f64 / 1000.0))) as u64;
        if let Some(tfh) = tfh {
            now = w.machine.write(server, now, &tfh, 0, new_size);
        }
        // Editors lock the file while saving ("a large number of locks
        // for mail and other applications", Table 1).
        let lock_name = format!("{name}.lock");
        let (_, tlock) = w.machine.create(server, now, &project, &lock_name);
        now = tlock;
        // Backup then replace.
        let backup = format!("{name}~");
        let (bfh, t2) = w.machine.create(server, now, &project, &backup);
        now = t2;
        if let Some(bfh) = bfh {
            now = w.machine.write(server, now, &bfh, 0, size);
        }
        if flip(rng, 0.3) {
            // Save-by-rename: the temp file replaces the original.
            now = w
                .machine
                .rename(server, now, &project, &tmp, &project, &name);
            // The original identity changed; recreate the temp name's
            // slot for the next save.
            if let (Some(new_fh), tl) = w.machine.lookup(server, now, &project, &name) {
                if let Some(slot) = w.sources.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 = new_fh;
                }
                now = tl;
            }
        } else {
            now = w.machine.truncate(server, now, &src, 0);
            now = w.machine.write(server, now, &src, 0, new_size);
            now = w
                .machine
                .remove(server, now + pick(rng, 100_000, 2_000_000), &project, &tmp);
        }
        now = w.machine.remove(
            server,
            now + pick(rng, 50_000, 300_000),
            &project,
            &lock_name,
        );
        // Composer temporaries appear occasionally (mail lock and tmp
        // files exist on EECS too, per Table 1).
        if flip(rng, 0.1) {
            let home = w.home.clone();
            let tmp_name = format!("snd.{}", w.tmp_seq);
            w.tmp_seq += 1;
            let (cfh, t3) = w.machine.create(server, now, &home, &tmp_name);
            let mut t4 = t3;
            if let Some(cfh) = cfh {
                t4 = w.machine.write(server, t4, &cfh, 0, pick(rng, 500, 8_000));
            }
            w.machine.remove(
                server,
                t4 + pick(rng, 1_000_000, 60_000_000),
                &home,
                &tmp_name,
            );
        }
    }

    /// A nightly cron job: read a big data file, write a bigger output —
    /// the off-hours load spikes of §6.2.
    fn cron_job(server: &mut NfsServer, w: &mut Workstation, rng: &mut StdRng, t: u64) {
        let mut now = t;
        let data = w.data_file.clone();
        let home = w.home.clone();
        now = w.machine.read_file(server, now, &data);
        // Each run writes a fresh output file and deletes stale ones —
        // "manipulating data can create and delete many temporary files"
        // (§5.2.2), which is why EECS deaths skew to deletion.
        let out_name = format!("results.{:04}.out", w.cron_seq);
        w.cron_seq += 1;
        let (ofh, t2) = w.machine.create(server, now, &home, &out_name);
        now = t2;
        if let Some(ofh) = ofh {
            let size = server
                .fs()
                .inode(data.as_u64().unwrap_or(0))
                .map(|i| i.size)
                .unwrap_or(1 << 20);
            // "Write a bigger output": data manipulation expands its
            // input (1–2x), which is what tips EECS write-heavy.
            let out_size = (size as f64 * (1.0 + pick(rng, 0, 100) as f64 / 100.0)) as u64;
            now = w.machine.write(server, now, &ofh, 0, out_size);
        }
        w.cron_outputs.push(out_name);
        while w.cron_outputs.len() > 1 {
            let victim = w.cron_outputs.remove(0);
            now = w.machine.remove(server, now + 100_000, &home, &victim);
        }
        // Shared-dataset refreshes are driven by the precomputed
        // department schedule (see `refresh_schedule`), not by this
        // per-user job: that keeps sharded generation deterministic.
        let _ = now;
    }
}

/// One workstation's resident EECS simulation, steppable in bounded
/// time slices (the EECS twin of
/// [`crate::campus::CampusUserSim`]).
#[derive(Debug)]
pub(crate) struct EecsUserSim {
    wl: EecsWorkload,
    shared_sizes: std::sync::Arc<Vec<u32>>,
    server: NfsServer,
    w: Workstation,
    rng: StdRng,
    q: EventQueue<Ev>,
}

impl UserSim for EecsUserSim {
    /// Runs every pending event strictly before `end_micros` (capped at
    /// the configured duration), appending the records they emit to
    /// `out` in emission order. Future records are stamped
    /// `>= end_micros` once this returns.
    fn advance_until(&mut self, end_micros: u64, out: &mut Vec<TraceRecord>) {
        let end = end_micros.min(self.wl.config.duration_micros);
        let day = nfstrace_core::time::DAY as f64;
        while self.q.next_time().is_some_and(|t| t < end) {
            let (t, ev) = self.q.pop().expect("peeked a pending event");
            let cfg = &self.wl.config;
            match ev {
                Ev::Tick => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        EecsWorkload::desktop_tick(&mut self.server, &mut self.w, &mut self.rng, t);
                        append_records(&self.w.machine.take_events(), out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.ticks_per_user_day),
                        Ev::Tick,
                    );
                }
                Ev::Build => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        EecsWorkload::build(&mut self.server, &mut self.w, &mut self.rng, t);
                        append_records(&self.w.machine.take_events(), out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.builds_per_user_day),
                        Ev::Build,
                    );
                }
                Ev::Browse => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        EecsWorkload::browse(&mut self.server, &mut self.w, &mut self.rng, t);
                        append_records(&self.w.machine.take_events(), out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.browse_per_user_day),
                        Ev::Browse,
                    );
                }
                Ev::Save => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        EecsWorkload::editor_save(&mut self.server, &mut self.w, &mut self.rng, t);
                        append_records(&self.w.machine.take_events(), out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.saves_per_user_day),
                        Ev::Save,
                    );
                }
                Ev::Cron => {
                    EecsWorkload::cron_job(&mut self.server, &mut self.w, &mut self.rng, t);
                    append_records(&self.w.machine.take_events(), out);
                    let next = self.wl.next_cron(&mut self.rng, t);
                    self.q.push(next, Ev::Cron);
                }
                Ev::SharedRead => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        let fh = self.w.shared
                            [pick(&mut self.rng, 0, self.w.shared.len() as u64) as usize]
                            .clone();
                        self.w.machine.read_file(&mut self.server, t, &fh);
                        append_records(&self.w.machine.take_events(), out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.shared_reads_per_user_day),
                        Ev::SharedRead,
                    );
                }
                Ev::Refresh { dataset, owned } => {
                    let fh = self.w.shared[dataset].clone();
                    let size = u64::from(self.shared_sizes[dataset]);
                    if owned {
                        // This workstation runs the job: truncate and
                        // rewrite through the client, emitting records.
                        let t2 = self.w.machine.truncate(&mut self.server, t, &fh, 0);
                        self.w.machine.write(&mut self.server, t2, &fh, 0, size);
                        append_records(&self.w.machine.take_events(), out);
                    } else {
                        // Someone else's job: replay it silently so this
                        // replica's dataset mtime (and thus this client's
                        // cache staleness) matches the merged reality.
                        let id = fh.as_u64().unwrap_or(0);
                        let _ = self.server.fs_mut().set_size(id, 0, t);
                        let _ = self.server.fs_mut().write(id, 0, size as u32, t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::record::Op;
    use nfstrace_core::summary::SummaryStats;

    fn small_day() -> Vec<TraceRecord> {
        EecsWorkload::new(EecsConfig {
            users: 6,
            duration_micros: nfstrace_core::time::DAY,
            seed: 3,
            ..EecsConfig::default()
        })
        .generate()
    }

    #[test]
    fn generates_sorted_nonempty_trace() {
        let recs = small_day();
        assert!(recs.len() > 1000, "records = {}", recs.len());
        for w in recs.windows(2) {
            assert!(w[0].micros <= w[1].micros);
        }
    }

    #[test]
    fn metadata_calls_dominate() {
        let recs = small_day();
        let s = SummaryStats::from_records(recs.iter());
        assert!(
            s.data_fraction() < 0.5,
            "data fraction = {}",
            s.data_fraction()
        );
        assert!(s.attribute_ops > s.read_ops + s.write_ops);
    }

    #[test]
    fn writes_exceed_reads() {
        let recs = small_day();
        let s = SummaryStats::from_records(recs.iter());
        assert!(
            s.rw_bytes_ratio() < 1.0,
            "read/write byte ratio = {}",
            s.rw_bytes_ratio()
        );
        assert!(
            s.rw_ops_ratio() < 1.2,
            "read/write op ratio = {}",
            s.rw_ops_ratio()
        );
    }

    #[test]
    fn applet_churn_present() {
        let recs = small_day();
        let applet_removes = recs
            .iter()
            .filter(|r| {
                r.op == Op::Remove && r.name.as_deref().is_some_and(|n| n.starts_with("Applet_"))
            })
            .count();
        assert!(applet_removes > 10, "applet removes = {applet_removes}");
    }

    #[test]
    fn mixed_protocol_versions() {
        let recs = small_day();
        let v2 = recs.iter().filter(|r| r.vers == 2).count();
        let v3 = recs.iter().filter(|r| r.vers == 3).count();
        assert!(v2 > 0, "expected some NFSv2 traffic");
        assert!(v3 > v2, "v3 should dominate");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small_day();
        let b = small_day();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn fast_block_death_shape() {
        use nfstrace_core::lifetime::{analyze, LifetimeConfig};
        let recs = small_day();
        let rep = analyze(
            recs.iter(),
            LifetimeConfig {
                phase1_start: 0,
                phase1_len: nfstrace_core::time::DAY / 2,
                phase2_len: nfstrace_core::time::DAY / 2,
            },
        );
        assert!(rep.births_total() > 100);
        // A real mix of death causes, deletes prominent (the paper saw
        // 51.8% deletes, 42.4% overwrites on EECS).
        assert!(rep.deaths_delete > 0);
        assert!(rep.deaths_overwrite > 0);
    }
}
