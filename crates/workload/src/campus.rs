//! The CAMPUS email workload (§3.2, §6.1.2).
//!
//! One simulated 53 GB disk array (the paper's `home02`) holds home
//! directories whose dominant content is flat-file inboxes. Three
//! infrastructure hosts generate all NFS traffic:
//!
//! - an **SMTP server** delivering mail: lock, append, unlock;
//! - a **POP server** polled by users' PCs: validate the inbox
//!   (getattr), re-read it entirely when delivery moved its mtime (the
//!   file-grain caching pathology of §6.1.2), and — for users who
//!   delete retrieved mail — rewrite some or all of the mailbox;
//! - a **login server** running pine-style sessions: dot files, a lock,
//!   full scans, periodic rescans, composer temporaries, and a quit-time
//!   mailbox rewrite.
//!
//! Every quantitative lever is a [`CampusConfig`] field with defaults
//! tuned so the generated week reproduces the paper's shape: read/write
//! byte ratio ≈ 3, data calls dominating, ~50% of accessed files being
//! locks, >99% of block deaths by overwrite, block half-life of tens of
//! minutes.
//!
//! Users never touch each other's home directories, so generation is
//! sharded: every user is simulated independently against its own
//! filesystem replica (with a disjoint inode base and a per-user
//! `crate::driver::user_seed`) and the per-user streams are merged by
//! timestamp. The `NFSTRACE_THREADS` worker count scales wall-clock
//! only — the merged trace is bit-identical for any thread count.

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

/// Tunable parameters of the CAMPUS model.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusConfig {
    /// Active user accounts on the simulated array.
    pub users: usize,
    /// Simulated duration in microseconds.
    pub duration_micros: u64,
    /// RNG seed.
    pub seed: u64,
    /// Median characteristic inbox size in bytes (lognormal across
    /// users; the paper's typical inbox caches >2 MB).
    pub inbox_median_bytes: f64,
    /// Mail deliveries per user per day (before diurnal shaping).
    pub deliveries_per_user_day: f64,
    /// POP polls per user per day.
    pub polls_per_user_day: f64,
    /// Interactive (pine) sessions per user per day.
    pub sessions_per_user_day: f64,
    /// Median delivered message size in bytes.
    pub message_median_bytes: f64,
    /// Probability a changed POP poll retrieves-and-deletes (rewriting
    /// part of the mailbox).
    pub pop_delete_prob: f64,
    /// Fraction of users who hoard mail (no POP delete; purge at quota).
    pub hoarder_fraction: f64,
    /// Purge threshold for hoarders, bytes (the 50 MB quota, derated).
    pub purge_bytes: u64,
    /// Diurnal shape.
    pub rate: DiurnalRate,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            users: 40,
            duration_micros: nfstrace_core::time::DAY,
            seed: 42,
            inbox_median_bytes: 1_500_000.0,
            deliveries_per_user_day: 25.0,
            polls_per_user_day: 96.0,
            sessions_per_user_day: 2.0,
            message_median_bytes: 4_000.0,
            pop_delete_prob: 0.8,
            hoarder_fraction: 0.1,
            purge_bytes: 20_000_000,
            rate: DiurnalRate::default(),
        }
    }
}

#[derive(Debug)]
struct User {
    dir: FileHandle,
    inbox: FileHandle,
    pinerc: FileHandle,
    cshrc: FileHandle,
    /// Characteristic size the mailbox returns to after deletes.
    base_size: u64,
    hoarder: bool,
    /// Composer temp counter for unique names.
    tmp_seq: u32,
    in_session: bool,
    /// Mailbox size at the last poll, for new-messages-only reads.
    last_poll_size: u64,
}

#[derive(Debug)]
enum Ev {
    Delivery,
    Poll,
    SessionStart,
    SessionRescan { end: u64 },
    SessionEnd,
    ComposerRemove { name: String },
}

/// The CAMPUS generator.
#[derive(Debug, Clone)]
pub struct CampusWorkload {
    /// The configuration used.
    pub config: CampusConfig,
}

impl CampusWorkload {
    /// Creates a generator.
    pub fn new(config: CampusConfig) -> Self {
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

    /// [`CampusWorkload::generate`] with an explicit worker count.
    pub fn generate_with_threads(&self, threads: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        nfstrace_core::sink::into_ok(self.generate_into(threads, &mut out));
        out
    }

    /// Streams the merged trace straight into `sink` — a `Vec`, an
    /// on-disk store writer, a partial index — one [`SLICE_MICROS`]
    /// slice at a time, so only a slice of records is ever resident.
    /// The record sequence is [`CampusWorkload::generate`]'s for any
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
        SlicedWorkload::campus(self.config.clone(), SLICE_MICROS, threads).run_into(sink)
    }

    /// Builds user `u`'s resident simulation, positioned at time zero.
    /// Deterministic given `(config, u)`.
    ///
    /// [`UserSim::advance_until`] then steps it forward in
    /// arbitrary time slices; the user's stream does not depend on how
    /// the run is sliced.
    pub(crate) fn user_sim(&self, u: usize) -> CampusUserSim {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(user_seed(cfg.seed, u));
        let mut server = NfsServer::new(0x0a01_0002);
        // Disjoint inode base per user: ids stay unique after the merge.
        server.fs_mut().set_next_id((u as u64 + 2) << 32);

        // CAMPUS transfers ride 8 KB NFS requests (jumbo frames carried
        // 9000-byte packets; the observed mean read was ~7 KB).
        let client_cfg = |ip: u32, seed: u64| ClientConfig {
            ip,
            uid: 0,
            gid: 0,
            vers: 3,
            nfsiods: 6,
            rsize: 8192,
            wsize: 8192,
            cache: CacheConfig {
                attr_timeout_micros: 30_000_000,
                capacity_blocks: 64 * 1024, // POP server caches many inboxes
            },
            meta_latency_micros: 120,
            server_latency_micros: 200,
            seed,
            first_xid: user_first_xid(cfg.seed, u),
        };
        let useed = user_seed(cfg.seed, u);
        let smtp = ClientMachine::new(client_cfg(0x0a01_0010, useed ^ 0x1));
        let pop = ClientMachine::new(client_cfg(0x0a01_0011, useed ^ 0x2));
        let login = ClientMachine::new(client_cfg(0x0a01_0012, useed ^ 0x3));

        // Pre-populate the home directory server-side: this state
        // predates the trace, so no records are emitted for it.
        let root = server.fs_mut().root();
        let uname = format!("user{u:04}");
        let dir = server
            .fs_mut()
            .mkdir(root, &uname, u as u32, 100, 0)
            .unwrap();
        let (inbox, _) = server
            .fs_mut()
            .create(dir, "inbox", u as u32, 100, 0)
            .unwrap();
        let base =
            (lognormal(&mut rng, cfg.inbox_median_bytes, 0.7) as u64).clamp(50_000, 8_000_000);
        server.fs_mut().write(inbox, 0, base as u32, 0).unwrap();
        let (pinerc, _) = server
            .fs_mut()
            .create(dir, ".pinerc", u as u32, 100, 0)
            .unwrap();
        server
            .fs_mut()
            .write(pinerc, 0, pick(&mut rng, 11_000, 26_000) as u32, 0)
            .unwrap();
        let (cshrc, _) = server
            .fs_mut()
            .create(dir, ".cshrc", u as u32, 100, 0)
            .unwrap();
        server.fs_mut().write(cshrc, 0, 900, 0).unwrap();
        let user = User {
            dir: FileHandle::from_u64(dir),
            inbox: FileHandle::from_u64(inbox),
            pinerc: FileHandle::from_u64(pinerc),
            cshrc: FileHandle::from_u64(cshrc),
            base_size: base,
            hoarder: flip(&mut rng, cfg.hoarder_fraction),
            tmp_seq: 0,
            in_session: false,
            last_poll_size: base,
        };

        // Seed the event streams.
        let mut q: EventQueue<Ev> = EventQueue::new();
        let day = nfstrace_core::time::DAY as f64;
        q.push(
            exp_gap(&mut rng, day / cfg.deliveries_per_user_day),
            Ev::Delivery,
        );
        q.push(exp_gap(&mut rng, day / cfg.polls_per_user_day), Ev::Poll);
        q.push(
            exp_gap(&mut rng, day / cfg.sessions_per_user_day),
            Ev::SessionStart,
        );

        CampusUserSim {
            wl: self.clone(),
            server,
            smtp,
            pop,
            login,
            rng,
            user,
            q,
        }
    }

    /// SMTP delivery: lock, append, unlock.
    fn deliver(
        &self,
        server: &mut NfsServer,
        smtp: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
    ) {
        let (_, t1) = smtp.create(server, t, &user.dir, "inbox.lock");
        // The delivery agent knows the spool size via getattr.
        let (size, t2) = smtp.getattr(server, t1, &user.inbox);
        let size = size.unwrap_or(0);
        let msg =
            (lognormal(rng, self.config.message_median_bytes, 1.4) as u64).clamp(400, 2_000_000);
        let t3 = smtp.write(server, t2, &user.inbox, size, msg);
        // Lock lifetimes: overwhelmingly under 0.4 s.
        let t4 = t3 + pick(rng, 20_000, 220_000);
        smtp.remove(server, t4, &user.dir, "inbox.lock");
    }

    /// POP poll: validate; on change re-read; maybe retrieve-and-delete.
    fn poll(
        &self,
        server: &mut NfsServer,
        pop: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
    ) {
        // Name-cache entries expire: some polls re-lookup the inbox.
        let mut t = t;
        if flip(rng, 0.15) {
            let (_, tl) = pop.lookup(server, t, &user.dir, "inbox");
            t = tl;
        }
        let (_, t1) = pop.create(server, t, &user.dir, "inbox.lock");
        // Force a revalidation getattr: polls are minutes apart, beyond
        // the attribute timeout, so read_file will getattr + re-read if
        // the mailbox changed.
        let pre_size = server
            .fs()
            .inode(user.inbox.as_u64().unwrap_or(0))
            .map(|i| i.size)
            .unwrap_or(0);
        let t2 = if pre_size > user.last_poll_size && flip(rng, 0.35) {
            // An efficient client fetches only the new messages: a
            // sequential (not entire) read run from the old end-of-file.
            let from = user.last_poll_size & !8191; // page-aligned start
            pop.read(server, t1, &user.inbox, from, pre_size - from)
        } else {
            pop.read_file(server, t1, &user.inbox)
        };
        user.last_poll_size = pre_size;
        pop.remove(
            server,
            t2 + pick(rng, 20_000, 200_000),
            &user.dir,
            "inbox.lock",
        );
        let cur_size = server
            .fs()
            .inode(user.inbox.as_u64().unwrap_or(0))
            .map(|i| i.size)
            .unwrap_or(0);
        let retrieved_delete = !user.hoarder && flip(rng, self.config.pop_delete_prob);
        // The PC drains the messages over its own link before the POP
        // server deletes them: the expunge happens seconds later, under
        // a fresh (again sub-second) lock.
        let think = pick(rng, 1_500_000, 5_000_000);
        let needs_rewrite = (retrieved_delete && cur_size > user.base_size)
            || (user.hoarder && cur_size > self.config.purge_bytes);
        if needs_rewrite {
            let (_, t3) = pop.create(server, t2 + think, &user.dir, "inbox.lock");
            let t4 = self.rewrite_inbox(server, pop, rng, user, t3, user.base_size);
            pop.remove(
                server,
                t4 + pick(rng, 20_000, 200_000),
                &user.dir,
                "inbox.lock",
            );
        }
    }

    /// Rewrites the tail (or all) of the mailbox down to `new_size`.
    ///
    /// "Quitting the mail client causes some or all of the mailbox file
    /// to be rewritten": the client rewrites from some interior offset
    /// through the new end, then truncates.
    fn rewrite_inbox(
        &self,
        server: &mut NfsServer,
        m: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
        new_size: u64,
    ) -> u64 {
        // "Some or all of the mailbox file": often the whole file is
        // rewritten from offset zero (an entire write run), otherwise a
        // tail portion.
        let frac = if flip(rng, 0.4) {
            1.0
        } else {
            0.5 + 0.45 * (pick(rng, 0, 1000) as f64 / 1000.0)
        };
        let start = (new_size as f64 * (1.0 - frac)) as u64;
        let t1 = m.write(server, t, &user.inbox, start, new_size - start);
        m.truncate(server, t1, &user.inbox, new_size)
    }

    /// Login-session open: dot files, lock, full scan.
    fn session_open(
        &self,
        server: &mut NfsServer,
        login: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
    ) {
        // .cshrc at login, .pinerc at client start: small whole-file
        // reads (often getattr-validated only).
        let (_, tl) = login.lookup(server, t, &user.dir, ".cshrc");
        let t1 = login.read_file(server, tl, &user.cshrc);
        // The user starts pine a little after the shell comes up.
        let (_, tl2) = login.lookup(
            server,
            t1 + pick(rng, 2_000_000, 20_000_000),
            &user.dir,
            ".pinerc",
        );
        let t2 = login.read_file(server, tl2, &user.pinerc);
        let (_, t3) = login.create(
            server,
            t2 + pick(rng, 500_000, 2_000_000),
            &user.dir,
            "inbox.lock",
        );
        let t4 = self.scan_inbox_inner(server, login, user, t3);
        login.remove(server, t4 + 150_000, &user.dir, "inbox.lock");
    }

    fn scan_inbox(
        &self,
        server: &mut NfsServer,
        login: &mut ClientMachine,
        user: &mut User,
        t: u64,
    ) {
        let (_, t1) = login.create(server, t, &user.dir, "inbox.lock");
        let t2 = self.scan_inbox_inner(server, login, user, t1);
        login.remove(server, t2 + 100_000, &user.dir, "inbox.lock");
    }

    fn scan_inbox_inner(
        &self,
        server: &mut NfsServer,
        login: &mut ClientMachine,
        user: &mut User,
        t: u64,
    ) -> u64 {
        login.read_file(server, t, &user.inbox)
    }

    /// Status-flag update pass: the mail client rewrites each message's
    /// `Status:` header in place — short writes at ascending offsets
    /// separated by message-sized gaps. This is the paper's long seeky
    /// write run: "long CAMPUS writes tend to touch several sequential
    /// blocks and then seek to a new location" (§6.4), scoring ~0.6 on
    /// the sequentiality metric.
    fn update_flags(
        &self,
        server: &mut NfsServer,
        m: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
    ) -> u64 {
        let size = server
            .fs()
            .inode(user.inbox.as_u64().unwrap_or(0))
            .map(|i| i.size)
            .unwrap_or(0);
        let mut now = t;
        if size < 16_384 {
            return now;
        }
        // Users work through messages in UI order, not file order: a few
        // adjacent messages get their flags rewritten (sequential
        // blocks), then the client seeks to wherever the next-read
        // message lives — forward or backward.
        let mut remaining = (size / 12_000).clamp(4, 300);
        while remaining > 0 {
            let cluster = pick(rng, 2, 6).min(remaining);
            let mut offset = pick(rng, 0, size.saturating_sub(cluster * 9_000).max(1));
            for _ in 0..cluster {
                let n = pick(rng, 80, 400);
                now = m.write(server, now, &user.inbox, offset, n);
                // The next message's header lies a message-length away.
                offset += n
                    + (lognormal(rng, self.config.message_median_bytes, 1.0) as u64)
                        .clamp(600, 16_000);
                now += pick(rng, 1_000, 10_000);
            }
            remaining -= cluster;
        }
        now
    }

    /// Session close: maybe rewrite the mailbox, drop the lock.
    fn session_close(
        &self,
        server: &mut NfsServer,
        login: &mut ClientMachine,
        rng: &mut StdRng,
        user: &mut User,
        t: u64,
    ) {
        let mut t = t;
        // Quitting pine updates the status flags of read messages.
        if flip(rng, 0.7) {
            t = self.update_flags(server, login, rng, user, t);
        }
        if flip(rng, 0.6) {
            let cur = server
                .fs()
                .inode(user.inbox.as_u64().unwrap_or(0))
                .map(|i| i.size)
                .unwrap_or(0);
            let keep = if user.hoarder {
                cur // hoarders keep everything
            } else {
                user.base_size.min(cur)
            };
            if keep < cur || !user.hoarder {
                self.rewrite_inbox(server, login, rng, user, t + 200_000, keep.max(10_000));
            }
        }
    }
}

/// One user's resident CAMPUS simulation, steppable in bounded time
/// slices.
///
/// Holds the user's whole simulation state — the filesystem replica,
/// the three infrastructure client machines, the RNG, and the event
/// queue — so the sliced driver can advance it slice by slice and
/// stream records out as simulated time passes. Slicing never changes a
/// single bit of the user's stream: the event pop order, RNG draw
/// order, and client cache state are all functions of the event
/// sequence alone.
#[derive(Debug)]
pub(crate) struct CampusUserSim {
    wl: CampusWorkload,
    server: NfsServer,
    smtp: ClientMachine,
    pop: ClientMachine,
    login: ClientMachine,
    rng: StdRng,
    user: User,
    q: EventQueue<Ev>,
}

impl UserSim for CampusUserSim {
    /// Runs every pending event strictly before `end_micros` (capped at
    /// the configured duration), appending the records they emit to
    /// `out` in emission order.
    ///
    /// An event at time `t` only ever emits records stamped `>= t`, so
    /// after this returns every *future* record of this user carries a
    /// timestamp `>= end_micros` — the watermark the sliced driver uses
    /// to know which records are final.
    fn advance_until(&mut self, end_micros: u64, out: &mut Vec<TraceRecord>) {
        let end = end_micros.min(self.wl.config.duration_micros);
        let day = nfstrace_core::time::DAY as f64;
        let drain = |m: &mut ClientMachine, out: &mut Vec<TraceRecord>| {
            append_records(&m.take_events(), out);
        };
        while self.q.next_time().is_some_and(|t| t < end) {
            let (t, ev) = self.q.pop().expect("peeked a pending event");
            let cfg = &self.wl.config;
            match ev {
                Ev::Delivery => {
                    // Thin to the diurnal rate.
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        self.wl.deliver(
                            &mut self.server,
                            &mut self.smtp,
                            &mut self.rng,
                            &mut self.user,
                            t,
                        );
                        drain(&mut self.smtp, out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.deliveries_per_user_day),
                        Ev::Delivery,
                    );
                }
                Ev::Poll => {
                    if flip(&mut self.rng, cfg.rate.at(t)) {
                        self.wl.poll(
                            &mut self.server,
                            &mut self.pop,
                            &mut self.rng,
                            &mut self.user,
                            t,
                        );
                        drain(&mut self.pop, out);
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.polls_per_user_day),
                        Ev::Poll,
                    );
                }
                Ev::SessionStart => {
                    if !self.user.in_session && flip(&mut self.rng, cfg.rate.at(t)) {
                        self.user.in_session = true;
                        let end = t + (lognormal(&mut self.rng, 25.0, 0.5) * 60.0 * 1e6) as u64; // 15–60 min
                        self.wl.session_open(
                            &mut self.server,
                            &mut self.login,
                            &mut self.rng,
                            &mut self.user,
                            t,
                        );
                        drain(&mut self.login, out);
                        let rescan = t + 60_000_000 + exp_gap(&mut self.rng, 180.0 * 1e6);
                        if rescan < end {
                            self.q.push(rescan, Ev::SessionRescan { end });
                        }
                        self.q.push(end, Ev::SessionEnd);
                        // Compose a message or two during the session.
                        if flip(&mut self.rng, 0.5) {
                            let name = format!("snd.{}", self.user.tmp_seq);
                            self.user.tmp_seq += 1;
                            let at = t + exp_gap(&mut self.rng, 300.0 * 1e6).min(end - t);
                            self.q.push(at, Ev::ComposerRemove { name });
                        }
                    }
                    let cfg = &self.wl.config;
                    self.q.push(
                        t + exp_gap(&mut self.rng, day / cfg.sessions_per_user_day),
                        Ev::SessionStart,
                    );
                }
                Ev::SessionRescan { end } => {
                    self.wl
                        .scan_inbox(&mut self.server, &mut self.login, &mut self.user, t);
                    // Reading messages updates their status flags.
                    if flip(&mut self.rng, 0.4) {
                        self.wl.update_flags(
                            &mut self.server,
                            &mut self.login,
                            &mut self.rng,
                            &mut self.user,
                            t + 500_000,
                        );
                    }
                    drain(&mut self.login, out);
                    let next = t + 60_000_000 + exp_gap(&mut self.rng, 180.0 * 1e6);
                    if next < end {
                        self.q.push(next, Ev::SessionRescan { end });
                    }
                }
                Ev::SessionEnd => {
                    self.wl.session_close(
                        &mut self.server,
                        &mut self.login,
                        &mut self.rng,
                        &mut self.user,
                        t,
                    );
                    self.user.in_session = false;
                    drain(&mut self.login, out);
                }
                Ev::ComposerRemove { name } => {
                    // Create, fill, and shortly afterwards remove a
                    // composer temporary (98% under 8 KB, §6.3).
                    let (fh, t1) = self
                        .login
                        .create(&mut self.server, t, &self.user.dir, &name);
                    if let Some(fh) = fh {
                        let sz = (lognormal(&mut self.rng, 2_500.0, 0.8) as u64).clamp(200, 39_000);
                        let t2 = self.login.write(&mut self.server, t1, &fh, 0, sz);
                        let hold = pick(&mut self.rng, 2_000_000, 50_000_000);
                        self.login
                            .remove(&mut self.server, t2 + hold, &self.user.dir, &name);
                    }
                    drain(&mut self.login, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::names::{classify, FileCategory};
    use nfstrace_core::record::Op;
    use nfstrace_core::summary::SummaryStats;

    fn small_day() -> Vec<TraceRecord> {
        CampusWorkload::new(CampusConfig {
            users: 8,
            duration_micros: nfstrace_core::time::DAY,
            seed: 7,
            ..CampusConfig::default()
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
    fn reads_dominate_writes_by_bytes() {
        let recs = small_day();
        let s = SummaryStats::from_records(recs.iter());
        let ratio = s.rw_bytes_ratio();
        assert!(
            (1.5..6.0).contains(&ratio),
            "read/write byte ratio = {ratio}"
        );
    }

    #[test]
    fn data_calls_dominate() {
        let recs = small_day();
        let s = SummaryStats::from_records(recs.iter());
        assert!(
            s.data_fraction() > 0.5,
            "data fraction = {}",
            s.data_fraction()
        );
    }

    #[test]
    fn lock_files_dominate_create_delete_churn() {
        let recs = small_day();
        let created: Vec<&str> = recs
            .iter()
            .filter(|r| r.op == Op::Create)
            .filter_map(|r| r.name.as_deref())
            .collect();
        assert!(!created.is_empty());
        let locks = created
            .iter()
            .filter(|n| classify(n) == FileCategory::Lock)
            .count();
        let frac = locks as f64 / created.len() as f64;
        assert!(frac > 0.7, "lock fraction of creates = {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small_day();
        let b = small_day();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn diurnal_shape_visible() {
        let recs = CampusWorkload::new(CampusConfig {
            users: 10,
            duration_micros: 2 * nfstrace_core::time::DAY,
            seed: 11,
            ..CampusConfig::default()
        })
        .generate();
        use nfstrace_core::time::HOUR;
        // Compare Monday 3am hour against Monday 1pm hour.
        let day = nfstrace_core::time::DAY;
        let night: usize = recs
            .iter()
            .filter(|r| r.micros >= day + 3 * HOUR && r.micros < day + 4 * HOUR)
            .count();
        let noon: usize = recs
            .iter()
            .filter(|r| r.micros >= day + 13 * HOUR && r.micros < day + 14 * HOUR)
            .count();
        assert!(noon > night, "noon={noon} night={night}");
    }

    #[test]
    fn mailboxes_never_removed() {
        let recs = small_day();
        let removed_mailbox = recs.iter().any(|r| {
            r.op == Op::Remove
                && r.name
                    .as_deref()
                    .is_some_and(|n| classify(n) == FileCategory::Mailbox)
        });
        assert!(!removed_mailbox);
    }
}
