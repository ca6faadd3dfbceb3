//! A thread-shareable [`NfsServer`].
//!
//! The plain server exposes `&mut self` handlers, which is right for
//! the single-threaded workload simulation but not for a serving loop
//! where several client connections dispatch concurrently. This wrapper
//! owns the server behind a mutex: NFS semantics make every procedure a
//! single atomic step against filesystem state, so coarse per-call
//! locking is the correct concurrency model (a finer-grained scheme
//! would have to re-derive exactly this atomicity per procedure).
//! Cloning shares the underlying server.

use crate::fs::SimFs;
use crate::server::NfsServer;
use nfstrace_nfs::fh::FileHandle;
use nfstrace_nfs::v2::{Call2, Reply2};
use nfstrace_nfs::v3::{Call3, Reply3};
use std::sync::{Arc, Mutex, MutexGuard};

/// An [`NfsServer`] shareable across connection threads.
#[derive(Debug, Clone)]
pub struct SharedNfsServer {
    inner: Arc<Mutex<NfsServer>>,
}

impl SharedNfsServer {
    /// Creates a shared server over a fresh filesystem.
    pub fn new(server_ip: u32) -> Self {
        Self::from_server(NfsServer::new(server_ip))
    }

    /// Wraps an existing (possibly pre-populated) server.
    pub(crate) fn from_server(server: NfsServer) -> Self {
        SharedNfsServer {
            inner: Arc::new(Mutex::new(server)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, NfsServer> {
        // A panic mid-call can poison the lock; the filesystem state
        // itself is always left consistent (each handler is a single
        // atomic step), so serving continues.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The root file handle clients mount.
    pub fn root_fh(&self) -> FileHandle {
        self.lock().root_fh()
    }

    /// Handles one NFSv3 call at simulation time `now` (µs).
    pub fn handle_v3(&self, call: &Call3, now: u64) -> Reply3 {
        self.lock().handle_v3(call, now)
    }

    /// Handles one NFSv2 call at simulation time `now` (µs).
    pub fn handle_v2(&self, call: &Call2, now: u64) -> Reply2 {
        self.lock().handle_v2(call, now)
    }

    /// Runs `f` with exclusive access to the filesystem — setup
    /// (building home directories) and invariant checks.
    pub fn with_fs<R>(&self, f: impl FnOnce(&mut SimFs) -> R) -> R {
        f(self.lock().fs_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_nfs::types::{NfsStat3, Sattr3};
    use nfstrace_nfs::v3::{Call3, Create3Args, CreateHow, DirOpArgs, Reply3Body};

    fn create(dir: &FileHandle, name: &str) -> Call3 {
        Call3::Create(Create3Args {
            where_: DirOpArgs {
                dir: dir.clone(),
                name: name.into(),
            },
            how: CreateHow::Unchecked,
            attributes: Sattr3::default(),
        })
    }

    fn remove(dir: &FileHandle, name: &str) -> Call3 {
        Call3::Remove(DirOpArgs {
            dir: dir.clone(),
            name: name.into(),
        })
    }

    /// Two concurrent clients creating and removing in the same
    /// directory must never corrupt `SimFs` invariants: every
    /// interleaving of the per-call atomic steps leaves link counts,
    /// directory references, and reclamation consistent.
    #[test]
    fn concurrent_create_remove_keeps_simfs_consistent() {
        let server = SharedNfsServer::new(0x0a00_0002);
        let root = server.root_fh();
        let mut workers = Vec::new();
        for c in 0..2u64 {
            let server = server.clone();
            let root = root.clone();
            workers.push(std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..200u64 {
                    // Half the names are private to this client, half
                    // contested with the other client.
                    let name = if i % 2 == 0 {
                        format!("own-{c}-{i}")
                    } else {
                        format!("contested-{}", i % 7)
                    };
                    let now = c * 1_000_000 + i;
                    let reply = server.handle_v3(&create(&root, &name), now);
                    if let Reply3Body::Create(res) = &reply.body {
                        assert!(res.obj.is_some(), "create must return a handle");
                    }
                    statuses.push(reply.status);
                    if i % 3 != 0 {
                        // Removing a contested name can legitimately
                        // lose the race (NoEnt); it must never corrupt.
                        let reply = server.handle_v3(&remove(&root, &name), now + 1);
                        assert!(
                            matches!(reply.status, NfsStat3::Ok | NfsStat3::NoEnt),
                            "remove status {:?}",
                            reply.status
                        );
                    }
                }
                statuses
            }));
        }
        for w in workers {
            let statuses = w.join().expect("client thread");
            assert!(statuses.contains(&NfsStat3::Ok));
        }
        let problems = server.with_fs(|fs| fs.check_invariants());
        assert!(problems.is_empty(), "invariant violations: {problems:?}");
        // The directory is still fully usable.
        let reply = server.handle_v3(&create(&root, "after"), 9_999_999);
        assert_eq!(reply.status, NfsStat3::Ok);
    }
}
