//! The in-memory filesystem behind the simulated NFS server.
//!
//! Tracks namespace, sizes, and attributes — not data contents. READs
//! return zero-filled buffers of the correct length, which keeps wire
//! sizes faithful without storing gigabytes.

use nfstrace_nfs::types::{Fattr3, Ftype3, NfsStat3, NfsTime3};
use std::collections::HashMap;
use std::fmt;

/// Errors from filesystem operations, mirroring `nfsstat3` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NoEnt,
    /// Name already exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle (no such inode).
    Stale,
}

impl FsError {
    /// The matching NFS status code.
    pub(crate) fn to_nfsstat(self) -> NfsStat3 {
        match self {
            FsError::NoEnt => NfsStat3::NoEnt,
            FsError::Exist => NfsStat3::Exist,
            FsError::NotDir => NfsStat3::NotDir,
            FsError::IsDir => NfsStat3::IsDir,
            FsError::NotEmpty => NfsStat3::NotEmpty,
            FsError::Stale => NfsStat3::Stale,
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsError::NoEnt => "no such file or directory",
            FsError::Exist => "file exists",
            FsError::NotDir => "not a directory",
            FsError::IsDir => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::Stale => "stale file handle",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// One inode's state.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Inode number (also the file handle payload).
    pub id: u64,
    /// File type.
    pub ftype: Ftype3,
    /// Size in bytes.
    pub size: u64,
    /// Mode bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Link count.
    pub nlink: u32,
    /// Modification time (µs).
    pub mtime: u64,
    /// Change time (µs).
    pub ctime: u64,
    /// Access time (µs).
    pub atime: u64,
    /// Symlink target, when a symlink.
    pub link_target: Option<String>,
}

impl Inode {
    /// Renders NFSv3 attributes.
    pub fn fattr3(&self) -> Fattr3 {
        Fattr3 {
            ftype: self.ftype,
            mode: self.mode,
            nlink: self.nlink,
            uid: self.uid,
            gid: self.gid,
            size: self.size,
            used: self.size.div_ceil(8192) * 8192,
            rdev: (0, 0),
            fsid: 1,
            fileid: self.id,
            atime: NfsTime3::from_micros(self.atime),
            mtime: NfsTime3::from_micros(self.mtime),
            ctime: NfsTime3::from_micros(self.ctime),
        }
    }
}

/// The filesystem: inodes plus directory contents.
#[derive(Debug)]
pub struct SimFs {
    inodes: HashMap<u64, Inode>,
    dirs: HashMap<u64, HashMap<String, u64>>,
    next_id: u64,
    root: u64,
}

impl Default for SimFs {
    fn default() -> Self {
        Self::new()
    }
}

impl SimFs {
    /// Creates a filesystem with a root directory (inode 1).
    pub fn new() -> Self {
        let mut fs = SimFs {
            inodes: HashMap::new(),
            dirs: HashMap::new(),
            next_id: 2,
            root: 1,
        };
        fs.inodes.insert(
            1,
            Inode {
                id: 1,
                ftype: Ftype3::Directory,
                size: 0,
                mode: 0o755,
                uid: 0,
                gid: 0,
                nlink: 2,
                mtime: 0,
                ctime: 0,
                atime: 0,
                link_target: None,
            },
        );
        fs.dirs.insert(1, HashMap::new());
        fs
    }

    /// The root directory's inode number.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Moves the inode allocator to `next` (if it is ahead of the
    /// current position).
    ///
    /// Sharded workload generation runs each user against its own
    /// filesystem replica; giving every shard a disjoint allocation
    /// base keeps file ids unique across the merged trace, and pinning
    /// shared files to one fixed base keeps their ids identical in
    /// every replica.
    pub fn set_next_id(&mut self, next: u64) {
        self.next_id = self.next_id.max(next);
    }

    /// Fetches an inode.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] when the id does not exist.
    pub fn inode(&self, id: u64) -> Result<&Inode, FsError> {
        self.inodes.get(&id).ok_or(FsError::Stale)
    }

    fn inode_mut(&mut self, id: u64) -> Result<&mut Inode, FsError> {
        self.inodes.get_mut(&id).ok_or(FsError::Stale)
    }

    /// Looks up `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`FsError::Stale`] for a bad handle, [`FsError::NotDir`] for a
    /// non-directory, [`FsError::NoEnt`] when the name is absent.
    pub fn lookup(&self, dir: u64, name: &str) -> Result<u64, FsError> {
        let entries = self.dir_entries(dir)?;
        entries.get(name).copied().ok_or(FsError::NoEnt)
    }

    fn dir_entries(&self, dir: u64) -> Result<&HashMap<String, u64>, FsError> {
        let inode = self.inode(dir)?;
        if inode.ftype != Ftype3::Directory {
            return Err(FsError::NotDir);
        }
        self.dirs.get(&dir).ok_or(FsError::Stale)
    }

    /// Creates a regular file (or returns the existing one, truncated,
    /// for UNCHECKED-create semantics).
    ///
    /// Returns `(id, existed)`.
    ///
    /// # Errors
    ///
    /// Directory errors as in [`SimFs::lookup`].
    pub fn create(
        &mut self,
        dir: u64,
        name: &str,
        uid: u32,
        gid: u32,
        now: u64,
    ) -> Result<(u64, bool), FsError> {
        if let Ok(existing) = self.lookup(dir, name) {
            // UNCHECKED create truncates.
            let inode = self.inode_mut(existing)?;
            if inode.ftype == Ftype3::Directory {
                return Err(FsError::IsDir);
            }
            inode.size = 0;
            inode.mtime = now;
            inode.ctime = now;
            return Ok((existing, true));
        }
        let id = self.alloc_inode(Ftype3::Regular, uid, gid, now);
        self.dirs
            .get_mut(&dir)
            .ok_or(FsError::NotDir)?
            .insert(name.to_string(), id);
        self.touch_dir(dir, now);
        Ok((id, false))
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::Exist`] if the name exists; directory errors otherwise.
    pub fn mkdir(
        &mut self,
        dir: u64,
        name: &str,
        uid: u32,
        gid: u32,
        now: u64,
    ) -> Result<u64, FsError> {
        if self.lookup(dir, name).is_ok() {
            return Err(FsError::Exist);
        }
        let id = self.alloc_inode(Ftype3::Directory, uid, gid, now);
        self.dirs.insert(id, HashMap::new());
        self.dirs
            .get_mut(&dir)
            .ok_or(FsError::NotDir)?
            .insert(name.to_string(), id);
        self.touch_dir(dir, now);
        Ok(id)
    }

    /// Creates a symlink.
    ///
    /// # Errors
    ///
    /// [`FsError::Exist`] if the name exists; directory errors otherwise.
    pub fn symlink(
        &mut self,
        dir: u64,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
        now: u64,
    ) -> Result<u64, FsError> {
        if self.lookup(dir, name).is_ok() {
            return Err(FsError::Exist);
        }
        let id = self.alloc_inode(Ftype3::Symlink, uid, gid, now);
        self.inode_mut(id)?.link_target = Some(target.to_string());
        self.inode_mut(id)?.size = target.len() as u64;
        self.dirs
            .get_mut(&dir)
            .ok_or(FsError::NotDir)?
            .insert(name.to_string(), id);
        self.touch_dir(dir, now);
        Ok(id)
    }

    /// Removes a file or symlink.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] for directories (use [`SimFs::rmdir`]).
    pub fn remove(&mut self, dir: u64, name: &str, now: u64) -> Result<u64, FsError> {
        let id = self.lookup(dir, name)?;
        if self.inode(id)?.ftype == Ftype3::Directory {
            return Err(FsError::IsDir);
        }
        self.dirs.get_mut(&dir).ok_or(FsError::NotDir)?.remove(name);
        let nlink = {
            let inode = self.inode_mut(id)?;
            inode.nlink = inode.nlink.saturating_sub(1);
            inode.nlink
        };
        if nlink == 0 {
            self.inodes.remove(&id);
        }
        self.touch_dir(dir, now);
        Ok(id)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotEmpty`] when it still has entries.
    pub fn rmdir(&mut self, dir: u64, name: &str, now: u64) -> Result<u64, FsError> {
        let id = self.lookup(dir, name)?;
        if self.inode(id)?.ftype != Ftype3::Directory {
            return Err(FsError::NotDir);
        }
        if !self.dirs.get(&id).is_none_or(|d| d.is_empty()) {
            return Err(FsError::NotEmpty);
        }
        self.dirs.remove(&id);
        self.inodes.remove(&id);
        self.dirs.get_mut(&dir).ok_or(FsError::NotDir)?.remove(name);
        self.touch_dir(dir, now);
        Ok(id)
    }

    /// Renames an entry, replacing any existing target (whose id is
    /// returned as the second element).
    ///
    /// # Errors
    ///
    /// Lookup errors on the source; directory errors on either side.
    pub fn rename(
        &mut self,
        from_dir: u64,
        from_name: &str,
        to_dir: u64,
        to_name: &str,
        now: u64,
    ) -> Result<(u64, Option<u64>), FsError> {
        let id = self.lookup(from_dir, from_name)?;
        let replaced = self.lookup(to_dir, to_name).ok();
        if let Some(old) = replaced {
            if old != id {
                self.dirs
                    .get_mut(&to_dir)
                    .ok_or(FsError::NotDir)?
                    .remove(to_name);
                let nlink = {
                    let inode = self.inode_mut(old)?;
                    inode.nlink = inode.nlink.saturating_sub(1);
                    inode.nlink
                };
                if nlink == 0 {
                    self.inodes.remove(&old);
                    self.dirs.remove(&old);
                }
            }
        }
        self.dirs
            .get_mut(&from_dir)
            .ok_or(FsError::NotDir)?
            .remove(from_name);
        self.dirs
            .get_mut(&to_dir)
            .ok_or(FsError::NotDir)?
            .insert(to_name.to_string(), id);
        self.touch_dir(from_dir, now);
        self.touch_dir(to_dir, now);
        Ok((id, replaced.filter(|&old| old != id)))
    }

    /// Creates a hard link.
    ///
    /// # Errors
    ///
    /// [`FsError::Exist`] if the target name exists.
    pub fn link(&mut self, file: u64, dir: u64, name: &str, now: u64) -> Result<(), FsError> {
        if self.lookup(dir, name).is_ok() {
            return Err(FsError::Exist);
        }
        self.inode_mut(file)?.nlink += 1;
        self.dirs
            .get_mut(&dir)
            .ok_or(FsError::NotDir)?
            .insert(name.to_string(), file);
        self.touch_dir(dir, now);
        Ok(())
    }

    /// Applies a write: extends the size as needed, bumps mtime. Returns
    /// `(pre_size, post_size)`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] when the target is a directory.
    pub fn write(
        &mut self,
        file: u64,
        offset: u64,
        count: u32,
        now: u64,
    ) -> Result<(u64, u64), FsError> {
        let inode = self.inode_mut(file)?;
        if inode.ftype == Ftype3::Directory {
            return Err(FsError::IsDir);
        }
        let pre = inode.size;
        inode.size = inode.size.max(offset + u64::from(count));
        inode.mtime = now;
        inode.ctime = now;
        Ok((pre, inode.size))
    }

    /// Services a read: returns `(bytes_returned, eof, size)` and bumps
    /// atime.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] when the target is a directory.
    pub fn read(
        &mut self,
        file: u64,
        offset: u64,
        count: u32,
        now: u64,
    ) -> Result<(u32, bool, u64), FsError> {
        let inode = self.inode_mut(file)?;
        if inode.ftype == Ftype3::Directory {
            return Err(FsError::IsDir);
        }
        inode.atime = now;
        if offset >= inode.size {
            return Ok((0, true, inode.size));
        }
        let avail = inode.size - offset;
        let n = u64::from(count).min(avail) as u32;
        let eof = offset + u64::from(n) >= inode.size;
        Ok((n, eof, inode.size))
    }

    /// Truncates or extends a file to `size`. Returns `(pre, post)`.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] when the target is a directory.
    pub fn set_size(&mut self, file: u64, size: u64, now: u64) -> Result<(u64, u64), FsError> {
        let inode = self.inode_mut(file)?;
        if inode.ftype == Ftype3::Directory {
            return Err(FsError::IsDir);
        }
        let pre = inode.size;
        inode.size = size;
        inode.mtime = now;
        inode.ctime = now;
        Ok((pre, size))
    }

    /// Lists a directory's entries, sorted by name for determinism.
    ///
    /// # Errors
    ///
    /// Directory errors as in [`SimFs::lookup`].
    pub fn readdir(&self, dir: u64) -> Result<Vec<(String, u64)>, FsError> {
        let mut entries: Vec<(String, u64)> = self
            .dir_entries(dir)?
            .iter()
            .map(|(n, &id)| (n.clone(), id))
            .collect();
        entries.sort();
        Ok(entries)
    }

    fn alloc_inode(&mut self, ftype: Ftype3, uid: u32, gid: u32, now: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.inodes.insert(
            id,
            Inode {
                id,
                ftype,
                size: 0,
                mode: if ftype == Ftype3::Directory {
                    0o755
                } else {
                    0o644
                },
                uid,
                gid,
                nlink: if ftype == Ftype3::Directory { 2 } else { 1 },
                mtime: now,
                ctime: now,
                atime: now,
                link_target: None,
            },
        );
        id
    }

    fn touch_dir(&mut self, dir: u64, now: u64) {
        if let Some(d) = self.inodes.get_mut(&dir) {
            d.mtime = now;
            d.ctime = now;
            d.size = self.dirs.get(&dir).map_or(0, |e| 512 + 24 * e.len() as u64);
        }
    }

    /// Checks the filesystem's structural invariants, returning every
    /// violation as a human-readable string (empty means consistent).
    ///
    /// Checked: the root exists and is a directory; the directory table
    /// covers exactly the directory inodes; every directory entry
    /// points at a live inode; every non-directory inode's link count
    /// equals its number of directory references (and is at least one —
    /// an unreferenced inode should have been reclaimed); no directory
    /// is hard-linked (at most one parent entry, none for the root);
    /// and directory sizes follow the `512 + 24·entries` model. The
    /// concurrency tests call this after hammering a shared server from
    /// several client connections.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        match self.inodes.get(&self.root) {
            Some(r) if r.ftype == Ftype3::Directory => {}
            Some(_) => problems.push("root inode is not a directory".into()),
            None => problems.push("root inode missing".into()),
        }
        for (&id, inode) in &self.inodes {
            let is_dir = inode.ftype == Ftype3::Directory;
            if is_dir != self.dirs.contains_key(&id) {
                problems.push(format!(
                    "inode {id}: directory table disagrees with ftype {:?}",
                    inode.ftype
                ));
            }
        }
        for &id in self.dirs.keys() {
            if !self.inodes.contains_key(&id) {
                problems.push(format!("directory table entry {id} has no inode"));
            }
        }
        let mut refs: HashMap<u64, u32> = HashMap::new();
        for (&dir, entries) in &self.dirs {
            for (name, &child) in entries {
                *refs.entry(child).or_insert(0) += 1;
                if !self.inodes.contains_key(&child) {
                    problems.push(format!("dangling entry {dir}:{name} -> {child}"));
                }
            }
        }
        for (&id, inode) in &self.inodes {
            let n = refs.get(&id).copied().unwrap_or(0);
            if inode.ftype == Ftype3::Directory {
                let expect = if id == self.root { 0 } else { 1 };
                if n != expect {
                    problems.push(format!("directory {id} has {n} parent entries"));
                }
                let entries = self.dirs.get(&id).map_or(0, |e| e.len() as u64);
                let sized = 512 + 24 * entries;
                if inode.size != sized && !(entries == 0 && inode.size == 0) {
                    problems.push(format!(
                        "directory {id} size {} != {sized} for {entries} entries",
                        inode.size
                    ));
                }
            } else {
                if n == 0 {
                    problems.push(format!("inode {id} is unreferenced but not reclaimed"));
                }
                if inode.nlink != n {
                    problems.push(format!(
                        "inode {id} nlink {} != {n} directory references",
                        inode.nlink
                    ));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_read_write() {
        let mut fs = SimFs::new();
        let (f, existed) = fs.create(fs.root(), "inbox", 100, 100, 10).unwrap();
        assert!(!existed);
        assert_eq!(fs.lookup(fs.root(), "inbox").unwrap(), f);
        let (pre, post) = fs.write(f, 0, 1000, 20).unwrap();
        assert_eq!((pre, post), (0, 1000));
        let (n, eof, size) = fs.read(f, 0, 8192, 30).unwrap();
        assert_eq!((n, eof, size), (1000, true, 1000));
        let (n, eof, _) = fs.read(f, 500, 100, 31).unwrap();
        assert_eq!((n, eof), (100, false));
    }

    #[test]
    fn read_past_eof() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "x", 0, 0, 0).unwrap();
        let (n, eof, _) = fs.read(f, 100, 100, 1).unwrap();
        assert_eq!((n, eof), (0, true));
    }

    #[test]
    fn unchecked_create_truncates_existing() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "x", 0, 0, 0).unwrap();
        fs.write(f, 0, 100, 1).unwrap();
        let (f2, existed) = fs.create(fs.root(), "x", 0, 0, 2).unwrap();
        assert!(existed);
        assert_eq!(f2, f);
        assert_eq!(fs.inode(f).unwrap().size, 0);
    }

    #[test]
    fn remove_frees_inode() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "t", 0, 0, 0).unwrap();
        fs.remove(fs.root(), "t", 1).unwrap();
        assert_eq!(fs.lookup(fs.root(), "t"), Err(FsError::NoEnt));
        assert_eq!(fs.inode(f).err(), Some(FsError::Stale));
    }

    #[test]
    fn hard_link_keeps_inode_alive() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "a", 0, 0, 0).unwrap();
        fs.link(f, fs.root(), "b", 1).unwrap();
        fs.remove(fs.root(), "a", 2).unwrap();
        assert!(fs.inode(f).is_ok());
        fs.remove(fs.root(), "b", 3).unwrap();
        assert!(fs.inode(f).is_err());
    }

    #[test]
    fn mkdir_rmdir() {
        let mut fs = SimFs::new();
        let d = fs.mkdir(fs.root(), "home7", 0, 0, 0).unwrap();
        assert_eq!(fs.mkdir(fs.root(), "home7", 0, 0, 1), Err(FsError::Exist));
        let (f, _) = fs.create(d, "inbox", 0, 0, 2).unwrap();
        assert_eq!(fs.rmdir(fs.root(), "home7", 3), Err(FsError::NotEmpty));
        fs.remove(d, "inbox", 4).unwrap();
        let _ = f;
        fs.rmdir(fs.root(), "home7", 5).unwrap();
        assert_eq!(fs.lookup(fs.root(), "home7"), Err(FsError::NoEnt));
    }

    #[test]
    fn rename_replaces_target() {
        let mut fs = SimFs::new();
        let (a, _) = fs.create(fs.root(), "mbox.tmp", 0, 0, 0).unwrap();
        let (b, _) = fs.create(fs.root(), "mbox", 0, 0, 1).unwrap();
        let (moved, replaced) = fs
            .rename(fs.root(), "mbox.tmp", fs.root(), "mbox", 2)
            .unwrap();
        assert_eq!(moved, a);
        assert_eq!(replaced, Some(b));
        assert!(fs.inode(b).is_err());
        assert_eq!(fs.lookup(fs.root(), "mbox").unwrap(), a);
    }

    #[test]
    fn symlink_readdir() {
        let mut fs = SimFs::new();
        fs.symlink(fs.root(), "sl", "/target", 0, 0, 0).unwrap();
        fs.create(fs.root(), "af", 0, 0, 1).unwrap();
        let names: Vec<String> = fs
            .readdir(fs.root())
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["af".to_string(), "sl".to_string()]);
    }

    #[test]
    fn set_size_truncates() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "x", 0, 0, 0).unwrap();
        fs.write(f, 0, 10_000, 1).unwrap();
        let (pre, post) = fs.set_size(f, 0, 2).unwrap();
        assert_eq!((pre, post), (10_000, 0));
    }

    #[test]
    fn stale_handle_errors() {
        let mut fs = SimFs::new();
        assert_eq!(fs.read(999, 0, 1, 0).err(), Some(FsError::Stale));
        assert_eq!(fs.lookup(999, "x").err(), Some(FsError::Stale));
    }

    #[test]
    fn lookup_on_file_is_notdir() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "x", 0, 0, 0).unwrap();
        assert_eq!(fs.lookup(f, "y").err(), Some(FsError::NotDir));
    }

    #[test]
    fn fattr_reflects_state() {
        let mut fs = SimFs::new();
        let (f, _) = fs.create(fs.root(), "x", 7, 8, 5).unwrap();
        fs.write(f, 0, 9000, 6).unwrap();
        let attr = fs.inode(f).unwrap().fattr3();
        assert_eq!(attr.size, 9000);
        assert_eq!(attr.used, 16384); // rounded to 8k blocks
        assert_eq!(attr.uid, 7);
        assert_eq!(attr.fileid, f);
    }
}
