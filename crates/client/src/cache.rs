//! The client-side attribute and data cache.
//!
//! NFS clients cache file data and attributes in a weakly consistent
//! manner: data is cached per file and validated by comparing the
//! server's modification time; attributes are trusted for an "attribute
//! cache timeout" between checks. Two consequences the paper measures:
//!
//! - most EECS calls are clients "simply checking to see whether a file
//!   has been updated or whether they can use a cached copy" (§6.1.1);
//! - on CAMPUS, "delivering a message to an inbox updates the
//!   modification time on the entire file ... this results in the
//!   invalidation and immediate re-reading of, on average, more than 2
//!   megabytes of data" (§6.1.2).

use std::collections::{HashMap, HashSet};

/// Cache behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// How long attributes are trusted between revalidations (µs).
    /// Real clients adapt between 3 s and 60 s; a fixed value keeps the
    /// simulation deterministic.
    pub attr_timeout_micros: u64,
    /// Data cache capacity in 8 KB blocks (per client).
    pub capacity_blocks: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            attr_timeout_micros: 30 * 1_000_000,
            capacity_blocks: 16 * 1024, // 128 MB, typical of >128 MB RAM clients
        }
    }
}

/// Cached attributes for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAttrs {
    /// File size.
    pub size: u64,
    /// Server mtime (µs).
    pub mtime: u64,
    /// When the attributes were fetched (µs).
    pub fetched_at: u64,
}

#[derive(Debug, Default)]
struct FileData {
    /// mtime the cached blocks correspond to.
    mtime: u64,
    blocks: HashSet<u64>,
}

/// The per-client cache.
#[derive(Debug)]
pub struct ClientCache {
    config: CacheConfig,
    attrs: HashMap<u64, CachedAttrs>,
    data: HashMap<u64, FileData>,
    cached_blocks: usize,
    /// Revalidations that found the cache still valid.
    pub validations_clean: u64,
    /// Revalidations that found new mtime and flushed data.
    pub invalidations: u64,
    /// Bytes of cached data discarded by invalidations.
    pub invalidated_blocks: u64,
}

impl ClientCache {
    /// Creates a cache.
    pub fn new(config: CacheConfig) -> Self {
        ClientCache {
            config,
            attrs: HashMap::new(),
            data: HashMap::new(),
            cached_blocks: 0,
            validations_clean: 0,
            invalidations: 0,
            invalidated_blocks: 0,
        }
    }

    /// Whether the attribute entry for `file` is still fresh at `now`.
    pub(crate) fn attrs_fresh(&self, file: u64, now: u64) -> bool {
        self.attrs
            .get(&file)
            .is_some_and(|a| now.saturating_sub(a.fetched_at) < self.config.attr_timeout_micros)
    }

    /// The cached attributes, fresh or not.
    pub fn attrs(&self, file: u64) -> Option<CachedAttrs> {
        self.attrs.get(&file).copied()
    }

    /// Installs attributes fetched from the server at `now`. If the
    /// mtime moved, the file's data cache is flushed (file-granularity
    /// invalidation — the CAMPUS inbox phenomenon). Returns `true` if
    /// data was invalidated.
    pub(crate) fn update_attrs(&mut self, file: u64, size: u64, mtime: u64, now: u64) -> bool {
        let invalidate = self
            .data
            .get(&file)
            .is_some_and(|d| d.mtime != mtime && !d.blocks.is_empty());
        if invalidate {
            if let Some(d) = self.data.get_mut(&file) {
                self.invalidations += 1;
                self.invalidated_blocks += d.blocks.len() as u64;
                self.cached_blocks -= d.blocks.len();
                d.blocks.clear();
                d.mtime = mtime;
            }
        } else if let Some(a) = self.attrs.get(&file) {
            if a.mtime == mtime {
                self.validations_clean += 1;
            }
        }
        self.attrs.insert(
            file,
            CachedAttrs {
                size,
                mtime,
                fetched_at: now,
            },
        );
        invalidate
    }

    /// Whether `block` of `file` is cached.
    pub(crate) fn block_cached(&self, file: u64, block: u64) -> bool {
        self.data
            .get(&file)
            .is_some_and(|d| d.blocks.contains(&block))
    }

    /// Marks a block as cached, with the mtime it was read under.
    /// Evicts arbitrary blocks if over capacity.
    pub(crate) fn insert_block(&mut self, file: u64, block: u64, mtime: u64) {
        let entry = self.data.entry(file).or_default();
        if entry.mtime != mtime {
            // Blocks from an older version are stale.
            self.cached_blocks -= entry.blocks.len();
            entry.blocks.clear();
            entry.mtime = mtime;
        }
        if entry.blocks.insert(block) {
            self.cached_blocks += 1;
        }
        if self.cached_blocks > self.config.capacity_blocks {
            self.evict_one_file(file);
        }
    }

    /// Records the outcome of our *own* write: the expected mtime moves
    /// forward without invalidating cached blocks (the client knows its
    /// own modifications — close-to-open consistency).
    pub(crate) fn note_own_write(&mut self, file: u64, size: u64, mtime: u64, now: u64) {
        if let Some(d) = self.data.get_mut(&file) {
            d.mtime = mtime;
        }
        self.attrs.insert(
            file,
            CachedAttrs {
                size,
                mtime,
                fetched_at: now,
            },
        );
    }

    /// Drops a whole file from the cache (e.g. on remove).
    pub(crate) fn forget(&mut self, file: u64) {
        if let Some(d) = self.data.remove(&file) {
            self.cached_blocks -= d.blocks.len();
        }
        self.attrs.remove(&file);
    }

    /// Total cached blocks across all files.
    pub fn cached_blocks(&self) -> usize {
        self.cached_blocks
    }

    fn evict_one_file(&mut self, keep: u64) {
        // Evict the largest cached file other than `keep`; a crude but
        // deterministic stand-in for LRU.
        if let Some((&victim, _)) = self
            .data
            .iter()
            .filter(|(&f, d)| f != keep && !d.blocks.is_empty())
            .max_by_key(|(_, d)| d.blocks.len())
        {
            if let Some(d) = self.data.remove(&victim) {
                self.cached_blocks -= d.blocks.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ClientCache {
        ClientCache::new(CacheConfig {
            attr_timeout_micros: 3_000_000,
            capacity_blocks: 100,
        })
    }

    #[test]
    fn attr_freshness_times_out() {
        let mut c = cache();
        c.update_attrs(1, 100, 10, 1_000_000);
        assert!(c.attrs_fresh(1, 2_000_000));
        assert!(!c.attrs_fresh(1, 4_100_000));
        assert!(!c.attrs_fresh(2, 0));
    }

    #[test]
    fn mtime_change_invalidates_whole_file() {
        let mut c = cache();
        c.update_attrs(1, 100, 10, 0);
        for b in 0..50 {
            c.insert_block(1, b, 10);
        }
        assert_eq!(c.cached_blocks(), 50);
        // Same mtime: clean validation, data survives.
        assert!(!c.update_attrs(1, 100, 10, 1));
        assert_eq!(c.cached_blocks(), 50);
        assert_eq!(c.validations_clean, 1);
        // New mtime: the whole file is flushed.
        assert!(c.update_attrs(1, 120, 20, 2));
        assert_eq!(c.cached_blocks(), 0);
        assert_eq!(c.invalidations, 1);
        assert_eq!(c.invalidated_blocks, 50);
    }

    #[test]
    fn stale_blocks_cleared_on_new_mtime_insert() {
        let mut c = cache();
        c.insert_block(1, 0, 10);
        c.insert_block(1, 1, 10);
        c.insert_block(1, 2, 99); // newer version: old blocks dropped
        assert!(c.block_cached(1, 2));
        assert!(!c.block_cached(1, 0));
        assert_eq!(c.cached_blocks(), 1);
    }

    #[test]
    fn capacity_eviction_prefers_other_files() {
        let mut c = cache();
        for b in 0..80 {
            c.insert_block(1, b, 1);
        }
        for b in 0..30 {
            c.insert_block(2, b, 1);
        }
        // Over 100 blocks: file 1 (the largest other file) was evicted.
        assert!(c.cached_blocks() <= 100);
        assert!(c.block_cached(2, 0));
        assert!(!c.block_cached(1, 0));
    }

    #[test]
    fn forget_removes_everything() {
        let mut c = cache();
        c.update_attrs(1, 10, 1, 0);
        c.insert_block(1, 0, 1);
        c.forget(1);
        assert_eq!(c.cached_blocks(), 0);
        assert!(c.attrs(1).is_none());
    }
}
