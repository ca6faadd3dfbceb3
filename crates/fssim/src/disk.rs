//! A seek/rotation/transfer disk timing model.
//!
//! The §6.4 experiment needs a server whose read cost depends on access
//! locality: "on today's disks, if the file is laid out contiguously on
//! disk, then logical seeks of fewer than 10 blocks are unlikely to
//! induce disk arm movement." The model prices an access as
//!
//! - zero seek if the head is within `free_seek_blocks` of the target
//!   (short logical jumps ride the same track/cylinder),
//! - otherwise a seek that grows with distance up to `max_seek_micros`,
//! - plus half-rotation latency whenever a seek occurred,
//! - plus transfer time at `transfer_bytes_per_sec`.
//!
//! Parameters default to a circa-2001 7200 RPM disk.

/// Disk timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Blocks reachable without head movement (about one track's worth:
    /// circa-2001 tracks held ~0.5 MB ≈ 64 8 KB blocks).
    pub free_seek_blocks: u64,
    /// Fixed per-request cost: command processing plus the average
    /// rotational slip between back-to-back synchronous requests. This is
    /// what makes read-ahead profitable.
    pub command_overhead_micros: u64,
    /// Minimum seek (track-to-track), microseconds.
    pub min_seek_micros: u64,
    /// Full-stroke seek, microseconds.
    pub max_seek_micros: u64,
    /// Disk capacity in 8 KB blocks (for seek-distance scaling).
    pub capacity_blocks: u64,
    /// Half-rotation latency, microseconds (7200 RPM → ~4.17 ms).
    pub half_rotation_micros: u64,
    /// Sustained transfer rate, bytes per second.
    pub transfer_bytes_per_sec: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            free_seek_blocks: 64,
            command_overhead_micros: 1_000,
            min_seek_micros: 800,
            max_seek_micros: 15_000,
            capacity_blocks: 53_000_000_000 / 8192, // one CAMPUS 53 GB array
            half_rotation_micros: 4_170,
            transfer_bytes_per_sec: 25_000_000,
        }
    }
}

/// The disk head model: tracks position and prices accesses.
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    head_block: u64,
    /// Accesses served.
    accesses: u64,
    /// Accesses that required a physical seek.
    seeks: u64,
}

impl DiskModel {
    /// Creates a disk with its head at block 0.
    pub fn new(params: DiskParams) -> Self {
        Self {
            params,
            head_block: 0,
            accesses: 0,
            seeks: 0,
        }
    }

    /// Prices an access of `nblocks` 8 KB blocks at `block`, advances the
    /// head, and returns the cost in microseconds.
    pub fn access(&mut self, block: u64, nblocks: u64) -> u64 {
        self.accesses += 1;
        let distance = block.abs_diff(self.head_block);
        let mut cost = self.params.command_overhead_micros;
        if distance > self.params.free_seek_blocks {
            self.seeks += 1;
            // Seek time grows with the square root of distance, a common
            // first-order disk model.
            let frac =
                (distance as f64 / self.params.capacity_blocks.max(1) as f64).clamp(0.0, 1.0);
            let seek = self.params.min_seek_micros as f64
                + (self.params.max_seek_micros - self.params.min_seek_micros) as f64 * frac.sqrt();
            cost += seek as u64 + self.params.half_rotation_micros;
        }
        let bytes = nblocks.max(1) * 8192;
        cost += bytes * 1_000_000 / self.params.transfer_bytes_per_sec.max(1);
        self.head_block = block + nblocks;
        cost
    }

    /// `(accesses, physical seeks)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.accesses, self.seeks)
    }

    /// The head's current block position.
    pub fn head_block(&self) -> u64 {
        self.head_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_is_cheap() {
        let mut d = DiskModel::new(DiskParams::default());
        let first = d.access(1000, 1); // positioning seek
        let mut seq_cost = 0;
        for i in 1..100u64 {
            seq_cost += d.access(1000 + i, 1);
        }
        // After the first seek every access is pure transfer.
        assert!(first > seq_cost / 99);
        let (accesses, seeks) = d.counters();
        assert_eq!(accesses, 100);
        assert_eq!(seeks, 1);
    }

    #[test]
    fn small_jumps_are_free_of_seeks() {
        let mut d = DiskModel::new(DiskParams::default());
        d.access(0, 1);
        d.access(5, 1); // 4-block jump: within free_seek_blocks
        let (_, seeks) = d.counters();
        assert_eq!(seeks, 0);
    }

    #[test]
    fn far_seek_costs_more_than_near_seek() {
        let mut near = DiskModel::new(DiskParams::default());
        near.access(0, 1);
        let near_cost = near.access(10_000, 1);
        let mut far = DiskModel::new(DiskParams::default());
        far.access(0, 1);
        let far_cost = far.access(5_000_000, 1);
        assert!(far_cost > near_cost);
    }

    #[test]
    fn transfer_scales_with_size() {
        let overhead = DiskParams::default().command_overhead_micros;
        let mut d = DiskModel::new(DiskParams::default());
        let one = d.access(d.head_block(), 1) - overhead;
        let eight = d.access(d.head_block(), 8) - overhead;
        assert!(eight >= one * 7, "one={one} eight={eight}");
    }

    #[test]
    fn head_advances_past_access() {
        let mut d = DiskModel::new(DiskParams::default());
        d.access(100, 4);
        assert_eq!(d.head_block(), 104);
    }
}
