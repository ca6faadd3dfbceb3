//! Clocks the harness reads — wall time, process CPU time at nanosecond
//! resolution, the user/system CPU split, a fixed spin — and the one
//! scheduler setting it makes ([`OneCpu`]).
//!
//! `/proc/self/stat` counts CPU in 10 ms ticks, far coarser than a
//! 0.1 ms unit of work, so CPU time comes from
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` through a local
//! declaration (std already links libc; no crate is added).

use std::time::Instant;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage`: two timevals, then fourteen longs nobody here
    /// reads.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub rest: [i64; 14],
    }

    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// CPU time this process (all threads) has consumed, in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the
    // clock id is a constant the kernel defines.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `(user, system)` CPU microseconds of this process so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn user_sys_micros() -> (u64, u64) {
    let zero = || sys::Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = sys::Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout (two timevals followed by fourteen longs).
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &sys::Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    (micros(&ru.ru_utime), micros(&ru.ru_stime))
}

/// The calling thread — and every thread it spawns from now on —
/// restricted to one CPU until this is dropped.
///
/// serve-campus runs under it. Its client and server threads hand every
/// call to each other through the kernel; left to the scheduler they
/// share a core for some stretches of a run and run side by side for
/// others, CPU time per call differs by a fifth between the two, and
/// which a run saw more of is luck. On one CPU there is one regime (and
/// the other CPU absorbs whatever else the machine has to do).
#[derive(Debug)]
pub struct OneCpu {
    previous: sys::CpuSet,
}

impl OneCpu {
    /// Pins to the highest-numbered CPU the thread may run on; `None`
    /// (and nothing changed) where the sandbox forbids it.
    pub fn pin() -> Option<OneCpu> {
        let mut previous: sys::CpuSet = [0; 16];
        // SAFETY: `previous` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut previous) };
        if rc != 0 {
            return None;
        }
        let word = previous.iter().rposition(|w| *w != 0)?;
        let mut one: sys::CpuSet = [0; 16];
        one[word] = 1 << (63 - previous[word].leading_zeros());
        // SAFETY: `one` is a readable `cpu_set_t` of the size passed.
        let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &one) };
        (rc == 0).then_some(OneCpu { previous })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `previous` is the `cpu_set_t` the kernel filled in `pin`.
        // A failure leaves the thread pinned, which only costs later
        // workloads of an `--all` run their second core.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &self.previous) };
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("nfsbench reads CPU time through the 64-bit Linux clock_gettime/getrusage ABI");

/// One reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: u64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_ns(),
        }
    }

    /// `(wall_ns, cpu_ns)` from `earlier` to `self`.
    pub fn since(&self, earlier: &Stamp) -> (u64, u64) {
        (
            self.wall.duration_since(earlier.wall).as_nanos() as u64,
            self.cpu.saturating_sub(earlier.cpu),
        )
    }

    /// The wall-clock half, for spans.
    pub fn wall(&self) -> Instant {
        self.wall
    }
}

/// Iterations of the spin: about 5 ms of dependent multiply-adds on
/// the sandbox's cores. Fixed *work*, so its wall time reports how much
/// the machine disturbed the run; it never filters a sample.
const SPIN_ITERATIONS: u64 = 4_000_000;

/// Runs the fixed spin and returns its wall nanoseconds.
pub fn spin() -> u64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..SPIN_ITERATIONS {
        // Opaque every round, or the recurrence is solved at compile time.
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> f64 {
    nfstrace_bench::suite::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = Stamp::now();
        let spun = spin();
        let (wall, cpu) = Stamp::now().since(&a);
        assert!(wall >= spun);
        // A busy loop is on-CPU for most of its wall time (the rest is
        // what the machine took away); the process clock also counts the
        // tests running beside this one, so there is no upper bound.
        assert!(cpu >= spun / 4, "cpu {cpu} spun {spun}");
        let (u, s) = user_sys_micros();
        assert!(u + s > 0);
    }

    #[test]
    fn one_cpu_holds_for_spawned_threads_and_ends_when_dropped() {
        let allowed = || {
            let mut mask: sys::CpuSet = [0; 16];
            // SAFETY: as in `OneCpu::pin`.
            unsafe { sys::sched_getaffinity(0, std::mem::size_of::<sys::CpuSet>(), &mut mask) };
            mask.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let before = allowed();
        let Some(pinned) = OneCpu::pin() else {
            return; // the sandbox forbids it, and the run goes on unpinned
        };
        assert_eq!(allowed(), 1);
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
        drop(pinned);
        assert_eq!(allowed(), before);
    }
}
