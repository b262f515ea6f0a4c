//! Host-side measurements: thread CPU time, peak memory and provenance.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[allow(unsafe_code)]
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// CPU time consumed so far by the calling thread, in seconds.
///
/// This is the Fig 7 method of `rtm_bench::harness::thread_cpu_time`
/// (the simulation thread's own CPU time, which excludes the monitor's
/// threads), read from the thread CPU-time clock instead of
/// `/proc/thread-self/stat` so that it resolves nanoseconds instead of
/// 10 ms scheduler ticks.
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target), and the clock id is a constant the
    // kernel accepts; the call writes only into `ts`.
    #[allow(unsafe_code)]
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32).as_secs_f64()
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_s() -> f64 {
    panic!("the benchmark reads the thread CPU-time clock and runs on Linux only")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where a result came from: stored with every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Git commit of the sources, or `unknown` outside a git checkout.
    pub commit: &'static str,
    /// FNV-1a digest of every source file under `crates/`, which
    /// identifies the code even where no git metadata exists.
    pub source_digest: &'static str,
    /// Cargo build profile of this binary.
    pub profile: &'static str,
    /// CPUs available to this process.
    pub host_cpus: usize,
}

impl Provenance {
    /// The provenance of the running binary.
    pub fn current() -> Provenance {
        Provenance {
            commit: env!("PERFBENCH_COMMIT"),
            source_digest: env!("PERFBENCH_SOURCE_DIGEST"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            host_cpus: host_cpus(),
        }
    }

    /// A debug build measures the compiler, not the simulator.
    pub fn is_debug(&self) -> bool {
        self.profile == "debug"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t0, "{x}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
