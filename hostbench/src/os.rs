//! Process CPU time and peak resident memory, read from the C library.
//!
//! The standard library exposes neither, and the benchmark builds offline
//! against no crate outside the repository, so the two calls are declared
//! here for 64-bit Linux, where `long` and `time_t` are 64 bits wide.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timespec`.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `struct rusage`: two `struct timeval`s, then 14 `long` fields, of
    /// which the first (`ru_maxrss`, in KiB) is the only one read.
    #[repr(C)]
    pub struct Rusage {
        pub times: [i64; 4],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// User plus system CPU time of the whole process (all threads), in
/// seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout on 64-bit Linux, and the clock id is a valid constant.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    let mut ru = ffi::Rusage {
        times: [0; 4],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` (18 `long`s) with
    // the C layout on 64-bit Linux, and `RUSAGE_SELF` is a valid target.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.ru_maxrss as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the host-time benchmark reads CPU time and peak RSS on 64-bit Linux only");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
