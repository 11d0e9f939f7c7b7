//! Host measurements: process CPU time and peak resident set.

/// `struct timeval` of the Linux x86-64/aarch64 ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the Linux
    // ABI (the layout above), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    usage
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set of this process so far, MiB. It never decreases, so
/// each measured run gets a process of its own.
pub fn peak_rss_mib() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_plausible() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        let rss = peak_rss_mib();
        assert!(rss > 1.0 && rss < 64.0 * 1024.0, "{rss} MiB");
    }
}
