//! Percentiles, ratios and the process memory high-water mark.

/// The median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p`% of the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(v[rank - 1])
}

/// The nearest rank of the tail percentile: the highest percentile, at
/// most the 99th, that leaves at least ten samples beyond it. `None` when
/// that rank would not lie above the median (`n < 20`), since then no
/// tail can be stated.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n < 20 {
        return None;
    }
    Some((n - 10).min((99 * n).div_ceil(100)))
}

/// A latency distribution summarized by the sample-count rule: the median
/// and the highest percentile with ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples, failed requests included.
    pub samples: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Which percentile `tail` is (50 when there are too few samples for
    /// a tail).
    pub tail_pct: f64,
    /// The tail value.
    pub tail: f64,
}

/// Summarizes `values`, where a failed or refused request is
/// `f64::INFINITY` so that it misses every latency limit. `None` when
/// empty.
pub fn latency(values: &[f64]) -> Option<Latency> {
    let p50 = percentile(values, 50.0)?;
    let n = values.len();
    let Some(rank) = tail_rank(n) else {
        return Some(Latency {
            samples: n,
            p50,
            tail_pct: 50.0,
            tail: p50,
        });
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Latency {
        samples: n,
        p50,
        tail_pct: 100.0 * rank as f64 / n as f64,
        tail: v[rank - 1],
    })
}

/// `useful / attempted`, 0 when nothing was attempted. Reported beside
/// its base wherever it is printed.
pub fn ratio(useful: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        useful as f64 / attempted as f64
    }
}

/// The resident-set high-water mark (`VmHWM`) in MiB of process `pid`
/// (`"self"` for this one), or 0 when `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine-wide CPU time counters of `/proc/stat` (user, nice,
/// system, idle, iowait, irq, softirq, steal), empty where absent.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// The share of CPU time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other tenants (steal); 0 when unknown.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    if before.len() < 8 || after.len() < 8 {
        return 0.0;
    }
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    ratio(delta[7], delta.iter().sum())
}

/// Seconds the calling thread has spent running on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). On a shared host this leaves out the time
/// the hypervisor or other processes held the CPU, which makes it steadier
/// than wall time for single-threaded work.
#[cfg(target_os = "linux")]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec laid out as the C struct
    // on 64-bit Linux, and clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall time since the first call, where no thread CPU clock is known.
#[cfg(not(target_os = "linux"))]
pub fn cpu_s() -> f64 {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// FNV-1a over `bytes`, continuing from `hash` — the digest of simulated
/// statistics printed per workload.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a's starting value.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_rank(19), None);
        assert_eq!(tail_rank(20), Some(10));
        assert_eq!(tail_rank(100), Some(90));
        assert_eq!(tail_rank(1000), Some(990));
        assert_eq!(tail_rank(100_000), Some(99_000));
        for n in 20..3000 {
            let rank = tail_rank(n).expect("n >= 20");
            assert!(
                n - rank >= 10,
                "n={n}: rank {rank} leaves {} beyond",
                n - rank
            );
            assert!(
                100 * rank <= 99 * n + 100,
                "n={n}: rank {rank} is above p99"
            );
            assert!(2 * rank >= n, "n={n}: rank {rank} is below the median");
        }
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        // 30 fast requests and 10 failures: the failures fill the tail,
        // so the tail reads as missing any limit.
        let mut v = vec![5.0; 30];
        v.extend([f64::INFINITY; 10]);
        let l = latency(&v).expect("samples");
        assert_eq!(l.samples, 40);
        assert_eq!(l.p50, 5.0);
        assert_eq!(l.tail_pct, 75.0);
        assert_eq!(l.tail, 5.0);
        v.push(f64::INFINITY);
        let l = latency(&v).expect("samples");
        assert!(l.tail.is_infinite(), "the 11th failure enters the tail");
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let start = cpu_s();
        let mut x = 0u64;
        while cpu_s() - start < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_s() - start;
        assert!((0.01..1.0).contains(&spent), "{spent}");
    }

    #[test]
    fn steal_share_is_steal_over_all_cpu_time() {
        let before = [10, 0, 10, 50, 0, 0, 0, 10];
        let after = [40, 0, 20, 90, 0, 0, 0, 30];
        assert_eq!(steal_share(&before, &after), 0.2);
        assert_eq!(steal_share(&[], &after), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b");
        let b = fnv1a(fnv1a(FNV_OFFSET, b"b"), b"a");
        assert_ne!(a, b);
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }
}
