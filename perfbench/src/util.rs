//! Seeded input generation, order statistics and `/proc` readers.

use std::io;
use std::time::Instant;

/// SplitMix64. The benchmark draws its inputs from its own generator, so a
/// change to how the system under test consumes randomness never changes
/// the inputs it is given.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut base = SplitMix(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `lo ..= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// p50 of nanosecond samples in microseconds (0 when empty).
pub fn p50_us(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 0.5).map_or(0.0, |ns| ns as f64 / 1e3)
}

pub fn elapsed_ns(since: Instant) -> u64 {
    elapsed_between(since, Instant::now())
}

pub fn elapsed_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which Linux fixes
/// at 100 per second for every userspace interface.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of a whole process, all threads (exited
/// ones included).
pub fn proc_cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3 of stat(5), so utime (14) and stime (15)
    // sit at indices 11 and 12.
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed stat"))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_S)
}

/// A `kB` line of `/proc/<pid>/status` (`VmHWM:`, `VmRSS:`) in MB.
fn proc_status_mb(pid: u32, key: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {key} in status")))
}

/// Peak resident set (`VmHWM`) of a process in MB.
pub fn proc_hwm_mb(pid: u32) -> io::Result<f64> {
    proc_status_mb(pid, "VmHWM:")
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later reading covers only what came after.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The kernel's `cpu_set_t`: one bit per CPU, for up to 1 024 CPUs.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> std::os::raw::c_int;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> std::os::raw::c_int;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..set.len() * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

pub fn cpu_set(cpus: &[usize]) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    set
}

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to `set`. It neither allocates nor locks, so it may run
/// between `fork` and `exec`.
pub fn pin_to(set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a readable cpu_set_t of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Host-wide CPU tick counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub steal: u64,
    pub total: u64,
}

pub fn host_ticks() -> HostTicks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return HostTicks::default();
    };
    let Some(line) = stat.lines().next() else {
        return HostTicks::default();
    };
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user and nice).
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostTicks {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
    }
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::stream(7, 1).next_u64(),
            SplitMix::stream(7, 2).next_u64()
        );
    }
}
