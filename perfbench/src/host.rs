//! What the host gives the run: CPUs, CPU time, steal, peak memory. All
//! read from `/proc`; a missing file reads as zero rather than failing the
//! run, and the host record printed with every run shows it.

use std::time::Duration;

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const USER_HZ: u64 = 100;

/// User plus system CPU time of this process, all threads, including
/// threads that have already exited.
#[must_use]
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let ticks = tick(11) + tick(12);
    Duration::from_nanos(ticks * (1_000_000_000 / USER_HZ))
}

/// Host-wide CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now.
    #[must_use]
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let nums: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let total = nums.iter().take(8).sum();
        CpuTimes {
            total,
            steal: nums.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor stole.
    #[must_use]
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
