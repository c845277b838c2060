//! Host probes: process CPU time, peak RSS, CPU steal and load from
//! `/proc`, plus the run metadata printed beside every result.

use std::process::Command;

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds. `/proc/self/stat` counts in clock ticks of 10 ms, so only
/// phases of a few seconds resolve to a percent.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state
    // field (3) is the first after ')', so they sit at 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in milliseconds. Like
/// `process_cpu_s` it leaves out time the hypervisor stole, but it is
/// read to the nanosecond, fine enough to time a single query (the
/// per-thread counters in `/proc` only move at scheduler ticks). NaN
/// if the clock is unavailable.
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Aggregate CPU counters from `/proc/stat`: `(steal, total)` ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already inside user, so sum the first eight.
        CpuTicks {
            steal: vals.get(7).copied().unwrap_or(0),
            total: vals.iter().take(8).sum(),
        }
    }

    /// Steal share of all CPU time since `earlier`, in percent.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// One-minute load average.
fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's stdout, or `"unknown"` when the command
/// is missing or fails (a source checkout without `.git`, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metadata line: enough to trace a noisy run back to its host.
pub fn metadata(workload: &str, seed: u64, trace: bool, steal_pct: f64) -> String {
    use crate::summary::{json_num, json_str};
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"git_rev\": {}, \"rustc\": {}, \"nproc\": {}, \"profile\": {}, \"host_steal_pct\": {}, \"load_avg_1m\": {}}}",
        json_str(workload),
        json_str(&command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        nproc(),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_num(steal_pct),
        json_num(load_avg()),
    )
}
