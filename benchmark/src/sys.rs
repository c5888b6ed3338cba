//! The few Linux facilities the harness needs that `std` does not expose:
//! CPU affinity, parent-death signals, the clock-tick rate, and `/proc`
//! accounting.  Direct `extern "C"` bindings, no new dependency.

use std::sync::OnceLock;
use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;
pub const SIGKILL: u64 = 9;
pub const SIGTERM: u64 = 15;

/// Nanoseconds since the harness started (one monotonic base for every
/// timestamp, span and latency).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread (threads it spawns later inherit the set).
/// Only makes a syscall, so it is safe between `fork` and `exec`.
pub fn pin_current_thread(cpus: &[usize]) -> std::io::Result<()> {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Asks the kernel to deliver `signal` to the calling process when the
/// thread that created it exits, so a killed harness never leaves a
/// server behind.  Only makes a syscall (safe between `fork` and `exec`).
pub fn die_with_parent(signal: u64) {
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument and touches no memory.
    unsafe { prctl(PR_SET_PDEATHSIG, signal, 0, 0, 0) };
}

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes an integer and returns an integer.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// One thread of a process, as `/proc/<pid>/task/<tid>` shows it.
#[derive(Debug, Clone)]
pub struct TaskInfo {
    pub name: String,
    /// utime + stime, seconds.
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// utime + stime (seconds) from a `/proc/.../stat` line.  The command
/// name may contain spaces, so fields are counted after the last `)`.
fn cpu_seconds_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / clock_ticks_per_s())
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| {
            v.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
}

/// Whole-process CPU seconds (every thread, living or exited).
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    cpu_seconds_of_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn process_peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// Every live thread of `pid`.
pub fn tasks(pid: u32) -> Vec<TaskInfo> {
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let name = std::fs::read_to_string(path.join("comm")).ok()?;
            let stat = std::fs::read_to_string(path.join("stat")).ok()?;
            let status = std::fs::read_to_string(path.join("status")).ok()?;
            Some(TaskInfo {
                name: name.trim().to_string(),
                cpu_s: cpu_seconds_of_stat(&stat)?,
                ctx_switches: status_field(&status, "voluntary_ctxt_switches")?
                    + status_field(&status, "nonvoluntary_ctxt_switches")?,
            })
        })
        .collect()
}

/// Pids of live processes whose parent is this process.
pub fn live_children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let rest = stat[stat.rfind(')')? + 1..].to_string();
                    let mut f = rest.split_whitespace();
                    let state = f.next()?.to_string();
                    let ppid: u32 = f.next()?.parse().ok()?;
                    Some(ppid == me && state != "Z")
                })
                .unwrap_or(false)
        })
        .collect()
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
