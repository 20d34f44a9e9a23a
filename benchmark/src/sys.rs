//! The few things this benchmark needs from the operating system that
//! `std` does not offer: CPU pinning, the first-in-first-out scheduling
//! policy, peak resident-set sizes and killing a worker's whole process
//! group. Linux only, by direct libc calls (the
//! vendored crate set has no `libc`; `std` already links the C library).

use std::io;

/// `cpu_set_t`: 1024 CPUs as 16 words.
type CpuSet = [u64; 16];

/// `struct rusage` up to the one field read here; the rest is padding of
/// the right size (14 longs follow the two `timeval`s on Linux).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;
const SCHED_FIFO: i32 = 1;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Pin this process — and so every thread and child it starts later — to
/// one CPU: the highest-numbered one it is allowed to run on. Returns the
/// CPU chosen.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Real-time priority of the orchestrator: above its workers, so that
/// the timeout that kills a hung worker cannot be starved by it.
pub const ORCHESTRATOR_PRIORITY: i32 = 2;
/// Real-time priority of a worker and everything it starts: the lowest.
pub const WORKER_PRIORITY: i32 = 1;

/// Put this process — and so every thread and child it starts later —
/// under `SCHED_FIFO` at `priority`. Needs root (or `CAP_SYS_NICE`).
///
/// Why: a hop of the runtime passes through five to nine threads, and the
/// benchmark keeps them on one CPU. Under the default policy the kernel
/// decides at every wake-up whether the woken thread preempts the waker,
/// from run-time balances that drift; the same code then settles into one
/// of several schedules whose costs differ by half (README, *Steadiness*).
/// First-in-first-out has no such state: a woken thread queues behind the
/// running one, so the schedule is a function of the program alone.
pub fn set_fifo(priority: i32) -> io::Result<()> {
    // SAFETY: `struct sched_param` is one int, the priority, and `priority`
    // is live; pid 0 names the caller.
    if unsafe { sched_setscheduler(0, SCHED_FIFO, &priority) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Largest peak resident set (kB) among the children this process has
/// waited for.
pub fn children_peak_rss_kb() -> u64 {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage`-sized buffer.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        return 0;
    }
    ru.maxrss_kb.max(0) as u64
}

/// This process's own peak resident set (kB): `VmHWM` of
/// `/proc/self/status`.
pub fn self_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `SIGKILL` every process of the group led by `pgid`.
pub fn kill_group(pgid: u32) {
    if let Ok(p) = i32::try_from(pgid) {
        // SAFETY: plain syscall; a negative pid addresses the group.
        unsafe { kill(-p, SIGKILL) };
    }
}

/// First three fields of `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}
