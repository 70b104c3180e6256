//! Host diagnostics recorded with every run: they explain a run that
//! disagrees with the others, and never rescale or drop one.

use crate::stats::Rng;
use std::time::Instant;

/// A snapshot of the host taken at the start or end of a run.
pub struct HostSample {
    pub loadavg: String,
    pub steal_ticks: u64,
    /// Milliseconds taken by [`host_probe`].
    pub probe_ms: f64,
    /// Milliseconds taken by [`branchy_probe`].
    pub branchy_ms: f64,
}

impl HostSample {
    pub fn take() -> HostSample {
        HostSample {
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
                .unwrap_or_else(|| "unknown".to_owned()),
            steal_ticks: steal_ticks().unwrap_or(0),
            probe_ms: host_probe(),
            branchy_ms: branchy_probe(),
        }
    }
}

/// Steal ticks summed over all CPUs (`/proc/stat`, first line, eighth
/// value).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// A fixed workload that uses none of the program's code: a random
/// walk over a 1 MiB table (shared-cache latency) plus integer mixing
/// (core speed). Its time tracks how fast the host is right now. The
/// table is small so the probe never sets the run's peak RSS.
pub fn host_probe() -> f64 {
    const WORDS: usize = 1 << 17;
    let mut rng = Rng::new(0x5eed);
    let table: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let t0 = Instant::now();
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        let v = table[at];
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
        at = (v as usize ^ acc as usize) & (WORDS - 1);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(acc);
    ms
}

/// A fixed allocation- and branch-heavy workload that uses none of the
/// program's code: eight rounds of an ordered map of small vectors
/// built from 2 500 random keys, 5 000 lookups, and a sort of 6 250
/// words. On a 2-vCPU KVM guest of a shared Xeon host the program's
/// ops slowed by 30–55 % in phases lasting seconds while [`host_probe`] moved by about 10 % and a
/// pure arithmetic loop not at all; this probe moved with the ops, so
/// its samples through a run show when the host was slow. Each round
/// keeps under 0.3 MB live, so the probe never sets the run's peak RSS.
pub fn branchy_probe() -> f64 {
    let mut rng = Rng::new(0xb4a9c4);
    let t0 = Instant::now();
    for _ in 0..8 {
        let mut map: std::collections::BTreeMap<u64, Vec<u32>> = std::collections::BTreeMap::new();
        for i in 0..2_500u32 {
            map.entry(rng.next_u64() % 6_250).or_default().push(i);
        }
        let mut hits = 0usize;
        for _ in 0..5_000 {
            if let Some(v) = map.get(&(rng.next_u64() % 6_250)) {
                hits += v.len();
            }
        }
        let mut words: Vec<u64> = (0..6_250).map(|_| rng.next_u64()).collect();
        words.sort_unstable();
        std::hint::black_box((hits, words[7]));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Current resident set size of this process in MB (`/proc/self/statm`,
/// 4 KiB pages).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(f64::NAN, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

/// The git revision of the working tree, if it is a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The CPU this thread last ran on (`/proc/thread-self/stat`, field
/// 39), or `u32::MAX` when unknown.
pub fn current_cpu() -> u32 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces.
            let rest = &s[s.rfind(')')? + 2..];
            rest.split_whitespace().nth(36)?.parse().ok()
        })
        .unwrap_or(u32::MAX)
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

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (ns) all threads of this process have run, exited threads
/// included. The kernel leaves out time the hypervisor stole from the
/// vCPUs, which wall time includes. 0 if the clock is unavailable.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points at a live `Timespec` with that struct's layout on
    // 64-bit Linux (two `i64`s), the only target this benchmark builds
    // for (it reads `/proc` throughout).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s (`ru_maxrss` … `ru_nivcsw`).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `RUSAGE_SELF` of Linux.
const RUSAGE_SELF: i32 = 0;

/// What the kernel accounts to this process: user and system CPU time,
/// minor page faults and involuntary context switches. The split tells
/// a slow op that ran slow instructions (user time) from one that
/// faulted pages in or was preempted (system time, faults, switches).
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub user_ms: f64,
    pub sys_ms: f64,
    pub minflt: u64,
    pub nivcsw: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage {
            utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        // SAFETY: `getrusage` writes one `struct rusage` through
        // `usage`, which points at a live `Rusage` with that struct's
        // layout on 64-bit Linux.
        if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
            return Usage::default();
        }
        let ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
        Usage {
            user_ms: ms(&ru.utime),
            sys_ms: ms(&ru.stime),
            minflt: u64::try_from(ru.longs[4]).unwrap_or(0),
            nivcsw: u64::try_from(ru.longs[13]).unwrap_or(0),
        }
    }

    /// The usage accrued since `before`.
    pub fn since(self, before: Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - before.user_ms,
            sys_ms: self.sys_ms - before.sys_ms,
            minflt: self.minflt.saturating_sub(before.minflt),
            nivcsw: self.nivcsw.saturating_sub(before.nivcsw),
        }
    }
}
