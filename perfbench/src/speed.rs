//! Host-speed normalisation.
//!
//! On a shared host the speed of one thread drifts by ±15% over tens of
//! seconds (other tenants, frequency changes), far more than the bounds
//! this benchmark gates on. A fixed CPU kernel that shares no code with
//! the program under test is timed between measurement windows, and each
//! window's times are scaled by `KERNEL_REF_MS / kernel time`: they read
//! as if the host ran at the speed it had when the reference was taken.
//! Because the kernel never calls the program, a change to the program
//! cannot move the factor. Raw values go to the run record beside the
//! scaled ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The kernel's time on the 2-vCPU host the benchmark was written on.
pub const KERNEL_REF_MS: f64 = 2.5;

/// Allocation-heavy map churn and a branchy stack machine: the same kinds
/// of work as the graph-reduction machine, in plain Rust.
fn kernel() -> u64 {
    let mut acc = 0u64;
    let mut map = BTreeMap::new();
    for i in 0..5_000u64 {
        map.insert(i.wrapping_mul(2_654_435_761) % 100_003, Box::new(i));
    }
    for i in 0..5_000u64 {
        if let Some(v) = map.get(&(i.wrapping_mul(40_503) % 100_003)) {
            acc += **v;
        }
    }
    let mut stack: Vec<u64> = Vec::with_capacity(64);
    for n in 0..50u64 {
        stack.push(n % 23);
        while let Some(x) = stack.pop() {
            if x < 2 {
                acc += x;
            } else {
                stack.push(x - 1);
                stack.push(x - 2);
            }
        }
    }
    black_box(acc)
}

/// The kernel's current time in ms (about 2.5 ms).
pub fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_secs_f64() * 1e3
}

/// The median of three kernel times in ms: one reading that a preemption
/// stretched does not move it.
pub fn kernel_ms_median() -> f64 {
    let mut t = [kernel_ms(), kernel_ms(), kernel_ms()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The kernel's time in ms with `threads` copies running at once (their
/// mean, each the median of three runs): the speed of a host whose cores
/// are all busy, as they are while a server works.
pub fn kernel_ms_on(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(kernel_ms_median))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the speed kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

/// The factor that scales times measured between two kernel readings.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    KERNEL_REF_MS / ((before_ms + after_ms) / 2.0)
}

/// The host's CPU time counters from `/proc/stat`: (stolen, total) ticks,
/// summed over CPUs. Stolen time is time the hypervisor gave this machine's
/// CPUs to someone else; nothing the program does can cause it.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// A window during which the hypervisor stole more than this share of the
/// CPU measured the neighbours, not the program.
pub const STOLEN_LIMIT: f64 = 0.05;

/// Which windows, given the share stolen during each, the medians use:
/// those within `STOLEN_LIMIT`, but at least the `min_kept` least stolen.
pub fn kept_windows(stolen: &[f64], min_kept: usize) -> Vec<bool> {
    let clean = stolen.iter().filter(|&&s| s <= STOLEN_LIMIT).count();
    let mut by_stolen: Vec<usize> = (0..stolen.len()).collect();
    by_stolen.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let mut keep = vec![false; stolen.len()];
    for &k in &by_stolen[..clean.max(min_kept).min(stolen.len())] {
        keep[k] = true;
    }
    keep
}

/// Share of CPU time stolen between two `cpu_ticks` readings.
pub fn stolen(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Runs `f` while one thread per core spins at the lowest scheduling
/// priority (`SCHED_IDLE`), taking CPU only when nothing else wants it.
/// On a virtual machine a core with nothing to run halts, and on a busy
/// host every wake-up of a halted core then waits in the hypervisor's run
/// queue: a server whose threads sleep and wake thousands of times a
/// second measured that queue (as stolen time), not itself.
pub fn cores_awake<T>(f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..std::thread::available_parallelism().map_or(1, |n| n.get()) {
            scope.spawn(|| {
                if idle_priority() {
                    // No `spin_loop` hint: a pause loop makes the
                    // hypervisor take the core away.
                    #[allow(clippy::missing_spin_loop)]
                    while !stop.load(Ordering::Relaxed) {}
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Moves the calling thread to `SCHED_IDLE`; false if that failed.
fn idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 names the calling thread, and the parameter outlives
    // the call, which only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) == 0 }
}

/// Share of CPU time stolen while `threads` copies of the kernel keep
/// every core busy for `dur` (an idle machine is rarely stolen from).
pub fn stolen_while_busy(threads: usize, dur: std::time::Duration) -> f64 {
    let before = cpu_ticks();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while t0.elapsed() < dur {
                    black_box(kernel());
                }
            });
        }
    });
    stolen(before, cpu_ticks())
}
