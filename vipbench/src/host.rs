//! The host record written next to every result, so a slower or
//! narrower host can be told apart from a regression: `nproc`, the
//! parallelism two spinning threads actually get, and a fixed
//! spin-kernel calibration score.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration kernel per timing.
const SPIN_ITERS: u64 = 20_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Millions of spin-kernel iterations per second on one thread (best
    /// of three).
    pub calibration_mops: f64,
    /// Work two concurrent spinning threads finish per unit of wall time,
    /// relative to one thread: 2.0 on two free cores, 1.0 on one.
    pub effective_parallelism: f64,
    /// The one CPU the run was pinned to after these measurements.
    pub pinned_cpu: Option<usize>,
}

/// A dependent xorshift chain: one multiply-free ALU step per iteration,
/// no memory traffic, so it measures core speed alone.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

fn best_of_three(f: impl Fn() -> f64) -> f64 {
    (0..3).map(|_| f()).fold(f64::INFINITY, f64::min)
}

pub fn measure() -> Host {
    let one = best_of_three(|| {
        let t = Instant::now();
        spin(SPIN_ITERS);
        t.elapsed().as_secs_f64()
    });
    let two = best_of_three(|| {
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(SPIN_ITERS));
            spin(SPIN_ITERS);
            a.join().expect("spin thread does not panic");
        });
        t.elapsed().as_secs_f64()
    });
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        calibration_mops: SPIN_ITERS as f64 / one / 1e6,
        effective_parallelism: 2.0 * one / two,
        pinned_cpu: None,
    }
}

impl Host {
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"calibration_mops\": {}, \"effective_parallelism\": {}, \"pinned_cpu\": {}}}",
            self.nproc,
            self.calibration_mops,
            self.effective_parallelism,
            self.pinned_cpu.map_or("null".into(), |c| c.to_string())
        )
    }
}

/// Aggregate CPU time counters of the host's `cpu` line in `/proc/stat`:
/// (steal, total), in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: a busy neighbour shows here, not in the code.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}
