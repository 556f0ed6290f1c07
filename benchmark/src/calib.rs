//! Host speed calibration.
//!
//! The cores of the benchmark machine change speed by up to a half for
//! seconds to minutes at a time, with the whole machine otherwise idle:
//! the host shares them. Raw wall times of CPU-bound work then spread by
//! 15–30% across runs of the same code. So every timed window is
//! bracketed by a fixed kernel, run on all workers at once, and the
//! window's time is scaled by the kernel's nominal time over its measured
//! time: throughput and latency read as they would at the nominal speed.
//! The kernel is the benchmark's own code, so no change to the program can
//! speed it up or slow it down.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::WORKERS;

/// The speed scaled times read at: about the kernel's fastest time on the
/// benchmark machine, ns.
pub const NOMINAL_NS: f64 = 1_000_000.0;

/// Iterations of the kernel's loop: about 1 ms at full speed.
const ITERATIONS: u64 = 20_000;
/// Kernel runs per measurement; the fastest counts, so an interrupt
/// during one run does not read as a slow core.
const REPEATS: usize = 3;
/// How long [`settle`] keeps the cores busy, s.
const SETTLE_S: f64 = 2.0;

/// A fixed mix of the work the workloads do: a priority queue, a hash
/// map, random reads and writes over a buffer larger than the caches
/// closest to the core, short-lived allocations and number formatting.
fn kernel(buffer: &mut [u64]) -> u64 {
    use std::collections::{BinaryHeap, HashMap};
    use std::fmt::Write as _;
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(2048);
    let mut text = String::with_capacity(64);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 20));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |v| v.0);
        }
        *map.entry(x & 2047).or_default() += i;
        let slot = (x >> 5) as usize & (buffer.len() - 1);
        buffer[slot] = buffer[slot].wrapping_mul(x | 1);
        if i % 8 == 0 {
            text.clear();
            let _ = write!(text, "{{\"t\":{},\"n\":{}}}", (x >> 11) as f64 * 1e-9, i);
            acc ^= text.len() as u64;
            let short: Vec<u64> = (0..16).map(|k| k ^ x).collect();
            acc ^= short[(x & 15) as usize];
        }
    }
    acc ^ map.len() as u64
}

/// The kernel's buffers, one per worker, allocated on first use and kept
/// for the life of the process, so that they add the same amount to every
/// peak memory a workload reports rather than only when, allocated afresh,
/// they land in new pages while a batch's results are still alive.
fn buffers() -> &'static [Mutex<Vec<u64>>] {
    static BUFFERS: OnceLock<Vec<Mutex<Vec<u64>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        (0..WORKERS)
            .map(|_| Mutex::new(vec![1u64; 1 << 17]))
            .collect()
    })
}

/// Runs the kernel on every worker at once; returns the mean over workers
/// of each one's fastest run, ns.
pub fn measure() -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = buffers()
            .iter()
            .map(|buffer| {
                scope.spawn(move || {
                    let mut buffer = buffer.lock().expect("the kernel does not panic");
                    (0..REPEATS)
                        .map(|_| {
                            let started = Instant::now();
                            std::hint::black_box(kernel(&mut buffer));
                            started.elapsed().as_nanos() as f64
                        })
                        .fold(f64::INFINITY, f64::min)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Keeps every worker busy with the kernel for [`SETTLE_S`] seconds.
///
/// Cores that were idle before the benchmark started come up to speed
/// over a second or two, unevenly: set-ups timed in that first stretch
/// read up to twice as slow as the same work a few seconds later, and the
/// kernel's brackets do not see it. Run before the first set-up, this
/// leaves the program's own work, set-up included, all timed.
pub fn settle() {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for buffer in buffers() {
            scope.spawn(move || {
                let mut buffer = buffer.lock().expect("the kernel does not panic");
                while started.elapsed().as_secs_f64() < SETTLE_S {
                    std::hint::black_box(kernel(&mut buffer));
                }
            });
        }
    });
}

/// The wall time of some work and that time scaled to the nominal speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// As measured, s.
    pub wall_s: f64,
    /// Scaled to the nominal speed, s.
    pub scaled_s: f64,
}

impl Timing {
    /// `wall_s`, a part of this timing, scaled the same way.
    pub fn part(&self, wall_s: f64) -> Timing {
        Timing {
            wall_s,
            scaled_s: wall_s * crate::ledger::ratio(self.scaled_s, self.wall_s),
        }
    }

    /// A time left as measured: work whose time does not follow the cores'
    /// speed, such as a reply held back by a TCP timer.
    pub fn unscaled(wall_s: f64) -> Timing {
        Timing {
            wall_s,
            scaled_s: wall_s,
        }
    }

    /// This timing followed by `next`.
    pub fn then(&self, next: Timing) -> Timing {
        Timing {
            wall_s: self.wall_s + next.wall_s,
            scaled_s: self.scaled_s + next.scaled_s,
        }
    }
}

/// Runs `work` between two runs of the kernel and times it.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Timing) {
    let before = measure();
    let started = Instant::now();
    let out = work();
    let wall_s = started.elapsed().as_secs_f64();
    let after = measure();
    let timing = Timing {
        wall_s,
        scaled_s: wall_s * NOMINAL_NS * 2.0 / (before + after),
    };
    (out, timing)
}

/// The untraced and traced times of the same work, summed over the pairs a
/// traced run measures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pairs {
    untraced_s: f64,
    traced_s: f64,
    traced_wall_s: f64,
}

impl Pairs {
    /// Adds one pair: the work untraced, then its traced replica.
    pub fn add(&mut self, untraced: Timing, traced: Timing) {
        self.untraced_s += untraced.scaled_s;
        self.traced_s += traced.scaled_s;
        self.traced_wall_s += traced.wall_s;
    }

    /// Wall time spent in traced replicas, s.
    pub fn traced_wall_s(&self) -> f64 {
        self.traced_wall_s
    }

    /// Traced time over untraced time, minus 1.
    pub fn overhead(&self) -> f64 {
        crate::ledger::ratio(self.traced_s, self.untraced_s) - 1.0
    }
}
