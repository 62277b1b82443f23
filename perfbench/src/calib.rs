//! Host-speed calibration.
//!
//! A shared host's effective speed drifts by tens of percent over
//! seconds to minutes (co-tenants on the same cores), which swamps
//! the differences a benchmark exists to show. The passes therefore
//! time a fixed reference kernel, independent of the program under
//! test, between runs, and scale each run's wall time by how fast the
//! host ran the reference at that moment. Calibrated times read as
//! host time on a machine that runs the reference in [`NOMINAL_MS`];
//! the raw times go to the report file beside them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Reference-kernel time, in ms, that calibrated times are scaled
/// to: the kernel's median time in an uncontended phase of the
/// 2-core Intel Xeon host the benchmark was sized on.
pub const NOMINAL_MS: f64 = 1.0;

/// Reference samples the speed estimate is the median of.
const WINDOW: usize = 5;

/// The reference kernel: a small discrete-event loop — a binary heap
/// of timestamps, short-lived vectors, branchy integer work — the
/// same kinds of work the simulator does, on data of its own.
fn kernel() -> u64 {
    let mut heap = BinaryHeap::with_capacity(2048);
    for i in 0..2000u64 {
        heap.push(Reverse((i * 7919) % 10_007));
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..15_000 {
        let Reverse(t) = heap.pop().expect("the heap never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v: Vec<u64> = (0..x % 8).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>() + t);
        heap.push(Reverse(t + 1 + x % 1000));
    }
    acc
}

/// Times one run of the reference kernel, in ms.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// A running estimate of the host's speed relative to nominal.
#[derive(Debug)]
pub struct Speed {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl Speed {
    /// Starts an estimate from a window of fresh samples.
    pub fn new() -> Self {
        let mut s = Speed {
            recent: VecDeque::with_capacity(WINDOW + 1),
            all: Vec::new(),
        };
        for _ in 0..WINDOW {
            s.sample();
        }
        s
    }

    /// Times the reference once more.
    pub fn sample(&mut self) {
        let ms = reference_ms();
        self.all.push(ms);
        self.recent.push_back(ms);
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
    }

    /// Factor that turns a host time measured now into a calibrated
    /// one: nominal over the median of the recent reference times.
    pub fn factor(&self) -> f64 {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        NOMINAL_MS / v[v.len() / 2]
    }

    /// Median of every reference time taken, in ms.
    pub fn median_ms(&self) -> f64 {
        let mut v = self.all.clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}
