//! Host-speed gauge.
//!
//! The benchmark runs on a few cores of a shared host. Load from outside
//! the program slows the same code by a third or more, in stretches of
//! seconds to minutes. It does not take the CPU away: the thread's CPU time
//! grows with its wall time. It shares the cores' execution units, so
//! branchy, allocation-heavy code such as the simulator and the planner
//! slows most, while a pointer chase through memory hardly moves.
//!
//! The gauge is a fixed piece of work of the benchmark's own, in the same
//! style: an ordered map, a hash map, many small allocations and
//! unpredictable branches, none of it the repository's code. It is timed
//! again and again between the timed operations. A timing scaled by the
//! gauge's reading over the same stretch of the run moves far less with the
//! host's state, while a change to the repository's code still moves it in
//! full.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The gauge reading that scaled timings are expressed against: a figure
/// scaled by the gauge reads as if one reading took this long.
pub const NOMINAL_MS: f64 = 1.0;

/// Keys inserted into, then looked up in, the ordered map per reading.
const ORDERED_KEYS: u64 = 2_000;
/// Keys inserted into, then looked up in, the hash map per reading.
const HASHED_KEYS: u64 = 2_000;
/// Small vectors allocated per reading, 64 of them alive at a time.
const ALLOCATIONS: usize = 2_000;
/// Iterations of the data-dependent branch loop per reading.
const BRANCHES: usize = 30_000;
/// Readings taken and dropped when the gauge is built.
const WARM_UP: usize = 10;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One reading's work, the same on every call and every run. Returns a
/// value that depends on all of it.
fn work() -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;

    let mut ordered = BTreeMap::new();
    for i in 0..ORDERED_KEYS {
        ordered.insert(xorshift(&mut x) >> 44, i);
    }
    for _ in 0..ORDERED_KEYS {
        acc = acc.wrapping_add(*ordered.get(&(xorshift(&mut x) >> 44)).unwrap_or(&1));
    }

    // A fixed hasher: the same table layout on every run.
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..HASHED_KEYS {
        hashed.insert(xorshift(&mut x) >> 48, i);
    }
    for _ in 0..HASHED_KEYS {
        acc = acc.wrapping_add(*hashed.get(&(xorshift(&mut x) >> 48)).unwrap_or(&1));
    }

    let mut alive: Vec<Vec<u64>> = Vec::with_capacity(64);
    for i in 0..ALLOCATIONS {
        let v = vec![i as u64; (xorshift(&mut x) % 200) as usize + 1];
        if alive.len() < alive.capacity() {
            alive.push(v);
        } else {
            let k = (x % alive.len() as u64) as usize;
            acc = acc.wrapping_add(alive[k].len() as u64);
            alive[k] = v;
        }
    }

    for _ in 0..BRANCHES {
        let y = xorshift(&mut x);
        if y & 1 == 0 {
            acc = acc.wrapping_add(y >> 3);
        } else if y & 2 == 0 {
            acc ^= y;
        } else {
            acc = acc.rotate_left(3);
        }
    }
    acc
}

/// The gauge's readings, each tagged with the number of timed operations
/// done before it was taken.
pub struct Gauge {
    readings: Vec<(usize, f64)>,
    every: Duration,
    last: Instant,
    spent: Duration,
}

impl Gauge {
    /// Warms the gauge up. [`Gauge::tick`] reads it at most once per
    /// `every`.
    pub fn new(every: Duration) -> Self {
        for _ in 0..WARM_UP {
            black_box(work());
        }
        Self {
            readings: Vec::new(),
            every,
            last: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Times one reading, records it against `done` operations and returns
    /// it in milliseconds.
    pub fn read(&mut self, done: usize) -> f64 {
        let start = Instant::now();
        black_box(work());
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        self.readings.push((done, ms));
        self.last = end;
        self.spent += end - start;
        ms
    }

    /// Reads the gauge if `every` has passed since the last reading.
    pub fn tick(&mut self, done: usize) {
        if self.last.elapsed() >= self.every {
            self.read(done);
        }
    }

    /// The readings: (operations done before it, milliseconds).
    pub fn readings(&self) -> &[(usize, f64)] {
        &self.readings
    }

    /// Median reading over the run, milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.readings.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    /// Scales a wall time taken during the run to the gauge: [`NOMINAL_MS`]
    /// over the median reading.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }

    /// Wall time spent reading the gauge.
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_tagged_and_the_work_repeats() {
        assert_eq!(work(), work());
        let mut gauge = Gauge::new(Duration::ZERO);
        gauge.read(3);
        gauge.tick(5);
        let tags: Vec<usize> = gauge.readings().iter().map(|&(at, _)| at).collect();
        assert_eq!(tags, vec![3, 5]);
        assert!(gauge.readings().iter().all(|&(_, ms)| ms > 0.0));
        let spent: f64 = gauge.readings().iter().map(|&(_, ms)| ms).sum();
        assert!((gauge.spent().as_secs_f64() * 1e3 - spent).abs() < 1e-6);
        // Too soon for another reading.
        let mut slow = Gauge::new(Duration::from_secs(3600));
        slow.tick(1);
        assert!(slow.readings().is_empty());
    }
}
