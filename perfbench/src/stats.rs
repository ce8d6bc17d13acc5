//! Harness helpers: nearest-rank percentiles, the tail-percentile rule,
//! windowed summaries (raw or scaled to the host-speed gauge) and due-time
//! latency accounting for coalesced completions.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples [`Summary::of`] accepts: the median then has
/// [`TAIL_BEYOND`] beyond it.
pub const MIN_SAMPLES: usize = 2 * TAIL_BEYOND;

/// The percentile ladder the tail rule picks from, highest first.
const TAIL_LEVELS: [f64; 3] = [0.99, 0.9, 0.5];

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(n * p)` (1-based), clamped to `[1, n]`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of the ladder (p99, p90, p50) with at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_BEYOND)
}

/// Summary of one wall-clock sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub mean: f64,
    /// The tail percentile chosen by [`tail_level`] and its value.
    pub tail_level: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if the sample set is too small for the tail rule.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let level = tail_level(sorted.len()).unwrap_or_else(|| {
            panic!(
                "{} samples leave fewer than {TAIL_BEYOND} beyond the median",
                sorted.len()
            )
        });
        Self {
            mean: mean(&sorted),
            tail_level: level,
            tail: percentile(&sorted, level),
        }
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of any-order values (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() == 2 * mid {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A timing summarised over back-to-back windows of identical work: the
/// median of the windows' means and of their tail percentiles. Load from
/// outside the program that covers a minority of the windows, slowing them
/// or (by leaving the host idle) speeding them up, moves neither figure.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub windows: usize,
    pub mean: f64,
    pub tail_level: f64,
    pub tail: f64,
}

/// Index ranges of the back-to-back windows of `size` samples that `len`
/// time-ordered samples split into; a shorter remainder joins the last
/// window, and there is at least one.
fn window_ranges(len: usize, size: usize) -> impl Iterator<Item = Range<usize>> {
    let count = (len / size.max(1)).max(1);
    let size = len / count;
    (0..count).map(move |i| i * size..if i + 1 == count { len } else { (i + 1) * size })
}

/// Splits time-ordered `samples` into back-to-back windows of `size`
/// samples (see [`window_ranges`]).
fn windows(samples: &[f64], size: usize) -> impl Iterator<Item = &[f64]> {
    window_ranges(samples.len(), size).map(move |r| &samples[r])
}

/// The median over windows of each window's figures times its scale.
fn median_window(summaries: &[(Summary, f64)], size: usize) -> Windowed {
    let tail_level = summaries[0].0.tail_level;
    assert!(
        summaries.iter().all(|(s, _)| s.tail_level == tail_level),
        "windows of {size}+ samples straddle a tail level"
    );
    let median_of = |f: fn(&Summary) -> f64| {
        median(
            &summaries
                .iter()
                .map(|(s, scale)| f(s) * scale)
                .collect::<Vec<_>>(),
        )
    };
    Windowed {
        windows: summaries.len(),
        mean: median_of(|s| s.mean),
        tail_level,
        tail: median_of(|s| s.tail),
    }
}

/// Summarises each of the back-to-back [`windows`] of `samples` with
/// [`Summary::of`].
///
/// # Panics
///
/// Panics if a window is too small for the tail rule, or if the windows
/// disagree on the tail level.
pub fn windowed(samples: &[f64], size: usize) -> Windowed {
    let summaries: Vec<_> = windows(samples, size)
        .map(|w| (Summary::of(w), 1.0))
        .collect();
    median_window(&summaries, size)
}

/// The gauge reading that stands for the samples in `range`: the mean of
/// the readings taken among them (a reading tagged `i` was taken after
/// sample `i - 1` and before sample `i`), or else the last reading before
/// them, or else the first one after.
pub fn gauge_for(range: Range<usize>, readings: &[(usize, f64)]) -> f64 {
    let inside: Vec<f64> = readings
        .iter()
        .filter(|(at, _)| range.contains(at))
        .map(|&(_, ms)| ms)
        .collect();
    if !inside.is_empty() {
        return mean(&inside);
    }
    readings
        .iter()
        .rev()
        .find(|(at, _)| *at < range.start)
        .or_else(|| readings.first())
        .map(|&(_, ms)| ms)
        .expect("the gauge has been read")
}

/// Like [`windowed`], with each window's figures scaled to the gauge:
/// multiplied by `nominal_ms` over the gauge's reading for that window
/// ([`gauge_for`]).
///
/// # Panics
///
/// As [`windowed`], and if `readings` is empty.
pub fn gauged(
    samples: &[f64],
    size: usize,
    readings: &[(usize, f64)],
    nominal_ms: f64,
) -> Windowed {
    let summaries: Vec<_> = window_ranges(samples.len(), size)
        .map(|r| {
            let scale = nominal_ms / gauge_for(r.clone(), readings);
            (Summary::of(&samples[r]), scale)
        })
        .collect();
    median_window(&summaries, size)
}

/// One submitted request still waiting for the completion that folds it.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// When the open-loop schedule wanted it sent.
    pub due: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// Whether the traced run traces it.
    pub traced: bool,
}

/// Per-tenant FIFO of outstanding requests. A completion that folds `k`
/// submissions of a tenant retires that tenant's `k` oldest requests: the
/// service coalesces a tenant's queued events into one re-plan, and later
/// submissions wait for the next one.
#[derive(Debug, Default)]
pub struct Outstanding {
    by_tenant: BTreeMap<u64, VecDeque<Pending>>,
    len: usize,
}

impl Outstanding {
    pub fn push(&mut self, tenant: u64, pending: Pending) {
        self.by_tenant.entry(tenant).or_default().push_back(pending);
        self.len += 1;
    }

    /// Retires up to `coalesced` oldest requests of `tenant`, returning them
    /// oldest first.
    pub fn complete(&mut self, tenant: u64, coalesced: usize) -> Vec<Pending> {
        let Some(queue) = self.by_tenant.get_mut(&tenant) else {
            return Vec::new();
        };
        let k = coalesced.min(queue.len());
        let done: Vec<Pending> = queue.drain(..k).collect();
        self.len -= done.len();
        done
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, tenant: u64) -> bool {
        self.by_tenant.get(&tenant).is_some_and(|q| !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(99), Some(0.5));
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
        let s = Summary::of(&(1..=400).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail_level, s.tail), (0.9, 360.0));
        assert!((s.mean - 200.5).abs() < 1e-12);
    }

    #[test]
    fn windows_report_the_median_window() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Three windows of 100: a burst ten times slower, then a normal
        // window, then one at half the time.
        let mut v: Vec<f64> = (1..=100).map(|x| f64::from(x) * 10.0).collect();
        v.extend((1..=100).map(f64::from));
        v.extend((1..=100).map(|x| f64::from(x) / 2.0));
        let w = windowed(&v, 100);
        assert_eq!((w.windows, w.tail_level, w.tail), (3, 0.9, 90.0));
        assert!((w.mean - 50.5).abs() < 1e-12);
        // A remainder joins the last window instead of forming its own.
        assert_eq!(windowed(&v[..250], 100).windows, 2);
        assert_eq!(windowed(&v[..150], 100).windows, 1);
    }

    #[test]
    fn gauge_scales_each_window_by_its_own_readings() {
        // Two windows of 100: the host runs the second twice as slow, and
        // the gauge reads twice as slow there too.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend((1..=100).map(|x| f64::from(x) * 2.0));
        let readings = [(0, 1.0), (50, 1.0), (100, 2.0), (150, 2.0)];
        let w = gauged(&v, 100, &readings, 1.0);
        assert_eq!((w.windows, w.tail_level, w.tail), (2, 0.9, 90.0));
        assert!((w.mean - 50.5).abs() < 1e-12);
        let raw = windowed(&v, 100);
        assert!((raw.mean - 75.75).abs() < 1e-12);
        // The nominal reading sets the unit.
        assert!((gauged(&v, 100, &readings, 2.0).mean - 101.0).abs() < 1e-12);
        // A window with no reading of its own takes the last one before it,
        // or else the first one after.
        assert_eq!(gauge_for(0..100, &readings), 1.0);
        assert_eq!(gauge_for(200..300, &readings), 2.0);
        assert_eq!(gauge_for(0..10, &[(40, 3.0), (60, 5.0)]), 3.0);
    }

    #[test]
    fn coalesced_completion_retires_oldest_requests_of_its_tenant() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let pending = |due: u64, sent: u64| Pending {
            due: at(due),
            sent: at(sent),
            traced: false,
        };
        let mut out = Outstanding::default();
        out.push(1, pending(0, 1));
        out.push(2, pending(2, 2));
        out.push(1, pending(5, 5));
        out.push(1, pending(9, 9));
        // One re-plan folds tenant 1's first two events: each keeps its own
        // due time, so the later one records a shorter latency.
        let done = out.complete(1, 2);
        let now = at(20);
        let lat: Vec<u128> = done.iter().map(|p| (now - p.due).as_millis()).collect();
        assert_eq!(lat, vec![20, 15]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(1) && out.contains(2));
        // Over-reported coalescing never retires another tenant's requests.
        assert_eq!(out.complete(1, 5).len(), 1);
        assert!(!out.contains(1));
        assert_eq!(out.complete(3, 1).len(), 0);
        assert_eq!(out.complete(2, 1)[0].due, at(2));
        assert!(out.is_empty());
    }
}
