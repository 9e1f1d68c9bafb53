//! Timing a call, and order statistics over the samples.

use std::time::Instant;

/// `f`'s result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// The seconds `f` takes.
pub fn seconds(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// The nearest-rank `p`-th percentile (`0.0..=100.0`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; `0.0` for no samples (a layer the workload never entered).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest sample; `0.0` for no samples.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest of p90 / p99 / p99.9 with at least ten samples beyond it,
/// as `(label, value)`; `None` when even p90 has fewer.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0)]
        .into_iter()
        .find(|(_, p)| resolved(samples, *p))
        .map(|(label, p)| (label, percentile(samples, p)))
}

/// Whether at least ten samples lie beyond the `p`-th percentile.
fn resolved(samples: &[f64], p: f64) -> bool {
    samples.len() as f64 * (100.0 - p) / 100.0 >= 10.0
}

/// `p`-th percentile when at least ten samples lie beyond it, else `0.0`.
pub fn percentile_if_resolved(samples: &[f64], p: f64) -> f64 {
    if resolved(samples, p) {
        percentile(samples, p)
    } else {
        0.0
    }
}
