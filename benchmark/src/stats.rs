//! The two summary rules every number in this benchmark goes through:
//! a percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and an end-to-end timing is the low decile over a run's
//! segments.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in tenths of a percent, ascending.
const LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile (in tenths of a percent, e.g. `990` = p99) that
/// still has at least [`MIN_BEYOND`] of `n` samples beyond it; `None`
/// when not even the median qualifies.
pub fn highest_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (1000 - p as usize) >= MIN_BEYOND * 1000)
}

/// The tail percentile this benchmark reports as `op_p99_us`: p99 when the
/// sample supports it, else the highest percentile that is supported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    highest_percentile(n).map(|p| p.min(990))
}

/// Nearest-rank percentile (`p` in tenths of a percent) of an ascending
/// slice.
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * p as usize).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// Nearest-rank median of integer samples; 0 for an empty sample (a span
/// leg that never occurred).
pub fn p50_or_zero(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    percentile(&samples, 500)
}

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The low decile (nearest rank) of `values`: what an end-to-end timing
/// is over the segments of a run. What still disturbs a run under
/// `SCHED_FIFO` (README, *Steadiness*) comes in bursts of tens of
/// milliseconds to seconds and only ever adds time, so the undisturbed
/// level is the one that repeats. The tenth percentile sits on it until
/// nine tenths of a run are disturbed, where a median gives way at half;
/// percentiles lower still are noisier again.
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "decile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(10) - 1]
}
