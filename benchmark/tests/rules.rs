//! The summary rules: which percentile a sample supports, and how
//! repetitions become one number.

use benchmark::stats::{highest_percentile, low_decile, median, percentile, tail_percentile};

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(highest_percentile(19), None);
    assert_eq!(highest_percentile(20), Some(500));
    assert_eq!(highest_percentile(999), Some(950));
    assert_eq!(highest_percentile(1000), Some(990));
    assert_eq!(highest_percentile(1024), Some(990));
    assert_eq!(highest_percentile(10_000), Some(999));
}

#[test]
fn the_reported_tail_is_p99_or_the_highest_supported_below_it() {
    assert_eq!(tail_percentile(10_000), Some(990));
    assert_eq!(tail_percentile(1024), Some(990));
    assert_eq!(tail_percentile(100), Some(900));
    assert_eq!(tail_percentile(10), None);
}

#[test]
fn percentiles_are_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 500), 50);
    assert_eq!(percentile(&v, 990), 99);
    assert_eq!(percentile(&v, 999), 100);
    assert_eq!(percentile(&[7], 990), 7);
}

#[test]
fn a_layer_driver_reports_the_median_of_its_runs() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[5.0]), 5.0);
}

#[test]
fn an_end_to_end_timing_is_the_low_decile_of_its_segments() {
    let segs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(low_decile(&segs), 2.0);
    assert_eq!(low_decile(&[5.0]), 5.0);
    assert_eq!(low_decile(&[5.0, 9.0, 7.0]), 5.0);
    assert_eq!(
        low_decile(&(1..=11).map(f64::from).collect::<Vec<_>>()),
        2.0
    );
    // Disturbing up to nine tenths of the segments does not move it.
    let quiet: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i % 5) * 0.005).collect();
    let mut noisy = quiet.clone();
    for v in &mut noisy[15..] {
        *v *= 1.5;
    }
    assert!((low_decile(&noisy) - low_decile(&quiet)).abs() < 0.02);
}
