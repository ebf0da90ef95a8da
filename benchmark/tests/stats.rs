//! Median and percentile selection, the log2 histogram, the bound check.

use s2e_benchmark::stats::{log2_histogram, median, percentile, worse_by_more_than};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn percentile_returns_a_measured_sample_by_nearest_rank() {
    let samples: Vec<f64> = (1..=10).map(f64::from).rev().collect();
    assert_eq!(percentile(&samples, 0.9), 9.0);
    assert_eq!(percentile(&samples, 0.5), 5.0);
    assert_eq!(percentile(&samples, 1.0), 10.0);
    assert_eq!(percentile(&samples, 0.0), 1.0);
    // 0.91 of ten samples needs the tenth.
    assert_eq!(percentile(&samples, 0.91), 10.0);
}

#[test]
#[should_panic(expected = "no samples")]
fn median_of_nothing_is_a_bug() {
    median(&[]);
}

#[test]
fn log2_buckets_hold_their_power_of_two() {
    assert_eq!(
        log2_histogram(&[0, 1, 2, 3, 4, 7, 8, 1023, 1024]),
        vec![2, 2, 2, 1, 0, 0, 0, 0, 0, 1, 1]
    );
    assert!(log2_histogram(&[]).is_empty());
}

#[test]
fn worse_is_judged_in_the_metric_s_direction() {
    // Lower is better: 10% above the base is the edge, beyond it fails.
    assert!(!worse_by_more_than(100.0, 110.0, 0.10, true));
    assert!(worse_by_more_than(100.0, 110.1, 0.10, true));
    assert!(!worse_by_more_than(100.0, 50.0, 0.10, true));
    // Higher is better: falling is what counts.
    assert!(!worse_by_more_than(100.0, 90.0, 0.10, false));
    assert!(worse_by_more_than(100.0, 89.9, 0.10, false));
    assert!(!worse_by_more_than(100.0, 200.0, 0.10, false));
}
