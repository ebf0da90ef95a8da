//! Order statistics over timing samples, and the log2 histogram the
//! solver replay prints.

/// The `p`-quantile (0.0..=1.0) by nearest rank: the smallest sample
/// with at least `p` of the population at or below it. Returns an
/// actual sample, never an interpolation, so a reported time is one
/// that was measured.
///
/// # Panics
///
/// Panics on an empty slice (a benchmark bug: nothing was measured).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// [`median`] for nanosecond counters.
pub fn median_ns(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// [`percentile`] for nanosecond counters; 0 when nothing was sampled.
pub fn percentile_ns(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>(), p)
}

/// Counts per power-of-two bucket: bucket `i` holds samples in
/// `[2^i, 2^(i+1))`, with 0 counted in bucket 0.
pub fn log2_histogram(samples: &[u64]) -> Vec<u64> {
    let mut buckets = Vec::new();
    for &s in samples {
        let i = (u64::BITS - 1).saturating_sub(s.leading_zeros()) as usize;
        if buckets.len() <= i {
            buckets.resize(i + 1, 0);
        }
        buckets[i] += 1;
    }
    buckets
}

/// One line per non-empty bucket, for the human-readable report.
pub fn render_log2_histogram(samples: &[u64]) -> String {
    let buckets = log2_histogram(samples);
    let peak = buckets.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bar = "#".repeat((n * 40).div_ceil(peak) as usize);
        out.push_str(&format!("    [2^{i:<2} ns) {n:>6} {bar}\n"));
    }
    out
}

/// Whether `candidate` is worse than `base` by more than `bound` (a
/// share of `base`), for a metric where `lower_is_better` or not.
pub fn worse_by_more_than(base: f64, candidate: f64, bound: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        candidate > base * (1.0 + bound)
    } else {
        candidate < base * (1.0 - bound)
    }
}
