//! Order statistics for latency samples and run-to-run spreads.

/// Percentile of an ascending-sorted sample by nearest rank (`p` in 0..=1).
/// Empty samples give 0 so a metric is always a number.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The tail percentile a sample of `n` supports: the highest of
/// 99 / 95 / 90 / 75 / 50 that is at most `cap` and leaves at least
/// `min_beyond` samples beyond it, with the number of samples beyond.
pub fn tail_percentile(n: usize, cap: f64, min_beyond: usize) -> (f64, usize) {
    for percent in [99, 95, 90, 75] {
        // Integer arithmetic: (1 − 0.9) · 150 is 14.999… in floating point.
        let beyond = n * (100 - percent) / 100;
        let p = percent as f64 / 100.0;
        if p <= cap && beyond >= min_beyond {
            return (p, beyond);
        }
    }
    (0.50, n / 2)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them — the rule the benchmark driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}
