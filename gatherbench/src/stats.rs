//! Order statistics over timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least one
/// sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The first and third quartiles by the "exclusive" method — the default
/// of Python's `statistics.quantiles(values, n=4)` — so spreads printed
/// here match the ones a Python check computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let len = sorted.len();
    assert!(len > 0, "quartiles of no samples");
    if len == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks — used for per-cell latency percentiles.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.98), 98.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(percentile(&[4.0], 0.98), 4.0);
    }
}
