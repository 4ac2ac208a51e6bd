//! Order statistics over timing samples.

/// The fewest samples a 99th percentile is reported from: below this, fewer
/// than ten samples lie beyond it and the figure is one or two outliers.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of ascending `sorted` at `q` ∈ [0, 1].
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The 99th percentile, or `None` when `sorted` holds fewer than
/// [`P99_MIN_SAMPLES`] samples.
#[must_use]
pub fn p99(sorted: &[f64]) -> Option<f64> {
    (sorted.len() >= P99_MIN_SAMPLES).then(|| percentile(sorted, 0.99))
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `0` for no values.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99(&enough), Some(989.0));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }
}
