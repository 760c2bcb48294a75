//! Order statistics over small samples of `f64` measurements.

/// The sorted copy every statistic below works from.
///
/// # Panics
///
/// Panics on an empty sample or a NaN: both mean the measurement code
/// above is broken, and a silent 0 would pass for a result.
fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    assert!(values.iter().all(|v| !v.is_nan()), "NaN in a sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `p`
/// percent of the sample at or below it (`p` in `0..=100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[1e9, 2.0, 1.0, 3.0, 2.5]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p99 is the maximum, p90 the ninth value.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_bug() {
        median(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_a_bug() {
        percentile(&[1.0, f64::NAN], 50.0);
    }
}
