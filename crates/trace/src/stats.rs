//! Small statistics helpers shared by the generators and the benches that
//! reproduce the paper's distribution figures (Fig. 2/3).

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted data.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty data");
    assert!(
        (0.0..=100.0).contains(&p),
        "p must lie in [0, 100], got {p}"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Evaluates an empirical CDF at a probe value.
#[must_use]
pub fn cdf_at(values: &[f64], probe: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= probe).count() as f64 / values.len() as f64
}

/// Arithmetic mean (0 for empty input).
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
    fn percentile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn cdf_at_probes() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(cdf_at(&v, 2.5), 0.5);
        assert_eq!(cdf_at(&v, 0.0), 0.0);
        assert_eq!(cdf_at(&v, 4.0), 1.0);
        assert_eq!(cdf_at(&[], 1.0), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
