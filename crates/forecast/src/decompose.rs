//! Adaptive temporal pattern decomposition (Eq. 1–2).
//!
//! OrgLinear separates a demand series into a slow *trend* component and the
//! residual *cyclical* component with a moving-average kernel that uses
//! **reflection padding** to avoid boundary artefacts — the
//! `K_MA` operator of Eq. 1.

/// Moving average of `xs` with an odd window, using reflection padding at
/// both ends (`x[-1] = x[1]`, etc.), so the output has the same length.
///
/// # Panics
///
/// Panics if `window` is zero or even.
///
/// # Examples
///
/// ```
/// use gfs_forecast::decompose::moving_average;
///
/// let trend = moving_average(&[1.0, 2.0, 3.0, 4.0, 5.0], 3);
/// assert_eq!(trend.len(), 5);
/// assert!((trend[2] - 3.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(
        window % 2 == 1 && window > 0,
        "window must be odd and positive"
    );
    if xs.is_empty() {
        return Vec::new();
    }
    let half = window / 2;
    let n = xs.len();
    // materialize the reflection-padded series once, then compute all
    // window means in O(n) via prefix sums (see `windowed_means` for the
    // rounding caveat) instead of per-element modular index arithmetic
    let reflect = |i: isize| -> usize {
        let idx = if i < 0 {
            (-i) as usize % (2 * n.max(1))
        } else if (i as usize) >= n {
            let over = i as usize - n + 1;
            n.saturating_sub(1 + over % n.max(1))
        } else {
            i as usize
        };
        idx.min(n - 1)
    };
    let mut padded = Vec::with_capacity(n + 2 * half);
    for i in -(half as isize)..(n + half) as isize {
        padded.push(xs[reflect(i)]);
    }
    windowed_means(&padded, window)
}

/// O(len) windowed means over `padded` via a prefix-sum: each window is a
/// difference of two partial sums instead of a fresh `window`-term sum,
/// turning the decomposition from O(len · window) into O(len). Rounding
/// differs from per-window summation by at most a few ulps, far below the
/// noise floor of the demand series being smoothed.
fn windowed_means(padded: &[f64], window: usize) -> Vec<f64> {
    let n = padded.len() + 1 - window;
    let mut prefix = Vec::with_capacity(padded.len() + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &v in padded {
        acc += v;
        prefix.push(acc);
    }
    (0..n)
        .map(|c| (prefix[c + window] - prefix[c]) / window as f64)
        .collect()
}

/// Splits `xs` into `(trend, cyclical)` with `cyclical = xs − trend`
/// (Eq. 1–2).
#[must_use]
pub fn decompose(xs: &[f64], window: usize) -> (Vec<f64>, Vec<f64>) {
    let trend = moving_average(xs, window);
    let cyclical = xs.iter().zip(&trend).map(|(x, t)| x - t).collect();
    (trend, cyclical)
}

/// [`decompose`] writing its results into caller buffers of length
/// `xs.len()` — the per-sample form used in tests and one-off callers.
/// Training loops use [`DecomposeScratch::decompose_into`] instead, which
/// produces bit-identical output from pooled scratch.
///
/// # Panics
///
/// Panics if the output slices are not the same length as `xs`.
pub fn decompose_into(xs: &[f64], window: usize, trend: &mut [f64], cyclical: &mut [f64]) {
    DecomposeScratch::default().decompose_into(xs, window, trend, cyclical);
}

/// Reusable padded/prefix buffers for the decomposition kernel. The
/// allocating [`decompose`]/[`decompose_into`] forms cost three heap
/// allocations per call; inside a training loop that is three per sample
/// per batch, which violates the tape arena's zero-allocation
/// steady-state contract (see the `forecast-alloc-gate` lane). Holding
/// one of these per model makes every warm call allocation-free while
/// producing **bit-identical** floats: the padded series, the prefix
/// sums, and the windowed-mean expression are exactly those of
/// [`moving_average`].
#[derive(Debug, Default, Clone)]
pub struct DecomposeScratch {
    padded: Vec<f64>,
    prefix: Vec<f64>,
}

impl DecomposeScratch {
    /// [`decompose_into`] from pooled scratch; same contract, same
    /// output bits, zero allocations once the buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if `window` is even or zero, or the output slices are not
    /// the same length as `xs`.
    pub fn decompose_into(
        &mut self,
        xs: &[f64],
        window: usize,
        trend: &mut [f64],
        cyclical: &mut [f64],
    ) {
        assert_eq!(trend.len(), xs.len(), "trend buffer length mismatch");
        assert_eq!(cyclical.len(), xs.len(), "cyclical buffer length mismatch");
        assert!(
            window % 2 == 1 && window > 0,
            "window must be odd and positive"
        );
        if xs.is_empty() {
            return;
        }
        let half = window / 2;
        let n = xs.len();
        self.padded.clear();
        if half < n {
            // the reflection rule of `moving_average` never wraps here:
            // x[half], …, x[1], x, x[n−2], …, x[n−1−half]
            self.padded.extend(xs[1..=half].iter().rev());
            self.padded.extend_from_slice(xs);
            self.padded.extend(xs[n - 1 - half..n - 1].iter().rev());
        } else {
            // identical reflection rule to `moving_average`
            let reflect = |i: isize| -> usize {
                let idx = if i < 0 {
                    (-i) as usize % (2 * n.max(1))
                } else if (i as usize) >= n {
                    let over = i as usize - n + 1;
                    n.saturating_sub(1 + over % n.max(1))
                } else {
                    i as usize
                };
                idx.min(n - 1)
            };
            for i in -(half as isize)..(n + half) as isize {
                self.padded.push(xs[reflect(i)]);
            }
        }
        // identical prefix-sum accumulation to `windowed_means`
        self.prefix.clear();
        let mut acc = 0.0;
        self.prefix.push(0.0);
        for &v in &self.padded {
            acc += v;
            self.prefix.push(acc);
        }
        for (c, t) in trend.iter_mut().enumerate() {
            *t = (self.prefix[c + window] - self.prefix[c]) / window as f64;
        }
        for ((c, x), tv) in cyclical.iter_mut().zip(xs).zip(trend.iter()) {
            *c = x - tv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_is_its_own_trend() {
        let xs = vec![5.0; 20];
        let trend = moving_average(&xs, 5);
        for t in trend {
            assert!((t - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn decompose_sums_back() {
        let xs: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.3).sin() + i as f64 * 0.1)
            .collect();
        let (trend, cyc) = decompose(&xs, 7);
        for i in 0..xs.len() {
            assert!((trend[i] + cyc[i] - xs[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn window_one_is_identity() {
        let xs = vec![1.0, 9.0, 4.0];
        assert_eq!(moving_average(&xs, 1), xs);
    }

    #[test]
    #[should_panic(expected = "window must be odd")]
    fn even_window_rejected() {
        let _ = moving_average(&[1.0, 2.0], 2);
    }

    #[test]
    fn empty_input() {
        assert!(moving_average(&[], 3).is_empty());
    }

    #[test]
    fn scratch_form_is_bit_identical_and_reusable() {
        let mut sc = DecomposeScratch::default();
        // windows wider than the series take the wrapping reflection
        for (len, window) in [
            (20usize, 5usize),
            (96, 25),
            (7, 3),
            (96, 25),
            (7, 25),
            (1, 1),
        ] {
            let xs: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.37).sin() * 12.3 + i as f64 * 0.05)
                .collect();
            let (trend, cyc) = decompose(&xs, window);
            let mut t2 = vec![0.0; len];
            let mut c2 = vec![0.0; len];
            // the same scratch across different shapes must still match
            // the allocating form bit-for-bit
            sc.decompose_into(&xs, window, &mut t2, &mut c2);
            assert_eq!(trend, t2, "trend bits drifted (len={len}, w={window})");
            assert_eq!(cyc, c2, "cyclical bits drifted (len={len}, w={window})");
        }
    }

    #[test]
    fn linear_trend_is_preserved_in_interior() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let trend = moving_average(&xs, 5);
        for i in 2..28 {
            assert!(
                (trend[i] - xs[i]).abs() < 1e-9,
                "interior of a line is unchanged"
            );
        }
    }
}
