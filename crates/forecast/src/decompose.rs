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
    let mut trend = vec![0.0; xs.len()];
    DecomposeScratch::default().moving_average_into(xs, window, &mut trend);
    trend
}

/// Splits `xs` into `(trend, cyclical)` with `cyclical = xs − trend`
/// (Eq. 1–2).
#[must_use]
pub fn decompose(xs: &[f64], window: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut trend, mut cyclical) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
    decompose_into(xs, window, &mut trend, &mut cyclical);
    (trend, cyclical)
}

/// [`decompose`] writing its results into caller buffers of length
/// `xs.len()` — the per-sample form used in tests and one-off callers.
/// Training loops hold a [`DecomposeScratch`] instead, the one
/// implementation every form runs.
///
/// # Panics
///
/// Panics if the output slices are not the same length as `xs`.
pub fn decompose_into(xs: &[f64], window: usize, trend: &mut [f64], cyclical: &mut [f64]) {
    DecomposeScratch::default().decompose_into(xs, window, trend, cyclical);
}

/// Where the reflection padding of a series of `n` values reads position
/// `i`: `x[-1] = x[1]`, `x[n] = x[n-2]`, and so on, wrapping for windows
/// wider than the series.
fn reflect(i: isize, n: usize) -> usize {
    let idx = if i < 0 {
        (-i) as usize % (2 * n)
    } else if (i as usize) >= n {
        let over = i as usize - n + 1;
        n.saturating_sub(1 + over % n)
    } else {
        i as usize
    };
    idx.min(n - 1)
}

/// Reusable padded/prefix buffers for the decomposition kernel, which
/// every form of the decomposition runs. A fresh scratch costs two heap
/// allocations; inside a training loop that would be two per sample per
/// batch, against the tape arena's zero-allocation steady-state contract
/// (see the `forecast-alloc-gate` lane), so training holds one per model
/// and every warm call is allocation-free.
///
/// The moving average materializes the reflection-padded series once,
/// then computes all window means in O(n) as differences of prefix sums
/// instead of fresh `window`-term sums. Rounding differs from per-window
/// summation by at most a few ulps, far below the noise floor of the
/// demand series being smoothed, and is the same for every form.
#[derive(Debug, Default, Clone)]
pub struct DecomposeScratch {
    padded: Vec<f64>,
    prefix: Vec<f64>,
}

impl DecomposeScratch {
    /// [`decompose_into`] from pooled scratch; zero allocations once the
    /// buffers are warm.
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
        assert_eq!(cyclical.len(), xs.len(), "cyclical buffer length mismatch");
        self.moving_average_into(xs, window, trend);
        for ((c, x), tv) in cyclical.iter_mut().zip(xs).zip(trend.iter()) {
            *c = x - tv;
        }
    }

    /// [`moving_average`] into `trend`.
    fn moving_average_into(&mut self, xs: &[f64], window: usize, trend: &mut [f64]) {
        assert_eq!(trend.len(), xs.len(), "trend buffer length mismatch");
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
        self.padded.reserve(n + 2 * half);
        if half < n {
            // the reflection never wraps here:
            // x[half], …, x[1], x, x[n−2], …, x[n−1−half]
            self.padded.extend(xs[1..=half].iter().rev());
            self.padded.extend_from_slice(xs);
            self.padded.extend(xs[n - 1 - half..n - 1].iter().rev());
        } else {
            let padded = (-(half as isize)..(n + half) as isize).map(|i| xs[reflect(i, n)]);
            self.padded.extend(padded);
        }
        self.prefix.clear();
        self.prefix.reserve(self.padded.len() + 1);
        let mut acc = 0.0;
        self.prefix.push(0.0);
        for &v in &self.padded {
            acc += v;
            self.prefix.push(acc);
        }
        for (c, t) in trend.iter_mut().enumerate() {
            *t = (self.prefix[c + window] - self.prefix[c]) / window as f64;
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
    fn padding_follows_the_reflection_rule_and_scratch_is_reusable() {
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
            let mut t2 = vec![0.0; len];
            let mut c2 = vec![0.0; len];
            // the same scratch across different shapes must still match
            // a fresh one bit for bit
            sc.decompose_into(&xs, window, &mut t2, &mut c2);
            let half = (window / 2) as isize;
            let reflected: Vec<f64> = (-half..len as isize + half)
                .map(|i| xs[reflect(i, len)])
                .collect();
            assert_eq!(sc.padded, reflected, "padding (len={len}, w={window})");
            let (trend, cyc) = decompose(&xs, window);
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
