//! Sample bookkeeping: nanosecond duration samples with percentiles,
//! medians over runs, and the process's peak resident set.

use std::time::Duration;

/// Durations of one repeated operation (every `step()` of a pass, every
/// `schedule()` seen by the proxy), kept as `u32` nanoseconds: a
/// million-sample pass costs 4 MB and no call here lasts 4.29 s.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u32>,
    sum_ns: u64,
    sorted: bool,
}

impl Samples {
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            sum_ns: 0,
            sorted: true,
        }
    }

    pub fn push(&mut self, d: Duration) {
        let ns = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
        self.ns.push(ns);
        self.sum_ns += u64::from(ns);
        self.sorted = false;
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Total of all samples, seconds.
    #[must_use]
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// Index of the nearest-rank `q`-quantile in the sorted samples.
    fn rank(&self, q: f64) -> usize {
        let n = self.ns.len();
        ((q * n as f64).ceil() as usize).clamp(1, n) - 1
    }

    /// Nearest-rank `q`-quantile in microseconds (0 when empty).
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        f64::from(self.ns[self.rank(q)]) * 1e-3
    }

    /// How many samples lie beyond the `q`-quantile's rank — the evidence
    /// behind a reported tail percentile.
    #[must_use]
    pub fn beyond(&self, q: f64) -> usize {
        if self.ns.is_empty() {
            0
        } else {
            self.ns.len() - 1 - self.rank(q)
        }
    }

    /// Folds another sample set into this one.
    pub fn absorb(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sum_ns += other.sum_ns;
        self.sorted = false;
    }
}

/// Median of a small slice (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Pins glibc's two adaptive malloc thresholds at their initial 128 KiB,
/// for the whole process: a block of that size or more is its own
/// mapping, handed back when freed.
///
/// Left alone, glibc raises both thresholds to the size of the first large
/// block it sees freed, and from then on carves the 20-60 MB snapshot
/// strings out of the heap. Where the heap then fragments depends on the
/// exact sizes in play: with the same live data, one seed's sessions ended
/// at 111 MB of `VmHWM` and another's at 137 MB (160 and 204 MB on
/// `churn_recover`). Pinned, ten seeds agree to about 1 %. The price is
/// that every large buffer is faulted in afresh: `checkpoint_ms` reads
/// 20 % higher on `paper_backlog`, under 5 % elsewhere (`README.md`).
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores two integers in malloc's own
        // parameters; it is called once, before the process has a second
        // thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            mallopt(M_TRIM_THRESHOLD, 128 * 1024);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; `None` where
/// `/proc/self/status` does not exist or does not carry the field.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = Samples::default();
        for i in 1..=100u64 {
            s.push(Duration::from_nanos(i * 1_000));
        }
        assert_eq!(s.percentile_us(0.5), 50.0);
        assert_eq!(s.percentile_us(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert!((s.sum_secs() - 5_050e-6).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
