//! Per-organization demand dataset: hourly series, business attributes,
//! temporal features and sliding-window supervision.

use gfs_types::{Error, Result};

/// Static description of one organization in the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrgInfo {
    /// Human-readable name ("Organization A", …).
    pub name: String,
    /// Business attribute ids, one per attribute slot (cluster affiliation,
    /// preferred GPU model, business unit…), as modelled by Eq. 4.
    pub attrs: Vec<usize>,
}

/// A supervised window: the model reads
/// `series[org][start .. start + input_len]` and predicts the following
/// `horizon` hours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Organization index.
    pub org: usize,
    /// Index of the first input hour.
    pub start: usize,
}

/// Per-organization z-score normalizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Normalizes a raw value for organization `org`.
    #[must_use]
    pub fn norm(&self, org: usize, x: f64) -> f64 {
        (x - self.mean[org]) / self.std[org]
    }

    /// Restores a normalized mean prediction to GPU units.
    #[must_use]
    pub fn denorm(&self, org: usize, z: f64) -> f64 {
        z * self.std[org] + self.mean[org]
    }

    /// Restores a normalized standard deviation to GPU units.
    #[must_use]
    pub fn denorm_std(&self, org: usize, z: f64) -> f64 {
        z * self.std[org]
    }

    /// The per-org standard deviation used for scaling.
    #[must_use]
    pub fn std(&self, org: usize) -> f64 {
        self.std[org]
    }
}

/// The demand-forecasting dataset consumed by every model in this crate.
///
/// # Examples
///
/// ```
/// use gfs_forecast::dataset::{OrgDataset, OrgInfo};
///
/// let series = vec![(0..400).map(|i| (i % 24) as f64).collect::<Vec<_>>()];
/// let orgs = vec![OrgInfo { name: "A".into(), attrs: vec![0, 1] }];
/// let data = OrgDataset::new(series, orgs, vec![2, 3], vec![], 168, 24).unwrap();
/// assert_eq!(data.num_orgs(), 1);
/// assert!(!data.samples(24).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct OrgDataset {
    series: Vec<Vec<f64>>,
    orgs: Vec<OrgInfo>,
    attr_vocab: Vec<usize>,
    holidays: Vec<bool>,
    input_len: usize,
    horizon: usize,
    hour_offset: usize,
}

impl OrgDataset {
    /// Assembles a dataset.
    ///
    /// `holidays` flags each *day* index as a holiday (may be shorter than
    /// the series; missing days default to non-holiday).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Shape`] if series/org counts differ, attribute ids
    /// exceed their vocabulary, series lengths are inconsistent or too short
    /// for one window.
    pub fn new(
        series: Vec<Vec<f64>>,
        orgs: Vec<OrgInfo>,
        attr_vocab: Vec<usize>,
        holidays: Vec<bool>,
        input_len: usize,
        horizon: usize,
    ) -> Result<Self> {
        if series.len() != orgs.len() {
            return Err(Error::Shape(format!(
                "{} series vs {} orgs",
                series.len(),
                orgs.len()
            )));
        }
        if series.is_empty() {
            return Err(Error::Shape(
                "dataset needs at least one organization".into(),
            ));
        }
        let len = series[0].len();
        if series.iter().any(|s| s.len() != len) {
            return Err(Error::Shape("all series must share one length".into()));
        }
        if len < input_len + horizon {
            return Err(Error::Shape(format!(
                "series length {len} shorter than one window ({input_len}+{horizon})"
            )));
        }
        for org in &orgs {
            if org.attrs.len() != attr_vocab.len() {
                return Err(Error::Shape(format!(
                    "org {} has {} attrs, expected {}",
                    org.name,
                    org.attrs.len(),
                    attr_vocab.len()
                )));
            }
            for (slot, (&a, &v)) in org.attrs.iter().zip(&attr_vocab).enumerate() {
                if a >= v {
                    return Err(Error::Shape(format!(
                        "org {} attr slot {slot} id {a} out of vocab {v}",
                        org.name
                    )));
                }
            }
        }
        Ok(OrgDataset {
            series,
            orgs,
            attr_vocab,
            holidays,
            input_len,
            horizon,
            hour_offset: 0,
        })
    }

    /// Shifts the temporal phase: hour index `i` of the series is treated
    /// as absolute hour `i + offset`. Used when forecasting from a rolling
    /// window that does not start at the epoch.
    #[must_use]
    pub fn with_hour_offset(mut self, offset: usize) -> Self {
        self.hour_offset = offset;
        self
    }

    /// In-place variant of [`OrgDataset::with_hour_offset`], for reusable
    /// scratch datasets on hot forecast paths.
    pub fn set_hour_offset(&mut self, offset: usize) {
        self.hour_offset = offset;
    }

    /// Mutable access to one org's hourly series, for reusable scratch
    /// datasets: values may be overwritten, the length is fixed (the shape
    /// invariants were validated at construction).
    pub fn series_mut(&mut self, org: usize) -> &mut [f64] {
        &mut self.series[org]
    }

    /// Number of organizations.
    #[must_use]
    pub fn num_orgs(&self) -> usize {
        self.orgs.len()
    }

    /// Length of each hourly series.
    #[must_use]
    pub fn len_hours(&self) -> usize {
        self.series[0].len()
    }

    /// Input window length `L`.
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Forecast horizon `H`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Vocabulary size per business-attribute slot.
    #[must_use]
    pub fn attr_vocab(&self) -> &[usize] {
        &self.attr_vocab
    }

    /// Metadata of organization `org`.
    #[must_use]
    pub fn org(&self, org: usize) -> &OrgInfo {
        &self.orgs[org]
    }

    /// Full hourly series of organization `org`.
    #[must_use]
    pub fn series(&self, org: usize) -> &[f64] {
        &self.series[org]
    }

    /// Input window of a sample.
    #[must_use]
    pub fn input(&self, s: Sample) -> &[f64] {
        &self.series[s.org][s.start..s.start + self.input_len]
    }

    /// Target horizon of a sample.
    #[must_use]
    pub fn target(&self, s: Sample) -> &[f64] {
        let t0 = s.start + self.input_len;
        &self.series[s.org][t0..t0 + self.horizon]
    }

    /// Absolute hour index at which a sample's forecast starts.
    #[must_use]
    pub fn forecast_start(&self, s: Sample) -> usize {
        s.start + self.input_len
    }

    /// `(hour-of-day, weekday, holiday)` categorical ids for an absolute
    /// hour index — the inputs of the temporal embedding (Eq. 3).
    #[must_use]
    pub fn temporal_ids(&self, hour: usize) -> (usize, usize, usize) {
        let abs = hour + self.hour_offset;
        let day = abs / 24;
        let hod = abs % 24;
        let weekday = day % 7;
        let holiday = usize::from(self.holidays.get(day).copied().unwrap_or(false));
        (hod, weekday, holiday)
    }

    /// All valid samples with the given start stride, ordered by
    /// `(start, org)`.
    #[must_use]
    pub fn samples(&self, stride: usize) -> Vec<Sample> {
        let stride = stride.max(1);
        let mut out = Vec::new();
        let max_start = self.len_hours() - self.input_len - self.horizon;
        let mut start = 0;
        while start <= max_start {
            for org in 0..self.num_orgs() {
                out.push(Sample { org, start });
            }
            start += stride;
        }
        out
    }

    /// Position of `s` in [`OrgDataset::samples`] at this `stride`: the
    /// inverse of its `(start, org)` loop. The training half of
    /// [`OrgDataset::split`] is a prefix of that order, so this is also
    /// `s`'s index among the training samples.
    pub(crate) fn sample_row(&self, s: Sample, stride: usize) -> usize {
        (s.start / stride.max(1)) * self.num_orgs() + s.org
    }

    /// Splits samples chronologically: windows whose *forecast* falls in the
    /// first `train_frac` of the timeline train, the rest test.
    #[must_use]
    pub fn split(&self, stride: usize, train_frac: f64) -> (Vec<Sample>, Vec<Sample>) {
        let cut = (self.len_hours() as f64 * train_frac) as usize;
        let all = self.samples(stride);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for s in all {
            if self.forecast_start(s) + self.horizon <= cut {
                train.push(s);
            } else {
                test.push(s);
            }
        }
        (train, test)
    }

    /// Per-org z-score normalizer fitted on the first `frac` of each series.
    #[must_use]
    pub fn normalizer(&self, frac: f64) -> Normalizer {
        let cut = ((self.len_hours() as f64 * frac) as usize).max(2);
        let mut mean = Vec::with_capacity(self.num_orgs());
        let mut std = Vec::with_capacity(self.num_orgs());
        for s in &self.series {
            let head = &s[..cut.min(s.len())];
            let m = head.iter().sum::<f64>() / head.len() as f64;
            let v = head.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / head.len() as f64;
            mean.push(m);
            std.push(v.sqrt().max(1e-6));
        }
        Normalizer { mean, std }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> OrgDataset {
        let series: Vec<Vec<f64>> = (0..2)
            .map(|o| {
                (0..500)
                    .map(|i| (i % 24) as f64 + o as f64 * 10.0)
                    .collect()
            })
            .collect();
        let orgs = vec![
            OrgInfo {
                name: "A".into(),
                attrs: vec![0, 0],
            },
            OrgInfo {
                name: "B".into(),
                attrs: vec![1, 2],
            },
        ];
        OrgDataset::new(series, orgs, vec![2, 3], vec![false, true], 168, 24).unwrap()
    }

    #[test]
    fn windows_line_up() {
        let d = toy();
        let s = Sample { org: 0, start: 10 };
        assert_eq!(d.input(s).len(), 168);
        assert_eq!(d.target(s).len(), 24);
        assert_eq!(d.input(s)[0], 10.0 % 24.0);
        assert_eq!(d.forecast_start(s), 178);
    }

    #[test]
    fn temporal_ids_wrap() {
        let d = toy();
        assert_eq!(d.temporal_ids(0), (0, 0, 0));
        assert_eq!(d.temporal_ids(25), (1, 1, 1), "day 1 is flagged holiday");
        assert_eq!(d.temporal_ids(24 * 7 + 3), (3, 0, 0));
    }

    #[test]
    fn samples_cover_series() {
        let d = toy();
        let samples = d.samples(24);
        assert!(!samples.is_empty());
        let max_start = samples.iter().map(|s| s.start).max().unwrap();
        assert!(max_start + 168 + 24 <= 500);
        // both orgs at each start
        assert_eq!(samples.iter().filter(|s| s.start == 0).count(), 2);
    }

    #[test]
    fn split_is_chronological() {
        let d = toy();
        let (train, test) = d.split(12, 0.7);
        assert!(!train.is_empty() && !test.is_empty());
        let max_train = train.iter().map(|s| d.forecast_start(*s)).max().unwrap();
        let min_test = test.iter().map(|s| d.forecast_start(*s)).min().unwrap();
        assert!(max_train < min_test + d.horizon());
    }

    #[test]
    fn sample_row_indexes_samples_and_the_training_prefix() {
        let d = toy();
        for stride in [1, 5, 12] {
            for (i, s) in d.samples(stride).into_iter().enumerate() {
                assert_eq!(d.sample_row(s, stride), i, "{s:?} at stride {stride}");
            }
            for (i, s) in d.split(stride, 0.7).0.into_iter().enumerate() {
                assert_eq!(d.sample_row(s, stride), i, "{s:?} at stride {stride}");
            }
        }
    }

    #[test]
    fn normalizer_round_trips() {
        let d = toy();
        let n = d.normalizer(0.8);
        let x = 17.0;
        let z = n.norm(1, x);
        assert!((n.denorm(1, z) - x).abs() < 1e-9);
        assert!(n.std(1) > 0.0);
    }

    #[test]
    fn new_validates_shapes() {
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![0],
        }];
        // attr id out of vocab
        assert!(
            OrgDataset::new(vec![vec![0.0; 300]], orgs.clone(), vec![0], vec![], 100, 10).is_err()
        );
        // series too short
        assert!(
            OrgDataset::new(vec![vec![0.0; 50]], orgs.clone(), vec![1], vec![], 100, 10).is_err()
        );
        // count mismatch
        assert!(OrgDataset::new(vec![], vec![], vec![], vec![], 10, 1).is_err());
        // ok
        assert!(OrgDataset::new(vec![vec![0.0; 300]], orgs, vec![1], vec![], 100, 10).is_ok());
    }

    #[test]
    fn hour_offset_shifts_phase() {
        let d = toy().with_hour_offset(25);
        // local hour 0 is absolute hour 25: hod 1, weekday 1, holiday (day 1)
        assert_eq!(d.temporal_ids(0), (1, 1, 1));
    }

    #[test]
    fn ragged_series_rejected() {
        let orgs = vec![
            OrgInfo {
                name: "A".into(),
                attrs: vec![],
            },
            OrgInfo {
                name: "B".into(),
                attrs: vec![],
            },
        ];
        let r = OrgDataset::new(
            vec![vec![0.0; 300], vec![0.0; 200]],
            orgs,
            vec![],
            vec![],
            100,
            10,
        );
        assert!(r.is_err());
    }
}
