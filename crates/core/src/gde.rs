//! GPU Demand Estimator (§3.2): the online wrapper around a forecasting
//! model that feeds the Spot Quota Allocator.
//!
//! The estimator keeps a rolling per-organization history of HP GPU usage
//! (peak within each hour), and on request produces the high-guarantee
//! demand upper bound `ŷ_o|p[1..H] = ICDF(p, μ̂, σ̂)` of §3.3.1 for every
//! organization, plus their spatial aggregation (the inner term of Eq. 9).

use std::cell::RefCell;

use gfs_forecast::dataset::{OrgDataset, OrgInfo, Sample};
use gfs_forecast::{Forecaster, TrainConfig};
use gfs_types::SimTime;
use serde::{Deserialize, Serialize};

/// The dynamic state of a [`DemandEstimator`] — the rolling usage history
/// accumulated during a run, in a serializable shape. The model, org
/// metadata and scratch datasets are excluded: a restore always happens
/// into an estimator rebuilt by the same scheduler factory, which supplies
/// them from the template dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GdeState {
    history: Vec<Vec<f64>>,
    current_hour: u64,
    hour_peak: Vec<f64>,
}

/// Online demand estimator.
///
/// Construct with a template dataset carrying the organizations' metadata
/// and warm-up history (typically generated by `gfs-trace`), and a trained
/// or trainable [`Forecaster`]. During simulation, call
/// [`DemandEstimator::record_usage`] on every tick and query
/// [`DemandEstimator::aggregate_upper`] at quota updates.
pub struct DemandEstimator {
    model: Box<dyn Forecaster>,
    orgs: Vec<OrgInfo>,
    history: Vec<Vec<f64>>,
    seed_len: usize,
    input_len: usize,
    horizon: usize,
    current_hour: u64,
    hour_peak: Vec<f64>,
    /// One reusable all-org dataset plus the fixed sample list: every
    /// forecast window is copied in place on each query and the model is
    /// asked for the whole fleet in one [`Forecaster::predict_many`] call
    /// (a single batched forward pass for batch-capable models) instead
    /// of rebuilding a graph per org — the quota loop queries this every
    /// 300 simulated seconds. `None` when the template has no orgs.
    scratch: RefCell<Option<(OrgDataset, Vec<Sample>)>>,
}

impl std::fmt::Debug for DemandEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DemandEstimator(model={}, orgs={}, history={}h)",
            self.model.name(),
            self.orgs.len(),
            self.history.first().map_or(0, Vec::len)
        )
    }
}

impl DemandEstimator {
    /// Creates an estimator seeded with the template's history.
    ///
    /// The seed history is trimmed from the front to a multiple of a week
    /// so simulated hour 0 (a Monday 00:00) keeps phase alignment.
    #[must_use]
    pub fn new(model: Box<dyn Forecaster>, template: &OrgDataset) -> Self {
        let full = template.len_hours();
        let seed_len = (full / 168) * 168;
        let skip = full - seed_len;
        let history: Vec<Vec<f64>> = (0..template.num_orgs())
            .map(|o| template.series(o)[skip..].to_vec())
            .collect();
        let orgs = (0..template.num_orgs())
            .map(|o| template.org(o).clone())
            .collect::<Vec<_>>();
        let input_len = template.input_len();
        let horizon = template.horizon();
        let scratch = if orgs.is_empty() {
            None
        } else {
            let data = OrgDataset::new(
                vec![vec![0.0; input_len + horizon]; orgs.len()],
                orgs.clone(),
                template.attr_vocab().to_vec(),
                Vec::new(),
                input_len,
                horizon,
            )
            .expect("window + horizon is a valid dataset");
            let samples = (0..orgs.len())
                .map(|o| Sample { org: o, start: 0 })
                .collect();
            Some((data, samples))
        };
        DemandEstimator {
            model,
            history,
            seed_len,
            input_len,
            horizon,
            orgs,
            current_hour: 0,
            hour_peak: vec![0.0; template.num_orgs()],
            scratch: RefCell::new(scratch),
        }
    }

    /// Trains the wrapped model on the template dataset.
    pub fn fit(&mut self, template: &OrgDataset, cfg: &TrainConfig) {
        self.model.fit(template, cfg);
    }

    /// Number of organizations tracked.
    #[must_use]
    pub fn num_orgs(&self) -> usize {
        self.orgs.len()
    }

    /// Records the instantaneous per-org HP GPU usage at `now`. Hourly
    /// peaks are appended to the history when the hour rolls over.
    ///
    /// # Panics
    ///
    /// Panics if `per_org` length differs from the organization count.
    pub fn record_usage(&mut self, now: SimTime, per_org: &[f64]) {
        assert_eq!(
            per_org.len(),
            self.orgs.len(),
            "per-org usage length mismatch"
        );
        let hour = now.as_hours();
        while self.current_hour < hour {
            for (o, peak) in self.hour_peak.iter().enumerate() {
                self.history[o].push(*peak);
            }
            // a new hour starts from the current observation
            self.hour_peak = per_org.to_vec();
            self.current_hour += 1;
        }
        for (o, &v) in per_org.iter().enumerate() {
            if v > self.hour_peak[o] {
                self.hour_peak[o] = v;
            }
        }
    }

    /// Builds the rolling window ending now for one org, padding the front
    /// with the series mean when history is still short (kept for tests;
    /// the hot path writes through [`DemandEstimator::fill_window`]).
    #[cfg(test)]
    fn window(&self, org: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.input_len];
        Self::fill_window(&self.history[org], &mut out);
        out
    }

    /// Writes the rolling window ending now into `out` (length = input
    /// window), padding the front with the mean of the available tail when
    /// history is still short.
    fn fill_window(history: &[f64], out: &mut [f64]) {
        let input_len = out.len();
        let tail_len = history.len().min(input_len);
        let tail = &history[history.len() - tail_len..];
        let pad = if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        out[..input_len - tail_len].fill(pad);
        out[input_len - tail_len..].copy_from_slice(tail);
    }

    /// Per-organization upper-bound demand sequences at guarantee rate `p`
    /// over the next `h` hours (`h ≤` the model horizon; the result is
    /// truncated to `h` entries per org).
    #[must_use]
    pub fn forecast_upper(&self, p: f64, h: usize) -> Vec<Vec<f64>> {
        let h = h.min(self.horizon).max(1);
        let mut scratch = self.scratch.borrow_mut();
        let Some((data, samples)) = scratch.as_mut() else {
            return Vec::new();
        };
        for (org, hist) in self.history.iter().enumerate() {
            Self::fill_window(hist, &mut data.series_mut(org)[..self.input_len]);
        }
        // histories grow in lockstep, so one global phase offset suffices
        let offset_start = self.history[0].len().saturating_sub(self.input_len);
        data.set_hour_offset(offset_start);
        self.model
            .predict_many(data, samples)
            .into_iter()
            .map(|forecast| {
                forecast
                    .quantile(p)
                    .into_iter()
                    .take(h)
                    .map(|v| v.max(0.0))
                    .collect()
            })
            .collect()
    }

    /// The spatial-temporal aggregation of Eq. 9:
    /// `Σ_o max(ŷ_o|p[1..H])`.
    #[must_use]
    pub fn aggregate_upper(&self, p: f64, h: usize) -> f64 {
        self.forecast_upper(p, h)
            .iter()
            .map(|seq| seq.iter().cloned().fold(0.0, f64::max))
            .sum()
    }

    /// Seed-history length in hours (for tests/diagnostics).
    #[must_use]
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Captures the estimator's dynamic state for a service snapshot.
    #[must_use]
    pub fn save_state(&self) -> GdeState {
        GdeState {
            history: self.history.clone(),
            current_hour: self.current_hour,
            hour_peak: self.hour_peak.clone(),
        }
    }

    /// Overwrites the estimator's accumulated history with a captured
    /// [`GdeState`]. Returns `false` (leaving the estimator untouched)
    /// when the state's organization count disagrees with this
    /// estimator's — the snapshot came from a differently-configured run.
    pub fn restore_state(&mut self, s: GdeState) -> bool {
        if s.history.len() != self.orgs.len() || s.hour_peak.len() != self.orgs.len() {
            return false;
        }
        self.history = s.history;
        self.current_hour = s.current_hour;
        self.hour_peak = s.hour_peak;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_forecast::{LastWeekPeak, OrgLinear};

    fn template(hours: usize) -> OrgDataset {
        let series: Vec<Vec<f64>> = (0..2)
            .map(|o| {
                (0..hours)
                    .map(|i| {
                        30.0 + 10.0 * o as f64
                            + 5.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
                    })
                    .collect()
            })
            .collect();
        let orgs = vec![
            OrgInfo {
                name: "A".into(),
                attrs: vec![0],
            },
            OrgInfo {
                name: "B".into(),
                attrs: vec![1],
            },
        ];
        OrgDataset::new(series, orgs, vec![2], vec![], 168, 24).unwrap()
    }

    #[test]
    fn peak_model_upper_bound_is_window_peak() {
        let t = template(400);
        let gde = DemandEstimator::new(Box::new(LastWeekPeak::new()), &t);
        assert_eq!(gde.seed_len(), 336);
        let upper = gde.forecast_upper(0.9, 4);
        assert_eq!(upper.len(), 2);
        assert_eq!(upper[0].len(), 4);
        // peak of a 30±5 series is ~35
        assert!((upper[0][0] - 35.0).abs() < 2.0, "got {}", upper[0][0]);
        assert!((upper[1][0] - 45.0).abs() < 2.0);
    }

    #[test]
    fn aggregate_sums_org_peaks() {
        let t = template(400);
        let gde = DemandEstimator::new(Box::new(LastWeekPeak::new()), &t);
        let agg = gde.aggregate_upper(0.9, 4);
        assert!((agg - 80.0).abs() < 4.0, "≈35 + ≈45, got {agg}");
    }

    #[test]
    fn record_usage_rolls_hourly_peaks() {
        let t = template(400);
        let mut gde = DemandEstimator::new(Box::new(LastWeekPeak::new()), &t);
        let before = gde.window(0).len();
        gde.record_usage(SimTime::from_minutes(10), &[100.0, 1.0]);
        gde.record_usage(SimTime::from_minutes(30), &[120.0, 1.0]);
        gde.record_usage(SimTime::from_minutes(70), &[50.0, 1.0]); // hour rolls
        assert_eq!(gde.window(0).len(), before);
        let w = gde.window(0);
        assert_eq!(*w.last().unwrap(), 120.0, "hour-0 peak recorded");
        // the elevated usage lifts the LastWeekPeak upper bound
        let upper = gde.forecast_upper(0.9, 2);
        assert!(upper[0][0] >= 120.0);
    }

    #[test]
    fn orglinear_probabilistic_upper_exceeds_mean_level() {
        let t = template(600);
        let mut gde = DemandEstimator::new(Box::new(OrgLinear::new(&t, 3)), &t);
        let mut cfg = TrainConfig::fast();
        cfg.stride = 5;
        cfg.epochs = 10;
        gde.fit(&t, &cfg);
        let upper = gde.forecast_upper(0.95, 4);
        // the p=0.95 bound should sit above the series baseline of 30
        assert!(upper[0].iter().all(|&v| v > 20.0), "{:?}", upper[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn record_usage_validates_length() {
        let t = template(400);
        let mut gde = DemandEstimator::new(Box::new(LastWeekPeak::new()), &t);
        gde.record_usage(SimTime::ZERO, &[1.0]);
    }
}
