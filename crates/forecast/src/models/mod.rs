//! Forecasting models: OrgLinear (§3.2) and the six baselines of §4.6.1.

mod autoformer;
mod deepar;
mod dlinear;
mod fedformer;
mod informer;
mod naive;
mod orglinear;
mod seq;
mod transformer;

pub use autoformer::AutoformerForecaster;
pub use deepar::DeepAr;
pub use dlinear::DLinear;
pub use fedformer::FedformerForecaster;
pub use informer::InformerForecaster;
pub use naive::{LastWeekPeak, SeasonalNaive};
pub use orglinear::OrgLinear;
pub use transformer::TransformerForecaster;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::{OrgDataset, Sample};

/// A (possibly probabilistic) multi-step forecast in GPU units.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Predicted mean per horizon step (`μ̂` of Eq. 6).
    pub mean: Vec<f64>,
    /// Predicted standard deviation per step (`σ̂` of Eq. 7), when the
    /// model is probabilistic.
    pub std: Option<Vec<f64>>,
}

impl Forecast {
    /// A point forecast with no uncertainty estimate.
    #[must_use]
    pub fn point(mean: Vec<f64>) -> Self {
        Forecast { mean, std: None }
    }

    /// Upper bound of the forecast at guarantee rate `p` per step; for
    /// point forecasts this is the mean itself.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Vec<f64> {
        match &self.std {
            None => self.mean.clone(),
            Some(stds) => self
                .mean
                .iter()
                .zip(stds)
                .map(|(&m, &s)| crate::stats::gaussian_quantile(p, m, s))
                .collect(),
        }
    }
}

/// Hyper-parameters shared by every trainable model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training windows.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed controlling init and shuffling.
    pub seed: u64,
    /// Sample stride in hours when cutting windows.
    pub stride: usize,
    /// Fraction of the timeline used for training.
    pub train_frac: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            lr: 0.01,
            seed: 7,
            stride: 6,
            train_frac: 0.8,
        }
    }
}

impl TrainConfig {
    /// A deliberately tiny configuration for unit tests.
    #[must_use]
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 0.02,
            seed: 7,
            stride: 12,
            train_frac: 0.8,
        }
    }
}

/// Outcome of a [`Forecaster::fit`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Wall-clock training time, seconds.
    pub train_time_secs: f64,
    /// Final epoch's mean training loss.
    pub final_loss: f64,
    /// Number of training windows used.
    pub samples: usize,
}

/// A demand forecasting model over an [`OrgDataset`].
pub trait Forecaster {
    /// Display name used in reports.
    fn name(&self) -> &'static str;

    /// Whether [`Forecaster::predict`] produces calibrated standard
    /// deviations.
    fn is_probabilistic(&self) -> bool {
        false
    }

    /// Trains on the chronological training split of `data`.
    fn fit(&mut self, data: &OrgDataset, cfg: &TrainConfig) -> FitReport;

    /// Forecasts the horizon of one sample window.
    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast;

    /// Forecasts a batch of sample windows.
    ///
    /// The default loops [`Forecaster::predict`]; models whose forward
    /// pass is batched (e.g. `OrgLinear`) override this with a single
    /// graph pass whose per-row results are bit-identical to the
    /// one-at-a-time path. The GDE aggregation loop in `gfs_core` calls
    /// this once per tick with every org's window.
    fn predict_many(&self, data: &OrgDataset, samples: &[Sample]) -> Vec<Forecast> {
        samples.iter().map(|&s| self.predict(data, s)).collect()
    }
}

/// Shuffles `samples` into mini-batches, deterministic in `(seed, epoch)`.
///
/// Public so the `forecast-alloc-gate` test lane can price the per-step
/// batching overhead separately from the training step itself.
#[must_use]
pub fn minibatches(
    samples: &[Sample],
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Vec<Vec<Sample>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9));
    let mut order: Vec<Sample> = samples.to_vec();
    order.shuffle(&mut rng);
    order
        .chunks(batch_size.max(1))
        .map(<[Sample]>::to_vec)
        .collect()
}

/// Sinusoidal positional encoding table (`L × d`), shared by the
/// attention-based baselines.
#[must_use]
pub(crate) fn positional_encoding(len: usize, dim: usize) -> gfs_nn::Tensor {
    let mut t = gfs_nn::Tensor::zeros(len, dim);
    for pos in 0..len {
        for i in 0..dim {
            let angle = pos as f64 / 10_000f64.powf(2.0 * (i / 2) as f64 / dim as f64);
            t[(pos, i)] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    t
}

/// `1 × L` averaging matrix for mean-pooling a sequence representation.
#[must_use]
pub(crate) fn mean_pool_matrix(len: usize) -> gfs_nn::Tensor {
    gfs_nn::Tensor::full(1, len, 1.0 / len as f64)
}

/// Builds a training graph with `build` twice — once as recorded, once
/// with every constant leaf promoted to a throw-away parameter, which
/// forces the full backward sweep — and asserts every parameter in
/// `params` receives a bit-identical, non-zero gradient from both.
#[cfg(test)]
pub(crate) fn assert_pruning_exact(
    params: &[gfs_nn::Param],
    build: impl Fn(&mut gfs_nn::Graph) -> gfs_nn::Var,
) {
    let sweep = |promote: bool| {
        let mut g = gfs_nn::Graph::new();
        let loss = build(&mut g);
        if promote {
            assert!(!g.promote_constants().is_empty(), "no constant leaf");
        }
        g.backward(loss);
        params
            .iter()
            .map(|p| {
                let bits: Vec<u64> = p.grad().as_slice().iter().map(|v| v.to_bits()).collect();
                p.zero_grad();
                bits
            })
            .collect::<Vec<_>>()
    };
    let pruned = sweep(false);
    for (i, bits) in pruned.iter().enumerate() {
        assert!(bits.iter().any(|&b| b != 0), "param {i} got no gradient");
    }
    assert_eq!(pruned, sweep(true), "pruning moved a parameter gradient");
}

/// Records a `B × H` constant slot holding the normalised targets of
/// `batch` — the supervision every trainer feeds its loss.
pub(crate) fn target_slot(
    g: &mut gfs_nn::Graph,
    data: &OrgDataset,
    norm: &crate::dataset::Normalizer,
    batch: &[Sample],
) -> gfs_nn::Var {
    let h = data.horizon();
    let t = g.constant_slot(batch.len(), h);
    let tgt = g.slot_mut(t);
    for (r, s) in batch.iter().enumerate() {
        for (c, &y) in data.target(*s).iter().enumerate() {
            tgt[r * h + c] = norm.norm(s.org, y);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_quantile_point_is_mean() {
        let f = Forecast::point(vec![1.0, 2.0]);
        assert_eq!(f.quantile(0.95), vec![1.0, 2.0]);
    }

    #[test]
    fn forecast_quantile_probabilistic_exceeds_mean() {
        let f = Forecast {
            mean: vec![10.0],
            std: Some(vec![2.0]),
        };
        assert!(f.quantile(0.95)[0] > 10.0);
        assert!(f.quantile(0.05)[0] < 10.0);
    }

    #[test]
    fn minibatches_cover_all_samples() {
        let samples: Vec<Sample> = (0..25).map(|i| Sample { org: 0, start: i }).collect();
        let batches = minibatches(&samples, 8, 1, 0);
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, 25);
        assert_eq!(batches.len(), 4);
    }

    #[test]
    fn minibatches_deterministic_per_epoch() {
        let samples: Vec<Sample> = (0..10).map(|i| Sample { org: 0, start: i }).collect();
        assert_eq!(
            minibatches(&samples, 4, 9, 3),
            minibatches(&samples, 4, 9, 3)
        );
        assert_ne!(
            minibatches(&samples, 4, 9, 3),
            minibatches(&samples, 4, 9, 4)
        );
    }

    #[test]
    fn positional_encoding_shape_and_range() {
        let pe = positional_encoding(16, 8);
        assert_eq!(pe.shape(), (16, 8));
        assert!(pe.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn mean_pool_matrix_sums_to_one() {
        let m = mean_pool_matrix(10);
        assert!((m.sum() - 1.0).abs() < 1e-12);
    }
}
