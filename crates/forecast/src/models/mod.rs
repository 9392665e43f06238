//! Forecasting models: OrgLinear (§3.2) and the six baselines of §4.6.1.
//!
//! Every trained model — OrgLinear, DLinear, DeepAR and the four sequence
//! baselines of `seq` — fits through the one loop [`train`]: the model
//! supplies its parameters and its per-batch loss, the loop owns the
//! normaliser, the chronological split, Adam, the epoch and minibatch
//! order and the [`FitReport`]. The two Gaussian heads (OrgLinear and
//! DeepAR) share their loss, [`gaussian_nll`], and every model turns its
//! normalised head outputs into [`Forecast`]s through [`forecasts`].

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

use gfs_nn::{Adam, Graph, Param, Tensor, Var};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::timing::TrainTimer;

/// Floor added to a Gaussian head's softplus σ for numerical safety.
const SIGMA_FLOOR: f64 = 1e-3;

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
pub(crate) fn positional_encoding(len: usize, dim: usize) -> Tensor {
    let mut t = Tensor::zeros(len, dim);
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
pub(crate) fn mean_pool_matrix(len: usize) -> Tensor {
    Tensor::full(1, len, 1.0 / len as f64)
}

/// The training loop of every trained forecaster.
///
/// `setup` receives the normaliser fitted on the first
/// `cfg.train_frac` of the timeline and the training windows; it installs
/// the normaliser in the model and returns the parameters Adam updates
/// together with the model's loss over one minibatch. Each epoch walks
/// [`minibatches`], recording every batch's loss on one reused graph and
/// taking one Adam step on its gradient; `final_loss` is the mean batch
/// loss of the last epoch.
pub(crate) fn train<L>(
    data: &OrgDataset,
    cfg: &TrainConfig,
    setup: impl FnOnce(Normalizer, &[Sample]) -> (Vec<Param>, L),
) -> FitReport
where
    L: FnMut(&mut Graph, &[Sample]) -> Var,
{
    let start = TrainTimer::start();
    let (train, _) = data.split(cfg.stride, cfg.train_frac);
    let (params, mut loss) = setup(data.normalizer(cfg.train_frac), &train);
    let mut opt = Adam::new(params, cfg.lr);
    let mut final_loss = f64::NAN;
    // one arena for the whole fit: reset() rewinds the tape per batch and
    // reuses its buffers instead of reallocating the graph
    let mut g = Graph::new();
    for epoch in 0..cfg.epochs {
        let mut total = 0.0;
        let mut n = 0usize;
        for batch in minibatches(&train, cfg.batch_size, cfg.seed, epoch) {
            g.reset();
            let l = loss(&mut g, &batch);
            total += g.value(l).item();
            n += 1;
            g.backward(l);
            opt.step();
        }
        final_loss = total / n.max(1) as f64;
    }
    FitReport {
        train_time_secs: start.elapsed_secs(),
        final_loss,
        samples: train.len(),
    }
}

/// Records a `B × H` constant slot holding the normalised targets of
/// `batch` — the supervision of the batched trainers.
pub(crate) fn target_slot(
    g: &mut Graph,
    data: &OrgDataset,
    norm: &Normalizer,
    batch: &[Sample],
) -> Var {
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

/// The loss of a Gaussian head (Eq. 7–8, fused into one tape node): the
/// mean NLL of `batch`'s normalised targets under `N(μ, σ²)` with
/// `σ = softplus(pre) + SIGMA_FLOOR`, for the head's `(μ, pre)`.
pub(crate) fn gaussian_nll(
    g: &mut Graph,
    data: &OrgDataset,
    norm: &Normalizer,
    batch: &[Sample],
    (mu, pre): (Var, Var),
) -> Var {
    let t = target_slot(g, data, norm, batch);
    g.gaussian_nll_softplus(mu, pre, t, SIGMA_FLOOR)
}

/// Turns a head's normalised `B × H` outputs into one forecast per
/// sample (row `r` belongs to `samples[r]`), in GPU units: the mean from
/// `mu` and, for a Gaussian head, σ = `softplus(pre) + SIGMA_FLOOR` from
/// `pre`.
pub(crate) fn forecasts(
    norm: &Normalizer,
    samples: &[Sample],
    mu: &Tensor,
    pre: Option<&Tensor>,
) -> Vec<Forecast> {
    samples
        .iter()
        .enumerate()
        .map(|(r, s)| Forecast {
            mean: mu
                .row_slice(r)
                .iter()
                .map(|&z| norm.denorm(s.org, z))
                .collect(),
            std: pre.map(|pre| {
                pre.row_slice(r)
                    .iter()
                    .map(|&z| norm.denorm_std(s.org, gfs_nn::softplus(z) + SIGMA_FLOOR))
                    .collect()
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a training graph with `build` twice — once as recorded, once
    /// with every constant leaf promoted to a throw-away parameter, which
    /// forces the full backward sweep — and asserts every parameter in
    /// `params` receives a bit-identical, non-zero gradient from both.
    pub(crate) fn assert_pruning_exact(params: &[Param], build: impl Fn(&mut Graph) -> Var) {
        let sweep = |promote: bool| {
            let mut g = Graph::new();
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
