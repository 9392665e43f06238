//! Shared training/prediction plumbing for the per-sample sequence
//! baselines (Transformer, Informer, Autoformer, FEDformer).
//!
//! These models build one graph per sample (attention is quadratic in the
//! window length), so the fit loop accumulates per-sample MSE losses inside
//! a shared graph per mini-batch.

use gfs_nn::{loss, Adam, Graph, Param, Tensor, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::models::{minibatches, FitReport, Forecast, TrainConfig};
use crate::timing::TrainTimer;

/// Internal interface of a point sequence model.
pub(crate) trait SeqModel {
    /// Builds the normalized `1 × H` prediction for one sample.
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var;
    /// All trainable parameters.
    fn params(&self) -> Vec<Param>;
    /// The fitted normalizer.
    fn norm(&self) -> &Normalizer;
    /// Replaces the normalizer (called at the start of `fit`).
    fn set_norm(&mut self, norm: Normalizer);
}

/// Generic MSE training loop over the chronological train split.
pub(crate) fn fit_seq<M: SeqModel>(
    model: &mut M,
    data: &OrgDataset,
    cfg: &TrainConfig,
) -> FitReport {
    let start = TrainTimer::start();
    model.set_norm(data.normalizer(cfg.train_frac));
    let (train, _) = data.split(cfg.stride, cfg.train_frac);
    let mut opt = Adam::new(model.params(), cfg.lr);
    let mut final_loss = f64::NAN;
    // one arena for the whole fit: reset() rewinds the tape per batch and
    // reuses its buffers instead of reallocating the graph
    let mut g = Graph::new();
    for epoch in 0..cfg.epochs {
        let mut total = 0.0;
        let mut n = 0usize;
        for batch in minibatches(&train, cfg.batch_size, cfg.seed, epoch) {
            g.reset();
            let mut batch_loss: Option<Var> = None;
            for s in &batch {
                let pred = model.forward_sample(&mut g, data, *s);
                let target: Vec<f64> = data
                    .target(*s)
                    .iter()
                    .map(|&y| model.norm().norm(s.org, y))
                    .collect();
                let t = g.constant(Tensor::row(&target));
                let l = loss::mse(&mut g, pred, t);
                batch_loss = Some(match batch_loss {
                    None => l,
                    Some(acc) => g.add(acc, l),
                });
            }
            if let Some(acc) = batch_loss {
                let mean = g.scale(acc, 1.0 / batch.len() as f64);
                total += g.value(mean).item();
                n += 1;
                g.backward(mean);
                opt.step();
            }
        }
        final_loss = total / n.max(1) as f64;
    }
    FitReport {
        train_time_secs: start.elapsed_secs(),
        final_loss,
        samples: train.len(),
    }
}

/// Generic denormalizing point prediction.
pub(crate) fn predict_seq<M: SeqModel>(model: &M, data: &OrgDataset, sample: Sample) -> Forecast {
    let mut g = Graph::new();
    let pred = model.forward_sample(&mut g, data, sample);
    Forecast::point(
        g.value(pred)
            .as_slice()
            .iter()
            .map(|&z| model.norm().denorm(sample.org, z))
            .collect(),
    )
}

/// Normalized input window of one sample as an `L × 1` column tensor.
pub(crate) fn window_column(data: &OrgDataset, norm: &Normalizer, s: Sample) -> Tensor {
    let w: Vec<f64> = data.input(s).iter().map(|&x| norm.norm(s.org, x)).collect();
    Tensor::col(&w)
}

/// Average-pooling matrix halving a length-`l` sequence
/// (`⌈l/2⌉ × l`), used by Informer's distillation stage.
pub(crate) fn halving_pool_matrix(l: usize) -> Tensor {
    let out = l.div_ceil(2);
    let mut m = Tensor::zeros(out, l);
    for i in 0..out {
        let a = 2 * i;
        let b = (2 * i + 1).min(l - 1);
        if a == b {
            m[(i, a)] = 1.0;
        } else {
            m[(i, a)] = 0.5;
            m[(i, b)] = 0.5;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halving_pool_rows_sum_to_one() {
        for l in [4usize, 5, 9, 168] {
            let m = halving_pool_matrix(l);
            assert_eq!(m.rows(), l.div_ceil(2));
            for r in 0..m.rows() {
                let s: f64 = m.row_slice(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "row {r} of l={l}");
            }
        }
    }

    #[test]
    fn halving_pool_averages_pairs() {
        let m = halving_pool_matrix(4);
        let x = Tensor::col(&[1.0, 3.0, 5.0, 7.0]);
        let y = m.matmul(&x);
        assert_eq!(y.as_slice(), &[2.0, 6.0]);
    }
}
