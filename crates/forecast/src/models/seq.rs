//! Shared plumbing for the per-sample sequence baselines (Transformer,
//! Informer, Autoformer, FEDformer).
//!
//! These models build one graph per sample (attention is quadratic in the
//! window length), so their minibatch loss, [`sample_mse`], records each
//! window's MSE on the shared graph, sums them in batch order and scales
//! the sum by `1/B`. They train through the shared loop (`models::train`)
//! like every other model.

use gfs_nn::{loss, Graph, Param, Tensor, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::models::{forecasts, Forecast};

/// Internal interface of a point sequence model.
pub(crate) trait SeqModel {
    /// Builds the normalized `1 × H` prediction for one sample.
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var;
    /// All trainable parameters.
    fn params(&self) -> Vec<Param>;
}

/// The minibatch loss of a sequence model: the mean over `batch` of each
/// window's MSE against its targets, normalised by `norm`.
pub(crate) fn sample_mse<M: SeqModel>(
    model: &M,
    norm: &Normalizer,
    g: &mut Graph,
    data: &OrgDataset,
    batch: &[Sample],
) -> Var {
    let mut sum: Option<Var> = None;
    for &s in batch {
        let pred = model.forward_sample(g, data, s);
        let target: Vec<f64> = data
            .target(s)
            .iter()
            .map(|&y| norm.norm(s.org, y))
            .collect();
        let t = g.constant(Tensor::row(&target));
        let l = loss::mse(g, pred, t);
        sum = Some(sum.map_or(l, |acc| g.add(acc, l)));
    }
    let sum = sum.expect("minibatches are never empty");
    g.scale(sum, 1.0 / batch.len() as f64)
}

/// Point forecast of one sample, denormalised by `norm`.
pub(crate) fn predict_seq<M: SeqModel>(
    model: &M,
    norm: &Normalizer,
    data: &OrgDataset,
    sample: Sample,
) -> Forecast {
    let mut g = Graph::new();
    let pred = model.forward_sample(&mut g, data, sample);
    let mut f = forecasts(norm, &[sample], g.value(pred), None);
    f.pop().expect("one sample, one forecast")
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
