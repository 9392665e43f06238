//! Informer baseline (Zhou et al., AAAI'21). The hallmark of Informer is
//! cheaper attention over long windows via sparsity + self-attention
//! *distilling* (halving the sequence between blocks); we reproduce the
//! distilling pyramid: embed → attend → halve → attend → pool → head.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Attention, Graph, Linear, Param, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::models::seq::{halving_pool_matrix, predict_seq, sample_mse, window_column, SeqModel};
use crate::models::{
    mean_pool_matrix, positional_encoding, train, FitReport, Forecast, Forecaster, TrainConfig,
};

const MODEL_DIM: usize = 8;

/// Informer-style distilled-attention point forecaster.
#[derive(Debug)]
pub struct InformerForecaster {
    proj: Linear,
    attn1: Attention,
    attn2: Attention,
    head: Linear,
    norm: Normalizer,
}

impl InformerForecaster {
    /// Creates a model shaped for `data`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        InformerForecaster {
            proj: Linear::new(1, MODEL_DIM, &mut rng),
            attn1: Attention::new(MODEL_DIM, &mut rng),
            attn2: Attention::new(MODEL_DIM, &mut rng),
            head: Linear::new(MODEL_DIM, data.horizon(), &mut rng),
            norm: data.normalizer(0.8),
        }
    }
}

impl SeqModel for InformerForecaster {
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var {
        let l = data.input_len();
        let x = g.constant(window_column(data, &self.norm, s));
        let tokens = self.proj.forward(g, x);
        let pe = g.constant(positional_encoding(l, MODEL_DIM));
        let tokens = g.add(tokens, pe);
        let a1 = self.attn1.forward(g, tokens);
        let r1 = g.add(tokens, a1);
        // distilling: halve the sequence
        let pool_half = g.constant(halving_pool_matrix(l));
        let distilled = g.matmul(pool_half, r1); // ⌈L/2⌉ × d
        let a2 = self.attn2.forward(g, distilled);
        let r2 = g.add(distilled, a2);
        let pool = g.constant(mean_pool_matrix(l.div_ceil(2)));
        let pooled = g.matmul(pool, r2);
        self.head.forward(g, pooled)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.proj.params();
        p.extend(self.attn1.params());
        p.extend(self.attn2.params());
        p.extend(self.head.params());
        p
    }
}

impl Forecaster for InformerForecaster {
    fn name(&self) -> &'static str {
        "Informer"
    }

    fn fit(&mut self, data: &OrgDataset, cfg: &TrainConfig) -> FitReport {
        train(data, cfg, move |norm, _| {
            self.norm = norm;
            let m: &Self = self;
            (m.params(), move |g: &mut Graph, b: &[Sample]| {
                sample_mse(m, &m.norm, g, data, b)
            })
        })
    }

    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast {
        predict_seq(self, &self.norm, data, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::OrgInfo;

    #[test]
    fn fit_and_predict_shapes() {
        let series = vec![(0..240).map(|i| (i % 24) as f64).collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let mut m = InformerForecaster::new(&data, 2);
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let r = m.fit(&data, &cfg);
        assert!(r.final_loss.is_finite());
        let f = m.predict(&data, Sample { org: 0, start: 150 });
        assert_eq!(f.mean.len(), 6);
    }

    #[test]
    fn odd_window_length_supported() {
        let series = vec![(0..200).map(|i| (i % 5) as f64).collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 49, 4).unwrap();
        let m = InformerForecaster::new(&data, 2);
        let mut g = Graph::new();
        let y = m.forward_sample(&mut g, &data, Sample { org: 0, start: 3 });
        assert_eq!(g.value(y).shape(), (1, 4));
    }
}
