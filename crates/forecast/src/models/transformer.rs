//! Vanilla Transformer baseline (Vaswani et al.): value embedding +
//! sinusoidal positions, one self-attention block with residuals, a
//! position-wise feed-forward layer, mean pooling and a linear head.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Attention, Graph, Linear, Param, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::models::seq::{predict_seq, sample_mse, window_column, SeqModel};
use crate::models::{
    mean_pool_matrix, positional_encoding, train, FitReport, Forecast, Forecaster, TrainConfig,
};

const MODEL_DIM: usize = 8;

/// Single-block Transformer point forecaster.
#[derive(Debug)]
pub struct TransformerForecaster {
    proj: Linear,
    attn: Attention,
    ffn1: Linear,
    ffn2: Linear,
    head: Linear,
    norm: Normalizer,
}

impl TransformerForecaster {
    /// Creates a model shaped for `data`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TransformerForecaster {
            proj: Linear::new(1, MODEL_DIM, &mut rng),
            attn: Attention::new(MODEL_DIM, &mut rng),
            ffn1: Linear::new(MODEL_DIM, MODEL_DIM, &mut rng),
            ffn2: Linear::new(MODEL_DIM, MODEL_DIM, &mut rng),
            head: Linear::new(MODEL_DIM, data.horizon(), &mut rng),
            norm: data.normalizer(0.8),
        }
    }
}

impl SeqModel for TransformerForecaster {
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var {
        let x = g.constant(window_column(data, &self.norm, s)); // L × 1
        let l = data.input_len();
        let tokens = self.proj.forward(g, x); // L × d
        let pe = g.constant(positional_encoding(l, MODEL_DIM));
        let tokens = g.add(tokens, pe);
        let att = self.attn.forward(g, tokens);
        let res1 = g.add(tokens, att);
        let h = self.ffn1.forward(g, res1);
        let h = g.relu(h);
        let h = self.ffn2.forward(g, h);
        let res2 = g.add(res1, h);
        let pool = g.constant(mean_pool_matrix(l));
        let pooled = g.matmul(pool, res2); // 1 × d
        self.head.forward(g, pooled) // 1 × H
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.proj.params();
        p.extend(self.attn.params());
        p.extend(self.ffn1.params());
        p.extend(self.ffn2.params());
        p.extend(self.head.params());
        p
    }
}

impl Forecaster for TransformerForecaster {
    fn name(&self) -> &'static str {
        "Transformer"
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
        let series = vec![(0..260)
            .map(|i| 30.0 + 5.0 * ((i % 12) as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let mut m = TransformerForecaster::new(&data, 4);
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let r = m.fit(&data, &cfg);
        assert!(r.final_loss.is_finite());
        let f = m.predict(&data, Sample { org: 0, start: 190 });
        assert_eq!(f.mean.len(), 6);
        assert!(f.std.is_none());
    }
}
