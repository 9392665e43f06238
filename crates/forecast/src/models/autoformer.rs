//! Autoformer baseline (Wu et al., NeurIPS'21): series decomposition inside
//! the architecture — attention operates on the cyclical (seasonal)
//! component while the trend takes a direct linear path, and the two heads
//! are summed.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Attention, Graph, Linear, Param, Tensor, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::decompose::decompose;
use crate::models::seq::{predict_seq, sample_mse, SeqModel};
use crate::models::{
    mean_pool_matrix, positional_encoding, train, FitReport, Forecast, Forecaster, TrainConfig,
};

const MODEL_DIM: usize = 8;
const MA_WINDOW: usize = 25;

/// Autoformer-style decomposition-attention point forecaster.
#[derive(Debug)]
pub struct AutoformerForecaster {
    proj: Linear,
    attn: Attention,
    head_seasonal: Linear,
    head_trend: Linear,
    norm: Normalizer,
}

impl AutoformerForecaster {
    /// Creates a model shaped for `data`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        AutoformerForecaster {
            proj: Linear::new(1, MODEL_DIM, &mut rng),
            attn: Attention::new(MODEL_DIM, &mut rng),
            head_seasonal: Linear::new(MODEL_DIM, data.horizon(), &mut rng),
            head_trend: Linear::new(data.input_len(), data.horizon(), &mut rng),
            norm: data.normalizer(0.8),
        }
    }
}

impl SeqModel for AutoformerForecaster {
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var {
        let l = data.input_len();
        let window: Vec<f64> = data
            .input(s)
            .iter()
            .map(|&x| self.norm.norm(s.org, x))
            .collect();
        let (trend, cyc) = decompose(&window, MA_WINDOW);

        // seasonal path: attention over the cyclical tokens
        let cyc_col = g.constant(Tensor::col(&cyc));
        let tokens = self.proj.forward(g, cyc_col);
        let pe = g.constant(positional_encoding(l, MODEL_DIM));
        let tokens = g.add(tokens, pe);
        let att = self.attn.forward(g, tokens);
        let res = g.add(tokens, att);
        let pool = g.constant(mean_pool_matrix(l));
        let pooled = g.matmul(pool, res);
        let y_seasonal = self.head_seasonal.forward(g, pooled);

        // trend path: direct linear extrapolation
        let trend_row = g.constant(Tensor::row(&trend));
        let y_trend = self.head_trend.forward(g, trend_row);

        g.add(y_seasonal, y_trend)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.proj.params();
        p.extend(self.attn.params());
        p.extend(self.head_seasonal.params());
        p.extend(self.head_trend.params());
        p
    }
}

impl Forecaster for AutoformerForecaster {
    fn name(&self) -> &'static str {
        "Autoformer"
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
        let series = vec![(0..240)
            .map(|i| 20.0 + 0.05 * i as f64 + 3.0 * ((i % 24) as f64).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let mut m = AutoformerForecaster::new(&data, 3);
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let r = m.fit(&data, &cfg);
        assert!(r.final_loss.is_finite());
        let f = m.predict(&data, Sample { org: 0, start: 140 });
        assert_eq!(f.mean.len(), 6);
    }
}
