//! FEDformer baseline (Zhou et al., ICML'22): frequency-enhanced
//! decomposition. The cyclical component is projected onto the `K` lowest
//! Fourier modes with fixed DFT matrices, mixed by a learnable MLP in the
//! frequency domain, and mapped to the horizon; the trend takes a direct
//! linear path.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Graph, Linear, Param, Tensor, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::decompose::decompose;
use crate::models::seq::{predict_seq, sample_mse, SeqModel};
use crate::models::{train, FitReport, Forecast, Forecaster, TrainConfig};

const MA_WINDOW: usize = 25;

/// Builds the `K × L` cosine and sine DFT analysis matrices.
fn dft_matrices(l: usize, k: usize) -> (Tensor, Tensor) {
    let mut cos_m = Tensor::zeros(k, l);
    let mut sin_m = Tensor::zeros(k, l);
    for f in 0..k {
        for t in 0..l {
            let angle = std::f64::consts::TAU * f as f64 * t as f64 / l as f64;
            cos_m[(f, t)] = angle.cos() / l as f64;
            sin_m[(f, t)] = angle.sin() / l as f64;
        }
    }
    (cos_m, sin_m)
}

/// FEDformer-style frequency-domain point forecaster.
#[derive(Debug)]
pub struct FedformerForecaster {
    freq_mix: Linear,
    head_freq: Linear,
    head_trend: Linear,
    cos_m: Tensor,
    sin_m: Tensor,
    modes: usize,
    norm: Normalizer,
}

impl FedformerForecaster {
    /// Creates a model shaped for `data`, retaining the
    /// `K = min(16, L/2)` lowest frequency modes.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = data.input_len();
        let modes = 16.min(l / 2).max(2);
        let (cos_m, sin_m) = dft_matrices(l, modes);
        FedformerForecaster {
            freq_mix: Linear::new(2 * modes, 2 * modes, &mut rng),
            head_freq: Linear::new(2 * modes, data.horizon(), &mut rng),
            head_trend: Linear::new(l, data.horizon(), &mut rng),
            cos_m,
            sin_m,
            modes,
            norm: data.normalizer(0.8),
        }
    }

    /// Number of retained Fourier modes `K`.
    #[must_use]
    pub fn modes(&self) -> usize {
        self.modes
    }
}

impl SeqModel for FedformerForecaster {
    fn forward_sample(&self, g: &mut Graph, data: &OrgDataset, s: Sample) -> Var {
        let window: Vec<f64> = data
            .input(s)
            .iter()
            .map(|&x| self.norm.norm(s.org, x))
            .collect();
        let (trend, cyc) = decompose(&window, MA_WINDOW);

        // frequency path over the cyclical component
        let x = g.constant(Tensor::col(&cyc)); // L × 1
        let cm = g.constant(self.cos_m.clone());
        let sm = g.constant(self.sin_m.clone());
        let fc = g.matmul(cm, x); // K × 1
        let fs = g.matmul(sm, x); // K × 1
        let fc_row = g.transpose(fc);
        let fs_row = g.transpose(fs);
        let coeffs = g.concat_cols(&[fc_row, fs_row]); // 1 × 2K
        let mixed = self.freq_mix.forward(g, coeffs);
        let mixed = g.relu(mixed);
        let y_freq = self.head_freq.forward(g, mixed);

        // trend path
        let trend_row = g.constant(Tensor::row(&trend));
        let y_trend = self.head_trend.forward(g, trend_row);

        g.add(y_freq, y_trend)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.freq_mix.params();
        p.extend(self.head_freq.params());
        p.extend(self.head_trend.params());
        p
    }
}

impl Forecaster for FedformerForecaster {
    fn name(&self) -> &'static str {
        "FEDformer"
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
    fn dft_dc_mode_is_mean() {
        let (cos_m, _) = dft_matrices(8, 2);
        let x = Tensor::col(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let c = cos_m.matmul(&x);
        assert!((c[(0, 0)] - 4.5).abs() < 1e-12, "mode 0 is the series mean");
    }

    #[test]
    fn fit_and_predict_shapes() {
        let series = vec![(0..300)
            .map(|i| 10.0 + ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let mut m = FedformerForecaster::new(&data, 9);
        assert_eq!(m.modes(), 16);
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 3;
        let r = m.fit(&data, &cfg);
        assert!(r.final_loss.is_finite());
        let f = m.predict(&data, Sample { org: 0, start: 200 });
        assert_eq!(f.mean.len(), 6);
    }
}
