//! DeepAR baseline (Salinas et al.): an autoregressive RNN producing a
//! Gaussian distribution per horizon step. The encoder GRU consumes the
//! window step by step (with diurnal phase features), and linear heads map
//! the final state to `(μ, σ)` sequences, trained by NLL — the strongest
//! probabilistic baseline of Table 7.
//!
//! The whole unrolled encoder is one fused [`GruCell::scan`] tape entry.
//! DeepAR trains through the shared loop (`models::train`) on the Gaussian
//! head loss it shares with OrgLinear, and forecasts through the shared
//! Gaussian output path: after the first batch warms the loop's arena, a
//! training step allocates nothing (see the `forecast-alloc-gate` test
//! lane).

use std::cell::RefCell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Graph, GruCell, Linear, Param, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::models::{forecasts, gaussian_nll, train, FitReport, Forecast, Forecaster, TrainConfig};

const HIDDEN: usize = 24;

/// DeepAR-style probabilistic RNN forecaster.
#[derive(Debug)]
pub struct DeepAr {
    cell: GruCell,
    head_mu: Linear,
    head_sigma: Linear,
    norm: Normalizer,
    graph: RefCell<Graph>,
}

impl DeepAr {
    /// Creates a model shaped for `data`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DeepAr {
            cell: GruCell::new(3, HIDDEN, &mut rng),
            head_mu: Linear::new(HIDDEN, data.horizon(), &mut rng),
            head_sigma: Linear::new(HIDDEN, data.horizon(), &mut rng),
            norm: data.normalizer(0.8),
            graph: RefCell::new(Graph::new()),
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.cell.params();
        p.extend(self.head_mu.params());
        p.extend(self.head_sigma.params());
        p
    }

    /// Encodes a batch of windows with one fused GRU scan and emits the
    /// Gaussian head `(mu, pre)` in normalized space (`B × H` each), where
    /// `pre` is the *pre-activation* of σ (see `models::gaussian_nll`).
    fn forward(&self, g: &mut Graph, data: &OrgDataset, batch: &[Sample]) -> (Var, Var) {
        let b = batch.len();
        let l = data.input_len();
        // time-major scan input: rows [t·b, (t+1)·b) hold step t
        let xs = g.constant_slot(l * b, 3);
        let buf = g.slot_mut(xs);
        for t in 0..l {
            for (r, s) in batch.iter().enumerate() {
                let abs_hour = (s.start + t) % 24;
                let phase = abs_hour as f64 / 24.0 * std::f64::consts::TAU;
                let base = (t * b + r) * 3;
                buf[base] = self.norm.norm(s.org, data.input(*s)[t]);
                buf[base + 1] = phase.sin();
                buf[base + 2] = phase.cos();
            }
        }
        let h = self.cell.scan(g, xs, l);
        let mu = self.head_mu.forward(g, h);
        let pre = self.head_sigma.forward(g, h);
        (mu, pre)
    }
}

impl Forecaster for DeepAr {
    fn name(&self) -> &'static str {
        "DeepAR"
    }

    fn is_probabilistic(&self) -> bool {
        true
    }

    fn fit(&mut self, data: &OrgDataset, cfg: &TrainConfig) -> FitReport {
        train(data, cfg, move |norm, _| {
            self.norm = norm;
            let m: &Self = self;
            (m.params(), move |g: &mut Graph, b: &[Sample]| {
                let head = m.forward(g, data, b);
                gaussian_nll(g, data, &m.norm, b, head)
            })
        })
    }

    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast {
        let mut g = self.graph.borrow_mut();
        g.reset();
        let (mu, pre) = self.forward(&mut g, data, &[sample]);
        g.finish();
        let mut f = forecasts(&self.norm, &[sample], g.value(mu), Some(g.value(pre)));
        f.pop().expect("one sample, one forecast")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::OrgInfo;

    #[test]
    fn fit_and_predict_probabilistic() {
        let series = vec![(0..220)
            .map(|i| 15.0 + 4.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let mut m = DeepAr::new(&data, 5);
        assert!(m.is_probabilistic());
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let r = m.fit(&data, &cfg);
        assert!(r.final_loss.is_finite());
        let f = m.predict(&data, Sample { org: 0, start: 130 });
        assert_eq!(f.mean.len(), 6);
        assert!(f.std.unwrap().iter().all(|&s| s > 0.0));
    }

    #[test]
    fn pruned_backward_matches_the_full_sweep() {
        let series = vec![(0..220)
            .map(|i| 15.0 + 4.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let m = DeepAr::new(&data, 5);
        let batch: Vec<Sample> = data.split(12, 0.8).0.into_iter().take(3).collect();
        crate::models::tests::assert_pruning_exact(&m.params(), |g| {
            let head = m.forward(g, &data, &batch);
            gaussian_nll(g, &data, &m.norm, &batch, head)
        });
    }

    #[test]
    fn deterministic_given_seed() {
        let series = vec![(0..220)
            .map(|i| 15.0 + 4.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 48, 6).unwrap();
        let run = || {
            let mut m = DeepAr::new(&data, 5);
            let mut cfg = TrainConfig::fast();
            cfg.epochs = 2;
            m.fit(&data, &cfg);
            m.predict(&data, Sample { org: 0, start: 130 }).mean
        };
        assert_eq!(run(), run());
    }
}
