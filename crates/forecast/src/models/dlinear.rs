//! DLinear baseline (Zeng et al., AAAI'23): trend/cyclical decomposition
//! followed by two independent linear projections — no context features, no
//! uncertainty head.
//!
//! It trains through the shared loop (`models::train`) on the MSE of its
//! batched forward. The decomposed batch is written straight into reusable
//! constant slots of the loop's graph arena, so a warm training step
//! allocates nothing (see the `forecast-alloc-gate` test lane).

use std::cell::RefCell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{loss, Graph, Linear, Param, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::decompose::DecomposeScratch;
use crate::models::{forecasts, target_slot, train, FitReport, Forecast, Forecaster, TrainConfig};

const MA_WINDOW: usize = 25;

/// The DLinear point forecaster.
#[derive(Debug)]
pub struct DLinear {
    head_trend: Linear,
    head_cyclical: Linear,
    norm: Normalizer,
    input_len: usize,
    graph: RefCell<Graph>,
    scratch: RefCell<(Vec<f64>, DecomposeScratch)>,
}

impl DLinear {
    /// Creates a model shaped for `data`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DLinear {
            head_trend: Linear::new(data.input_len(), data.horizon(), &mut rng),
            head_cyclical: Linear::new(data.input_len(), data.horizon(), &mut rng),
            norm: data.normalizer(0.8),
            input_len: data.input_len(),
            graph: RefCell::new(Graph::new()),
            scratch: RefCell::new((vec![0.0; data.input_len()], DecomposeScratch::default())),
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.head_trend.params();
        p.extend(self.head_cyclical.params());
        p
    }

    fn forward(&self, g: &mut Graph, data: &OrgDataset, batch: &[Sample]) -> Var {
        let b = batch.len();
        let l = self.input_len;
        let tv = g.constant_slot(b, l);
        let cv = g.constant_slot(b, l);
        {
            let (trend_m, cyc_m) = g.two_slots_mut(tv, cv);
            let mut scratch = self.scratch.borrow_mut();
            let (window, decomp) = &mut *scratch;
            for (r, s) in batch.iter().enumerate() {
                for (slot, &x) in window.iter_mut().zip(data.input(*s)) {
                    *slot = self.norm.norm(s.org, x);
                }
                decomp.decompose_into(
                    window,
                    MA_WINDOW,
                    &mut trend_m[r * l..(r + 1) * l],
                    &mut cyc_m[r * l..(r + 1) * l],
                );
            }
        }
        let yt = self.head_trend.forward(g, tv);
        let yc = self.head_cyclical.forward(g, cv);
        g.add(yt, yc)
    }

    /// The MSE of the batch's forecasts against its normalised targets.
    fn loss(&self, g: &mut Graph, data: &OrgDataset, batch: &[Sample]) -> Var {
        let pred = self.forward(g, data, batch);
        let t = target_slot(g, data, &self.norm, batch);
        loss::mse(g, pred, t)
    }
}

impl Forecaster for DLinear {
    fn name(&self) -> &'static str {
        "DLinear"
    }

    fn fit(&mut self, data: &OrgDataset, cfg: &TrainConfig) -> FitReport {
        train(data, cfg, move |norm, _| {
            self.norm = norm;
            let m: &Self = self;
            (m.params(), move |g: &mut Graph, b: &[Sample]| {
                m.loss(g, data, b)
            })
        })
    }

    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast {
        let mut g = self.graph.borrow_mut();
        g.reset();
        let pred = self.forward(&mut g, data, &[sample]);
        g.finish();
        let mut f = forecasts(&self.norm, &[sample], g.value(pred), None);
        f.pop().expect("one sample, one forecast")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::OrgInfo;

    fn data() -> OrgDataset {
        let series = vec![(0..500)
            .map(|i| 40.0 + 8.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).cos())
            .collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "A".into(),
            attrs: vec![],
        }];
        OrgDataset::new(series, orgs, vec![], vec![], 96, 12).unwrap()
    }

    #[test]
    fn fit_and_predict() {
        let d = data();
        let mut m = DLinear::new(&d, 1);
        let r = m.fit(&d, &TrainConfig::fast());
        assert!(r.final_loss.is_finite());
        let f = m.predict(&d, Sample { org: 0, start: 300 });
        assert_eq!(f.mean.len(), 12);
        assert!(f.std.is_none(), "DLinear is a point model");
        assert!(!m.is_probabilistic());
    }

    #[test]
    fn pruned_backward_matches_the_full_sweep() {
        let d = data();
        let m = DLinear::new(&d, 1);
        let batch: Vec<Sample> = d.split(12, 0.8).0.into_iter().take(5).collect();
        crate::models::tests::assert_pruning_exact(&m.params(), |g| m.loss(g, &d, &batch));
    }

    #[test]
    fn captures_diurnal_cycle() {
        let d = data();
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 30;
        // stride must be coprime with the 24 h period so training windows
        // cover every phase; otherwise the head memorises two inputs
        cfg.stride = 5;
        let mut m = DLinear::new(&d, 2);
        m.fit(&d, &cfg);
        let s = Sample { org: 0, start: 320 };
        let f = m.predict(&d, s);
        let err = crate::metrics::mae(&f.mean, d.target(s));
        assert!(
            err < 3.0,
            "diurnal sine should be near-exactly linear-predictable, got {err}"
        );
    }
}
