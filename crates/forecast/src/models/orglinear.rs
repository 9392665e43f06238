//! OrgLinear — the paper's hierarchical probabilistic forecaster (§3.2).
//!
//! The model combines:
//! * adaptive trend/cyclical decomposition with reflection-padded moving
//!   average (Eq. 1–2),
//! * temporal embeddings of hour / weekday / holiday (Eq. 3),
//! * business-attribute embeddings fused with a learned attention pool
//!   (Eq. 4),
//! * two parallel linear heads for the cyclical and trend components whose
//!   sum is the mean forecast (Eq. 5–6),
//! * a softplus variance head for heteroscedastic uncertainty (Eq. 7),
//! * maximum-likelihood training under a Gaussian NLL (Eq. 8).
//!
//! OrgLinear trains through the shared loop (`models::train`) on the
//! Gaussian head loss it shares with DeepAR, and forecasts through the
//! shared Gaussian output path. Training and prediction run over [`Graph`]
//! arenas with pooled index/window scratch, so a warm training step and a
//! warm [`Forecaster::predict_many`] call allocate nothing (see the
//! `forecast-alloc-gate` test lane). `predict_many` builds the whole org
//! batch as one forward pass — the GDE aggregation path (`gfs_core`)
//! depends on this for its per-tick latency budget — and `predict` is
//! `predict_many` of one sample. Each head is one [`Graph::affine_cat`]
//! over `[input, c_o, c_t]`, so no concatenation is built and the backward
//! sweep differentiates only the context columns. `fit` stages every
//! training window once (see `Staged`) instead of once per epoch.

use std::cell::RefCell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Embedding, Graph, Linear, Param, Var};

use crate::dataset::{Normalizer, OrgDataset, Sample};
use crate::decompose::DecomposeScratch;
use crate::models::{forecasts, gaussian_nll, train, FitReport, Forecast, Forecaster, TrainConfig};

/// Embedding width per temporal component (hour / weekday / holiday).
const TEMPORAL_DIM: usize = 4;
/// Embedding width per business attribute.
const BUSINESS_DIM: usize = 6;
/// Moving-average window of the decomposition kernel (hours).
const MA_WINDOW: usize = 25;
/// Inputs are winsorized at ±`Z_CLIP` standard deviations. Online demand
/// windows can contain saturation spikes far outside the training
/// distribution (the cluster pinned at capacity); without clipping, the
/// linear heads extrapolate them into forecasts above cluster capacity and
/// the SQA inventory (Eq. 9) collapses to zero for hours.
const Z_CLIP: f64 = 3.0;

/// Reusable per-batch staging buffers; pooled so warm steps don't allocate.
#[derive(Debug, Default)]
struct Scratch {
    window: Vec<f64>,
    decomp: DecomposeScratch,
    hours: Vec<usize>,
    weekdays: Vec<usize>,
    holidays: Vec<usize>,
    idx: Vec<usize>,
    embs: Vec<Var>,
    scores: Vec<Var>,
}

/// Training inputs staged once per fit. The normalised, clamped series
/// is a pure function of `(org, hour)` and a window's trend row a pure
/// function of the window, so both are computed once instead of once per
/// epoch; the cyclical row stays the per-batch subtraction `x − trend`.
/// Trend rows are addressed by [`OrgDataset::sample_row`], which owns the
/// sample order. Dropped when `fit` returns.
struct Staged {
    /// Normalised, clamped series, `orgs × hours` row-major.
    series: Vec<f64>,
    hours: usize,
    stride: usize,
    input_len: usize,
    /// Trend row of every training window, `train.len() × input_len`.
    trend: Vec<f64>,
}

impl Staged {
    fn new(model: &OrgLinear, data: &OrgDataset, train: &[Sample], stride: usize) -> Self {
        let (orgs, hours, l) = (data.num_orgs(), data.len_hours(), model.input_len);
        let mut series = Vec::with_capacity(orgs * hours);
        for org in 0..orgs {
            series.extend(
                data.series(org)
                    .iter()
                    .map(|&x| model.norm.norm(org, x).clamp(-Z_CLIP, Z_CLIP)),
            );
        }
        let mut trend = vec![0.0; train.len() * l];
        let mut cyc = vec![0.0; l];
        let mut decomp = DecomposeScratch::default();
        for (idx, (row, s)) in trend.chunks_exact_mut(l).zip(train).enumerate() {
            assert_eq!(data.sample_row(*s, stride), idx, "training window order");
            let window = &series[s.org * hours + s.start..][..l];
            decomp.decompose_into(window, MA_WINDOW, row, &mut cyc);
        }
        Staged {
            series,
            hours,
            stride,
            input_len: l,
            trend,
        }
    }

    /// The normalised, clamped input window of `s`.
    fn window(&self, s: Sample) -> &[f64] {
        &self.series[s.org * self.hours + s.start..][..self.input_len]
    }

    /// The trend row of training window `s`.
    fn trend(&self, data: &OrgDataset, s: Sample) -> &[f64] {
        let row = data.sample_row(s, self.stride);
        &self.trend[row * self.input_len..][..self.input_len]
    }
}

/// The OrgLinear forecaster.
///
/// # Examples
///
/// ```
/// use gfs_forecast::dataset::{OrgDataset, OrgInfo, Sample};
/// use gfs_forecast::{Forecaster, OrgLinear, TrainConfig};
///
/// let series = vec![(0..700)
///     .map(|i| 50.0 + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
///     .collect::<Vec<_>>()];
/// let orgs = vec![OrgInfo { name: "A".into(), attrs: vec![0] }];
/// let data = OrgDataset::new(series, orgs, vec![1], vec![], 168, 24).unwrap();
/// let mut model = OrgLinear::new(&data, 7);
/// model.fit(&data, &TrainConfig::fast());
/// let f = model.predict(&data, Sample { org: 0, start: 400 });
/// assert_eq!(f.mean.len(), 24);
/// assert!(f.std.is_some());
/// ```
#[derive(Debug)]
pub struct OrgLinear {
    emb_hour: Embedding,
    emb_weekday: Embedding,
    emb_holiday: Embedding,
    attr_embs: Vec<Embedding>,
    attn_query: Param,
    head_cyclical: Linear,
    head_trend: Linear,
    head_variance: Linear,
    norm: Normalizer,
    input_len: usize,
    graph: RefCell<Graph>,
    scratch: RefCell<Scratch>,
}

impl OrgLinear {
    /// Creates a model shaped for `data`, seeding all weights from `seed`.
    #[must_use]
    pub fn new(data: &OrgDataset, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let l = data.input_len();
        let h = data.horizon();
        let ctx = Self::context_dim(data);
        let attr_embs = data
            .attr_vocab()
            .iter()
            .map(|&v| Embedding::new(v.max(1), BUSINESS_DIM, &mut rng))
            .collect();
        OrgLinear {
            emb_hour: Embedding::new(24, TEMPORAL_DIM, &mut rng),
            emb_weekday: Embedding::new(7, TEMPORAL_DIM, &mut rng),
            emb_holiday: Embedding::new(2, TEMPORAL_DIM, &mut rng),
            attr_embs,
            attn_query: Param::new(gfs_nn::init::xavier(BUSINESS_DIM, 1, &mut rng)),
            head_cyclical: Linear::new(l + ctx, h, &mut rng),
            head_trend: Linear::new(l + ctx, h, &mut rng),
            head_variance: Linear::new(l + ctx, h, &mut rng),
            norm: data.normalizer(0.8),
            input_len: l,
            graph: RefCell::new(Graph::new()),
            scratch: RefCell::new(Scratch {
                window: vec![0.0; l],
                ..Scratch::default()
            }),
        }
    }

    fn context_dim(data: &OrgDataset) -> usize {
        let business = if data.attr_vocab().is_empty() {
            0
        } else {
            BUSINESS_DIM
        };
        business + 3 * TEMPORAL_DIM
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.emb_hour.params();
        p.extend(self.emb_weekday.params());
        p.extend(self.emb_holiday.params());
        for e in &self.attr_embs {
            p.extend(e.params());
        }
        p.push(self.attn_query.clone());
        p.extend(self.head_cyclical.params());
        p.extend(self.head_trend.params());
        p.extend(self.head_variance.params());
        p
    }

    /// Business context `c_o` for a batch (Eq. 4): per-slot embeddings are
    /// scored against a learned query, softmax-weighted and summed.
    fn business_context(&self, g: &mut Graph, data: &OrgDataset, batch: &[Sample]) -> Option<Var> {
        if self.attr_embs.is_empty() {
            return None;
        }
        let mut sc = self.scratch.borrow_mut();
        let sc = &mut *sc;
        sc.embs.clear();
        for (slot, emb) in self.attr_embs.iter().enumerate() {
            sc.idx.clear();
            sc.idx
                .extend(batch.iter().map(|s| data.org(s.org).attrs[slot]));
            let e = emb.forward(g, &sc.idx);
            sc.embs.push(e);
        }
        if sc.embs.len() == 1 {
            return Some(sc.embs[0]);
        }
        let q = g.param(&self.attn_query);
        sc.scores.clear();
        for &e in &sc.embs {
            sc.scores.push(g.matmul(e, q));
        }
        let score_mat = g.concat_cols(&sc.scores); // B × j
        let weights = g.softmax_rows(score_mat);
        let mut acc: Option<Var> = None;
        for (k, &e) in sc.embs.iter().enumerate() {
            let w_k = g.slice_cols(weights, k, 1); // B × 1
            let contrib = g.scale_rows(e, w_k);
            acc = Some(match acc {
                None => contrib,
                Some(a) => g.add(a, contrib),
            });
        }
        acc
    }

    /// Temporal context `c_t` for a batch (Eq. 3).
    fn temporal_context(&self, g: &mut Graph, data: &OrgDataset, batch: &[Sample]) -> Var {
        let mut sc = self.scratch.borrow_mut();
        sc.hours.clear();
        sc.weekdays.clear();
        sc.holidays.clear();
        for s in batch {
            let (h, w, hol) = data.temporal_ids(data.forecast_start(*s));
            sc.hours.push(h);
            sc.weekdays.push(w);
            sc.holidays.push(hol);
        }
        let eh = self.emb_hour.forward(g, &sc.hours);
        let ew = self.emb_weekday.forward(g, &sc.weekdays);
        let ehol = self.emb_holiday.forward(g, &sc.holidays);
        g.concat_cols(&[eh, ew, ehol])
    }

    /// Builds the Gaussian head `(mu, pre)` for a batch in normalized
    /// space, where `pre` is the *pre-activation* of σ (Eq. 7; see
    /// `models::gaussian_nll`). Training batches read their windows from
    /// `staged`; prediction stages them here.
    fn forward(
        &self,
        g: &mut Graph,
        data: &OrgDataset,
        batch: &[Sample],
        staged: Option<&Staged>,
    ) -> (Var, Var) {
        let b = batch.len();
        let l = self.input_len;
        let full_v = g.constant_slot(b, l);
        let trend_v = g.constant_slot(b, l);
        let cyc_v = g.constant_slot(b, l);
        {
            let mut sc = self.scratch.borrow_mut();
            let sc = &mut *sc;
            for (r, s) in batch.iter().enumerate() {
                // normalize into the pooled window (unless staged), then
                // stage the batch row and its decomposition — no
                // per-sample temporaries
                let window: &[f64] = match staged {
                    Some(st) => st.window(*s),
                    None => {
                        for (slot, &x) in sc.window.iter_mut().zip(data.input(*s)) {
                            *slot = self.norm.norm(s.org, x).clamp(-Z_CLIP, Z_CLIP);
                        }
                        &sc.window
                    }
                };
                let row = r * l..(r + 1) * l;
                g.slot_mut(full_v)[row.clone()].copy_from_slice(window);
                let (trend_m, cyc_m) = g.two_slots_mut(trend_v, cyc_v);
                let (trend_m, cyc_m) = (&mut trend_m[row.clone()], &mut cyc_m[row]);
                match staged {
                    Some(st) => {
                        trend_m.copy_from_slice(st.trend(data, *s));
                        for ((c, x), t) in cyc_m.iter_mut().zip(window).zip(trend_m.iter()) {
                            *c = x - t;
                        }
                    }
                    None => sc.decomp.decompose_into(window, MA_WINDOW, trend_m, cyc_m),
                }
            }
        }

        let c_t = self.temporal_context(g, data, batch);
        let c_o = self.business_context(g, data, batch);

        // each head maps [x, c_o, c_t] without building the concatenation
        let head = |g: &mut Graph, layer: &Linear, x: Var| -> Var {
            match c_o {
                Some(co) => layer.forward_cat(g, &[x, co, c_t]),
                None => layer.forward_cat(g, &[x, c_t]),
            }
        };

        let y_c = head(g, &self.head_cyclical, cyc_v);
        let y_t = head(g, &self.head_trend, trend_v);
        let mu = g.add(y_c, y_t); // Eq. 6

        let h_v = head(g, &self.head_variance, full_v);
        (mu, h_v)
    }
}

impl Forecaster for OrgLinear {
    fn name(&self) -> &'static str {
        "OrgLinear"
    }

    fn is_probabilistic(&self) -> bool {
        true
    }

    fn fit(&mut self, data: &OrgDataset, cfg: &TrainConfig) -> FitReport {
        train(data, cfg, move |norm, train| {
            self.norm = norm;
            let m: &Self = self;
            let staged = Staged::new(m, data, train, cfg.stride);
            (m.params(), move |g: &mut Graph, b: &[Sample]| {
                let head = m.forward(g, data, b, Some(&staged));
                gaussian_nll(g, data, &m.norm, b, head) // Eq. 7–8 fused
            })
        })
    }

    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast {
        let mut f = self.predict_many(data, &[sample]);
        f.pop().expect("one sample, one forecast")
    }

    fn predict_many(&self, data: &OrgDataset, samples: &[Sample]) -> Vec<Forecast> {
        if samples.is_empty() {
            return Vec::new();
        }
        let mut g = self.graph.borrow_mut();
        g.reset();
        let (mu, pre) = self.forward(&mut g, data, samples, None);
        g.finish();
        forecasts(&self.norm, samples, g.value(mu), Some(g.value(pre)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::OrgInfo;

    fn sine_dataset(orgs: usize, hours: usize) -> OrgDataset {
        let series: Vec<Vec<f64>> = (0..orgs)
            .map(|o| {
                (0..hours)
                    .map(|i| {
                        let day = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
                        60.0 + 10.0 * (o as f64 + 1.0) * day.sin()
                    })
                    .collect()
            })
            .collect();
        let infos = (0..orgs)
            .map(|o| OrgInfo {
                name: format!("org{o}"),
                attrs: vec![o % 2, o % 3],
            })
            .collect();
        OrgDataset::new(series, infos, vec![2, 3], vec![], 96, 12).unwrap()
    }

    #[test]
    fn fit_reduces_loss_and_predicts_shape() {
        let data = sine_dataset(2, 400);
        let mut m = OrgLinear::new(&data, 3);
        let report = m.fit(&data, &TrainConfig::fast());
        assert!(report.final_loss.is_finite());
        assert!(report.samples > 0);
        let f = m.predict(&data, Sample { org: 1, start: 250 });
        assert_eq!(f.mean.len(), 12);
        let std = f.std.expect("probabilistic");
        assert!(std.iter().all(|&s| s > 0.0), "sigma strictly positive");
    }

    #[test]
    fn learns_periodic_signal_better_than_mean_guess() {
        let data = sine_dataset(1, 600);
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 25;
        cfg.lr = 0.02;
        // phase-diverse windows (stride coprime with the 24 h period)
        cfg.stride = 5;
        let mut m = OrgLinear::new(&data, 5);
        m.fit(&data, &cfg);
        let (_, test) = data.split(cfg.stride, cfg.train_frac);
        let mut err_model = 0.0;
        let mut err_mean = 0.0;
        for s in &test {
            let f = m.predict(&data, *s);
            let y = data.target(*s);
            let base = data.input(*s).iter().sum::<f64>() / data.input_len() as f64;
            err_model += crate::metrics::mae(&f.mean, y);
            err_mean += crate::metrics::mae(&vec![base; y.len()], y);
        }
        assert!(
            err_model < err_mean,
            "OrgLinear ({err_model:.2}) must beat the window-mean baseline ({err_mean:.2})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = sine_dataset(1, 400);
        let run = || {
            let mut m = OrgLinear::new(&data, 11);
            m.fit(&data, &TrainConfig::fast());
            m.predict(&data, Sample { org: 0, start: 200 }).mean
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn works_without_business_attributes() {
        let series = vec![(0..400).map(|i| (i % 7) as f64).collect::<Vec<_>>()];
        let orgs = vec![OrgInfo {
            name: "solo".into(),
            attrs: vec![],
        }];
        let data = OrgDataset::new(series, orgs, vec![], vec![], 96, 12).unwrap();
        let mut m = OrgLinear::new(&data, 1);
        m.fit(&data, &TrainConfig::fast());
        let f = m.predict(&data, Sample { org: 0, start: 100 });
        assert_eq!(f.mean.len(), 12);
    }

    #[test]
    fn pruned_backward_matches_the_full_sweep() {
        let data = sine_dataset(2, 400);
        let m = OrgLinear::new(&data, 3);
        let batch: Vec<Sample> = data.split(12, 0.8).0.into_iter().take(6).collect();
        crate::models::tests::assert_pruning_exact(&m.params(), |g| {
            let head = m.forward(g, &data, &batch, None);
            gaussian_nll(g, &data, &m.norm, &batch, head)
        });
    }

    #[test]
    fn staged_windows_match_per_batch_staging_bitwise() {
        let data = sine_dataset(3, 400);
        let m = OrgLinear::new(&data, 3);
        let stride = 5;
        let (train, _) = data.split(stride, 0.8);
        let staged = Staged::new(&m, &data, &train, stride);
        let batch: Vec<Sample> = train.iter().rev().step_by(7).copied().collect();
        let run = |staged: Option<&Staged>| {
            let mut g = Graph::new();
            let (mu, pre) = m.forward(&mut g, &data, &batch, staged);
            let bits = |v: Var| -> Vec<u64> {
                g.value(v).as_slice().iter().map(|x| x.to_bits()).collect()
            };
            let out = (bits(mu), bits(pre));
            g.finish();
            out
        };
        assert_eq!(run(Some(&staged)), run(None));
    }

    #[test]
    fn predict_many_matches_per_sample_predict_bitwise() {
        let data = sine_dataset(2, 400);
        let mut m = OrgLinear::new(&data, 3);
        m.fit(&data, &TrainConfig::fast());
        let samples = [
            Sample { org: 0, start: 210 },
            Sample { org: 1, start: 250 },
            Sample { org: 0, start: 260 },
        ];
        let batched = m.predict_many(&data, &samples);
        for (s, f) in samples.iter().zip(&batched) {
            let single = m.predict(&data, *s);
            assert_eq!(single.mean, f.mean, "{s:?}");
            assert_eq!(single.std, f.std, "{s:?}");
        }
    }
}
