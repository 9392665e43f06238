//! Deterministic per-model spot-price processes.
//!
//! A [`PriceProcess`] is a *pure function* of `(seed, model, time)`: two
//! processes built from the same seed and shock schedule quote identical
//! prices at every instant, on every thread, in every process. That is
//! what lets market runs share the engine's reproducibility contract —
//! the price path never needs to be journaled or snapshotted, it is
//! recomputed on demand.
//!
//! The base series is a mean-reverting walk on an hourly grid around the
//! on-demand price [`GpuModel::hourly_price_usd`], driven by one
//! SplitMix64 stream per `(seed, model)` pair. Declarative
//! [`PriceShock`]s multiply the quoted price while active, which is how
//! scenarios express "spot prices spike 3× for six hours mid maintenance
//! wave" without touching the walk.

use gfs_types::{GpuModel, SimDuration, SimTime, SplitMix64, HOUR};

/// Mixing constant deriving the per-`(seed, model)` stream seed. Distinct
/// from the per-node (`0x9E37…`) and per-domain (`0xA076…`) constants used
/// by the dynamics generators, so a market run never correlates its price
/// path with its failure schedule even under the same run seed.
const MODEL_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Uniform draw in `[-1, 1]` from the top 53 bits of a SplitMix64 output.
fn unit_symmetric(z: u64) -> f64 {
    ((z >> 11) as f64 / (1u64 << 53) as f64).mul_add(2.0, -1.0)
}

/// A declarative price shock: while active, the quoted price of `model`
/// is multiplied by `factor`.
///
/// Shocks compose multiplicatively when they overlap; a factor above 1 is
/// a spike (capacity crunch), below 1 a glut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceShock {
    /// When the shock starts.
    pub at: SimTime,
    /// The affected GPU model.
    pub model: GpuModel,
    /// Price multiplier while active (must be positive).
    pub factor: f64,
    /// Shock length, seconds; active over `[at, at + duration_secs)`.
    pub duration_secs: SimDuration,
}

impl PriceShock {
    /// Whether the shock applies to `model` at instant `t`.
    #[must_use]
    pub fn active(&self, model: GpuModel, t: SimTime) -> bool {
        self.model == model && t >= self.at && t.since(self.at) < self.duration_secs
    }
}

/// Deterministic spot-price series for every GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceProcess {
    seed: u64,
    /// Per-hour walk amplitude as a fraction of the on-demand price
    /// (0 disables the walk: a fixed-price market).
    vol: f64,
    /// Per-hour pull back toward the on-demand baseline, in `(0, 1]`.
    reversion: f64,
    shocks: Vec<PriceShock>,
}

impl PriceProcess {
    /// A fixed-price market: every model quotes exactly its on-demand
    /// price until a shock multiplies it.
    #[must_use]
    pub fn fixed() -> Self {
        PriceProcess {
            seed: 0,
            vol: 0.0,
            reversion: 1.0,
            shocks: Vec::new(),
        }
    }

    /// A seeded mean-reverting walk with the default ±6%/hour amplitude.
    #[must_use]
    pub fn walk(seed: u64) -> Self {
        PriceProcess {
            seed,
            vol: 0.06,
            reversion: 0.05,
            shocks: Vec::new(),
        }
    }

    /// Overrides the walk amplitude (fraction of baseline per hour).
    #[must_use]
    pub fn with_vol(mut self, vol: f64) -> Self {
        self.vol = vol.max(0.0);
        self
    }

    /// Attaches a shock schedule.
    #[must_use]
    pub fn with_shocks(mut self, shocks: Vec<PriceShock>) -> Self {
        self.shocks = shocks;
        self
    }

    /// The shock schedule.
    #[must_use]
    pub fn shocks(&self) -> &[PriceShock] {
        &self.shocks
    }

    /// Spot price of `model` at instant `at`, USD per GPU-hour.
    ///
    /// Pure: depends only on `(seed, model, at)` and the shock schedule.
    /// The walk advances on an hourly grid (prices are constant within an
    /// hour), stays inside `[0.25×, 4×]` of the on-demand baseline, and
    /// active shocks multiply on top (floored at 5% of baseline).
    #[must_use]
    pub fn price(&self, model: GpuModel, at: SimTime) -> f64 {
        let base = model.hourly_price_usd();
        let mut rel = 1.0;
        if self.vol > 0.0 {
            let idx = GpuModel::ALL
                .iter()
                .position(|&m| m == model)
                .expect("model in ALL") as u64;
            let mut rng =
                SplitMix64::new(self.seed.wrapping_add((idx + 1).wrapping_mul(MODEL_STREAM)));
            // deviation from baseline, mean-reverting toward 0
            let mut x = 0.0f64;
            for _ in 0..at.as_secs() / HOUR {
                let u = unit_symmetric(rng.next_u64());
                x += self.reversion * (0.0 - x) + self.vol * u;
            }
            rel = (1.0 + x).clamp(0.25, 4.0);
        }
        let mut price = base * rel;
        for s in &self.shocks {
            if s.active(model, at) {
                price *= s.factor.max(0.0);
            }
        }
        price.max(0.05 * base)
    }

    /// Quotes for every model in [`GpuModel::ALL`] order.
    #[must_use]
    pub fn quotes(&self, at: SimTime) -> [f64; 4] {
        let mut q = [0.0; 4];
        for (i, m) in GpuModel::ALL.iter().enumerate() {
            q[i] = self.price(*m, at);
        }
        q
    }

    /// Quoted price over the on-demand baseline: `1.0` means at parity,
    /// `>1` spot is expensive, `<1` spot is cheap.
    #[must_use]
    pub fn relative_price(&self, model: GpuModel, at: SimTime) -> f64 {
        self.price(model, at) / model.hourly_price_usd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_process_quotes_baseline() {
        let p = PriceProcess::fixed();
        for m in GpuModel::ALL {
            assert_eq!(p.price(m, SimTime::ZERO), m.hourly_price_usd());
            assert_eq!(p.price(m, SimTime::from_hours(1000)), m.hourly_price_usd());
        }
    }

    #[test]
    fn walk_is_deterministic_and_seed_sensitive() {
        let a = PriceProcess::walk(7);
        let b = PriceProcess::walk(7);
        let c = PriceProcess::walk(8);
        let t = SimTime::from_hours(72);
        for m in GpuModel::ALL {
            assert_eq!(a.price(m, t), b.price(m, t), "same seed, same quote");
        }
        assert!(
            GpuModel::ALL
                .iter()
                .any(|&m| a.price(m, t) != c.price(m, t)),
            "different seeds should diverge somewhere"
        );
    }

    #[test]
    fn walk_is_constant_within_an_hour_and_bounded() {
        let p = PriceProcess::walk(3).with_vol(0.5);
        for m in GpuModel::ALL {
            let q = p.price(m, SimTime::from_hours(5));
            assert_eq!(p.price(m, SimTime::from_secs(5 * HOUR + 1_799)), q);
            for h in 0..200 {
                let rel = p.relative_price(m, SimTime::from_hours(h));
                assert!((0.25..=4.0).contains(&rel), "rel={rel}");
            }
        }
    }

    #[test]
    fn streams_differ_per_model() {
        let p = PriceProcess::walk(11);
        let t = SimTime::from_hours(48);
        let rels: Vec<f64> = GpuModel::ALL
            .iter()
            .map(|&m| p.relative_price(m, t))
            .collect();
        assert!(
            rels.windows(2).any(|w| w[0] != w[1]),
            "per-model streams must not be identical: {rels:?}"
        );
    }

    #[test]
    fn shock_multiplies_only_its_window_and_model() {
        let shock = PriceShock {
            at: SimTime::from_hours(10),
            model: GpuModel::A100,
            factor: 3.0,
            duration_secs: 2 * HOUR,
        };
        let p = PriceProcess::fixed().with_shocks(vec![shock]);
        let base = GpuModel::A100.hourly_price_usd();
        assert_eq!(p.price(GpuModel::A100, SimTime::from_hours(9)), base);
        assert_eq!(p.price(GpuModel::A100, SimTime::from_hours(10)), 3.0 * base);
        assert_eq!(p.price(GpuModel::A100, SimTime::from_hours(11)), 3.0 * base);
        assert_eq!(p.price(GpuModel::A100, SimTime::from_hours(12)), base);
        assert_eq!(
            p.price(GpuModel::H800, SimTime::from_hours(11)),
            GpuModel::H800.hourly_price_usd(),
            "other models unaffected"
        );
    }

    #[test]
    fn overlapping_shocks_compose_multiplicatively() {
        let mk = |factor| PriceShock {
            at: SimTime::ZERO,
            model: GpuModel::A10,
            factor,
            duration_secs: HOUR,
        };
        let p = PriceProcess::fixed().with_shocks(vec![mk(2.0), mk(0.5)]);
        assert_eq!(
            p.price(GpuModel::A10, SimTime::ZERO),
            GpuModel::A10.hourly_price_usd()
        );
    }
}
