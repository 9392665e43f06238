//! Framework configuration (Table 4 of the paper).

use serde::{Deserialize, Serialize};

use crate::{Error, Result, SimDuration, HOUR};

/// How the SQA safety coefficient `η` evolves (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EtaUpdateRule {
    /// Paper's adaptive feedback rule (Eq. 11).
    Adaptive,
    /// Ablation `GFS-d`: `η` frozen at its initial value.
    Frozen,
}

/// All tunable parameters of GFS, with the defaults of Table 4.
///
/// # Examples
///
/// ```
/// use gfs_types::GfsParams;
///
/// let params = GfsParams::default();
/// assert_eq!(params.guarantee_hours, 1);
/// let tuned = GfsParams::builder().guarantee_hours(4).build().unwrap();
/// assert_eq!(tuned.guarantee_hours, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GfsParams {
    /// Weight `β` balancing eviction-rate impact vs usage impact in the node
    /// preemption cost (Eq. 19).
    pub beta: f64,
    /// Target guarantee rate `p` for the demand quantile (Eq. 9); `0.9`
    /// means the forecast upper bound is the 90th percentile.
    pub guarantee_rate: f64,
    /// Maximum acceptable spot queuing time `θ` in seconds (Eq. 11).
    pub max_jqt_threshold_secs: SimDuration,
    /// Weight `γ` between short- and long-window eviction counts (Eq. 15).
    pub gamma: f64,
    /// Penalty intensity `m` in the eviction-awareness score (Eq. 16).
    pub penalty_m: f64,
    /// Guarantee horizon `H` in hours (Eq. 9/10); the spot quota protects
    /// spot tasks for this long.
    pub guarantee_hours: u32,
    /// Short eviction-history window for Eq. 15 (default 1 h).
    pub eviction_window_short_secs: SimDuration,
    /// Long eviction-history window for Eq. 15 (default 24 h).
    pub eviction_window_long_secs: SimDuration,
    /// Initial value of the SQA safety coefficient `η` (Eq. 10).
    pub eta_initial: f64,
    /// How `η` is updated.
    pub eta_rule: EtaUpdateRule,
    /// Clamp range for `η` to keep the feedback loop stable.
    pub eta_bounds: (f64, f64),
}

impl Default for GfsParams {
    fn default() -> Self {
        GfsParams {
            beta: 0.5,
            guarantee_rate: 0.9,
            max_jqt_threshold_secs: HOUR,
            gamma: 0.8,
            penalty_m: 3.0,
            guarantee_hours: 1,
            eviction_window_short_secs: HOUR,
            eviction_window_long_secs: 24 * HOUR,
            eta_initial: 1.0,
            eta_rule: EtaUpdateRule::Adaptive,
            eta_bounds: (0.1, 4.0),
        }
    }
}

impl GfsParams {
    /// Starts a builder initialised with the Table 4 defaults.
    #[must_use]
    pub fn builder() -> GfsParamsBuilder {
        GfsParamsBuilder {
            params: GfsParams::default(),
        }
    }

    /// The guarantee horizon `H` in seconds.
    #[must_use]
    pub fn guarantee_secs(&self) -> SimDuration {
        u64::from(self.guarantee_hours) * HOUR
    }

    /// Validates every field range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violated bound.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(Error::InvalidConfig(format!(
                "gamma must lie in [0, 1], got {}",
                self.gamma
            )));
        }
        if !(self.guarantee_rate > 0.0 && self.guarantee_rate < 1.0) {
            return Err(Error::InvalidConfig(format!(
                "guarantee_rate must lie in (0, 1), got {}",
                self.guarantee_rate
            )));
        }
        // `!(v >= 0.0)` also rejects NaN; ∞ is no weight or penalty either
        let non_negative = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(Error::InvalidConfig(format!(
                    "{name} must be finite and non-negative, got {v}"
                )))
            }
        };
        non_negative("beta", self.beta)?;
        non_negative("penalty_m", self.penalty_m)?;
        if self.guarantee_hours == 0 {
            return Err(Error::InvalidConfig(
                "guarantee_hours must be positive".into(),
            ));
        }
        if !(self.eta_initial.is_finite() && self.eta_initial > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "eta_initial must be finite and positive, got {}",
                self.eta_initial
            )));
        }
        let (lo, hi) = self.eta_bounds;
        if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
            return Err(Error::InvalidConfig(format!(
                "eta_bounds must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})"
            )));
        }
        if self.eviction_window_short_secs > self.eviction_window_long_secs {
            return Err(Error::InvalidConfig(
                "short eviction window must not exceed the long window".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`GfsParams`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct GfsParamsBuilder {
    params: GfsParams,
}

impl GfsParamsBuilder {
    /// Sets `β` (Eq. 19).
    #[must_use]
    pub fn beta(mut self, v: f64) -> Self {
        self.params.beta = v;
        self
    }

    /// Sets the target guarantee rate `p` (Eq. 9).
    #[must_use]
    pub fn guarantee_rate(mut self, v: f64) -> Self {
        self.params.guarantee_rate = v;
        self
    }

    /// Sets the JQT threshold `θ` in seconds (Eq. 11).
    #[must_use]
    pub fn max_jqt_threshold_secs(mut self, v: SimDuration) -> Self {
        self.params.max_jqt_threshold_secs = v;
        self
    }

    /// Sets `γ` (Eq. 15).
    #[must_use]
    pub fn gamma(mut self, v: f64) -> Self {
        self.params.gamma = v;
        self
    }

    /// Sets the penalty intensity `m` (Eq. 16).
    #[must_use]
    pub fn penalty_m(mut self, v: f64) -> Self {
        self.params.penalty_m = v;
        self
    }

    /// Sets the guarantee horizon `H` in hours (Eq. 9/10).
    #[must_use]
    pub fn guarantee_hours(mut self, v: u32) -> Self {
        self.params.guarantee_hours = v;
        self
    }

    /// Sets the initial `η` value.
    #[must_use]
    pub fn eta_initial(mut self, v: f64) -> Self {
        self.params.eta_initial = v;
        self
    }

    /// Sets the `η` update rule.
    #[must_use]
    pub fn eta_rule(mut self, rule: EtaUpdateRule) -> Self {
        self.params.eta_rule = rule;
        self
    }

    /// Sets the clamp bounds for `η`.
    #[must_use]
    pub fn eta_bounds(mut self, lo: f64, hi: f64) -> Self {
        self.params.eta_bounds = (lo, hi);
        self
    }

    /// Finishes the build, validating all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any field violates its range;
    /// see [`GfsParams::validate`].
    pub fn build(self) -> Result<GfsParams> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_4() {
        let p = GfsParams::default();
        assert_eq!(p.beta, 0.5);
        assert_eq!(p.guarantee_rate, 0.9);
        assert_eq!(p.max_jqt_threshold_secs, 3_600);
        assert_eq!(p.gamma, 0.8);
        assert_eq!(p.penalty_m, 3.0);
        assert_eq!(p.guarantee_hours, 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn guarantee_secs_converts_hours() {
        let p = GfsParams::builder().guarantee_hours(4).build().unwrap();
        assert_eq!(p.guarantee_secs(), 4 * 3_600);
    }

    #[test]
    fn builder_rejects_bad_rate() {
        assert!(GfsParams::builder().guarantee_rate(0.0).build().is_err());
        assert!(GfsParams::builder().guarantee_rate(1.0).build().is_err());
        assert!(GfsParams::builder().guarantee_rate(1.5).build().is_err());
    }

    #[test]
    fn builder_rejects_bad_eta() {
        assert!(GfsParams::builder().eta_initial(0.0).build().is_err());
        assert!(GfsParams::builder().eta_bounds(0.0, 1.0).build().is_err());
        assert!(GfsParams::builder().eta_bounds(2.0, 1.0).build().is_err());
    }

    #[test]
    fn builder_rejects_zero_h() {
        assert!(GfsParams::builder().guarantee_hours(0).build().is_err());
    }

    #[test]
    fn builder_rejects_bad_gamma() {
        assert!(GfsParams::builder().gamma(1.1).build().is_err());
    }

    #[test]
    fn builder_rejects_non_finite_values() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let b = GfsParams::builder;
            assert!(b().beta(v).build().is_err(), "beta {v}");
            assert!(b().penalty_m(v).build().is_err(), "penalty_m {v}");
            assert!(b().eta_initial(v).build().is_err(), "eta_initial {v}");
            assert!(b().eta_bounds(0.1, v).build().is_err(), "eta_bounds.1 {v}");
            assert!(b().eta_bounds(v, 4.0).build().is_err(), "eta_bounds.0 {v}");
            assert!(b().gamma(v).build().is_err(), "gamma {v}");
            assert!(b().guarantee_rate(v).build().is_err(), "guarantee_rate {v}");
        }
        // the edges of the valid ranges stay valid
        let p = GfsParams::builder().beta(0.0).penalty_m(0.0).build();
        assert!(p.is_ok());
        assert!(GfsParams::builder().beta(-0.5).build().is_err());
    }

    #[test]
    fn frozen_rule_serializes() {
        let p = GfsParams::builder()
            .eta_rule(EtaUpdateRule::Frozen)
            .build()
            .unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: GfsParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
