//! GPU hardware description.
//!
//! The production cluster in the paper (Table 1) mixes four GPU models, all
//! hosted on 8-GPU nodes. Per-model hourly prices are only used to convert
//! allocation-rate improvements into the dollar figure of Fig. 9 / §4.3; the
//! values follow public cloud GPU pricing ratios.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of GPUs per node for every model in the studied cluster (Table 1).
pub const GPUS_PER_NODE: u32 = 8;

/// GPU hardware model.
///
/// # Examples
///
/// ```
/// use gfs_types::GpuModel;
///
/// assert!(GpuModel::H800.hourly_price_usd() > GpuModel::A10.hourly_price_usd());
/// assert_eq!(GpuModel::A100.to_string(), "A100");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA A10 — inference-class GPU; the cluster's most numerous model.
    A10,
    /// NVIDIA A100 — training-class GPU used for the simulation experiments.
    A100,
    /// NVIDIA A800 — the export-variant of the A100.
    A800,
    /// NVIDIA H800 — the export-variant of the H100.
    H800,
}

impl GpuModel {
    /// All models in the production cluster of Table 1.
    pub const ALL: [GpuModel; 4] = [
        GpuModel::A10,
        GpuModel::A100,
        GpuModel::A800,
        GpuModel::H800,
    ];

    /// Approximate on-demand price, USD per GPU-hour. Used only for the
    /// monthly-benefit estimate of §4.3.
    #[must_use]
    pub fn hourly_price_usd(self) -> f64 {
        match self {
            GpuModel::A10 => 0.9,
            GpuModel::A100 => 3.0,
            GpuModel::A800 => 2.7,
            GpuModel::H800 => 4.2,
        }
    }

    /// Node count of this model in the production cluster of Table 1
    /// (lower bounds reported by the paper).
    #[must_use]
    pub fn production_node_count(self) -> u32 {
        match self {
            GpuModel::A10 => 2_000,
            GpuModel::A100 => 400,
            GpuModel::A800 => 50,
            GpuModel::H800 => 200,
        }
    }

    /// GPUs per node of this model in the production cluster (Table 1).
    ///
    /// A10 hosts one card per node; the training-class models host eight.
    #[must_use]
    pub fn production_gpus_per_node(self) -> u32 {
        match self {
            GpuModel::A10 => 1,
            _ => GPUS_PER_NODE,
        }
    }

    /// Pre-GFS allocation rate of this model's pool (Table 1), as a fraction.
    #[must_use]
    pub fn production_allocation_rate(self) -> f64 {
        match self {
            GpuModel::A10 => 0.8459,
            GpuModel::A100 => 0.7434,
            GpuModel::A800 => 0.6296,
            GpuModel::H800 => 0.6811,
        }
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpuModel::A10 => "A10",
            GpuModel::A100 => "A100",
            GpuModel::A800 => "A800",
            GpuModel::H800 => "H800",
        };
        f.write_str(s)
    }
}

/// An exact amount of GPU capacity, in milli-cards (1 card = 1,000).
///
/// The fits, budgets and totals of Alg. 1–3 compare card amounts; as
/// integers they compare exactly, with no tolerance. `f64` is only the
/// boundary view ([`Cards::as_f64`]) and the JSON form: the card count
/// (`0.25`, `8.0`), which decodes only as an exact count of milli-cards
/// in `[0, 2⁵³)`.
///
/// ```
/// use gfs_types::Cards;
///
/// assert_eq!(Cards::ONE - Cards(250), Cards(750));
/// assert_eq!(serde_json::from_str::<Cards>("0.25").unwrap(), Cards(250));
/// assert!(serde_json::from_str::<Cards>("0.0004").is_err());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cards(pub u64);

impl Cards {
    /// One whole card.
    pub const ONE: Cards = Cards(1_000);

    /// `n` whole cards.
    #[must_use]
    pub const fn whole(n: u32) -> Cards {
        Cards(n as u64 * Cards::ONE.0)
    }

    /// The amount in cards.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whole cards needed to hold this amount (rounded up, saturating).
    #[must_use]
    pub fn ceil_cards(self) -> u32 {
        u32::try_from(self.0.div_ceil(Cards::ONE.0)).unwrap_or(u32::MAX)
    }
}

impl std::ops::Add for Cards {
    type Output = Cards;
    fn add(self, rhs: Cards) -> Cards {
        Cards(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Cards {
    type Output = Cards;
    fn sub(self, rhs: Cards) -> Cards {
        Cards(self.0 - rhs.0)
    }
}

impl std::ops::AddAssign for Cards {
    fn add_assign(&mut self, rhs: Cards) {
        self.0 += rhs.0;
    }
}

impl std::ops::SubAssign for Cards {
    fn sub_assign(&mut self, rhs: Cards) {
        self.0 -= rhs.0;
    }
}

impl std::ops::Mul<u32> for Cards {
    type Output = Cards;
    fn mul(self, n: u32) -> Cards {
        // saturating: no pod count can overflow a task total
        Cards(self.0.saturating_mul(u64::from(n)))
    }
}

impl std::iter::Sum for Cards {
    fn sum<I: Iterator<Item = Cards>>(iter: I) -> Cards {
        Cards(iter.map(|c| c.0).sum())
    }
}

impl Serialize for Cards {
    fn serialize_json(&self, out: &mut String) {
        self.as_f64().serialize_json(out);
    }
}

impl Deserialize for Cards {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::DeError> {
        let v = f64::deserialize_json(p)?;
        let m = (v * 1_000.0).round();
        if (0.0..9_007_199_254_740_992.0).contains(&m) && m / 1_000.0 == v {
            Ok(Cards(m as u64))
        } else {
            Err(serde::de::DeError::msg(format!(
                "{v} is not an exact count of milli-cards"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_are_positive_and_ordered_reasonably() {
        for m in GpuModel::ALL {
            assert!(m.hourly_price_usd() > 0.0);
        }
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = GpuModel::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["A10", "A100", "A800", "H800"]);
    }

    #[test]
    fn table1_allocation_rates() {
        assert!((GpuModel::A100.production_allocation_rate() - 0.7434).abs() < 1e-9);
        // high-end pools are all under 80% before GFS (Observation 2)
        for m in [GpuModel::A100, GpuModel::A800, GpuModel::H800] {
            assert!(m.production_allocation_rate() < 0.80);
        }
    }

    #[test]
    fn a10_is_single_card_node() {
        assert_eq!(GpuModel::A10.production_gpus_per_node(), 1);
        assert_eq!(GpuModel::A100.production_gpus_per_node(), 8);
    }

    #[test]
    fn serde_round_trip() {
        let json = serde_json::to_string(&GpuModel::A800).unwrap();
        let back: GpuModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, GpuModel::A800);
    }
}
