//! The hourly diurnal submission table both trace generators draw from,
//! built once per generator so each submission costs O(log hours).
//!
//! Hour `h` of the horizon weighs `w_h = 0.2 + diurnal_profile(h % 24)`;
//! the table keeps the weights and their sequential prefix sums
//! `P_0 = 0`, `P_{k+1} = fl(P_k + w_k)`, so `total = P_H` is bit for bit
//! the sequential sum of the weights. Each submission draws
//! `u ∈ [0, total)`, maps it to an hour by one of two rules, then draws
//! the second within that hour.
//!
//! * The *partition* rule ([`FleetTraceGenerator`]) takes the first hour
//!   `i` with `u < P_{i+1}`.
//! * The *scan* rule ([`WorkloadGenerator`]) is `weighted_index`'s
//!   subtraction scan, `if u < w_i { return i } u -= w_i`, whose
//!   rounding differs from the prefix sums'. It is answered by binary
//!   search whenever the search can certify the scan's answer, and by
//!   the scan itself otherwise.
//!
//! # Why the certified search picks the scan's hour
//!
//! Let `U = ulp(total) ≤ ε·total`. Every prefix sum lies in
//! `[0, total]`, and so does every residue the scan computes (it only
//! subtracts `w_k` from a residue `d_k ≥ w_k`, and starts below
//! `total`), so each rounding in either moves a value by at most `U/2`.
//! After `k` steps the scan's residue `d_k` is `u − Σ_{j<k} w_j` up to
//! `k·U/2`, and `P_{k+1}` is `Σ_{j≤k} w_j` up to `(k+1)·U/2`, hence
//! `|(d_k − w_k) − (u − P_{k+1})| ≤ (k+1)·U ≤ (H+1)·U`.
//!
//! Say the search finds `P_i ≤ u < P_{i+1}` with both margins
//! `u − P_i` and `P_{i+1} − u` above `(H+1)·U`. For `k < i`,
//! `P_{k+1} ≤ P_i`, so `d_k − w_k > 0` and the scan moves on; at
//! `k = i`, `d_i − w_i < 0` and the scan returns `i`. The margins are
//! themselves computed in floating point, off by at most `U/2` each, so
//! the table demands `slack = 4·(H+1)·ε·total ≥ 4·(H+1)·U`, which leaves
//! a factor of four to spare. Draws inside the slack of a boundary fall
//! back to the scan; debug builds run the scan on every draw and assert
//! both agree.
//!
//! [`FleetTraceGenerator`]: crate::fleet::FleetTraceGenerator
//! [`WorkloadGenerator`]: crate::workload::WorkloadGenerator

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use gfs_types::{SimDuration, SimTime, HOUR};

use crate::orgdemand::OrgArchetype;

/// Hourly submission weights over a horizon and their prefix sums.
#[derive(Debug, Clone)]
pub(crate) struct DiurnalTable {
    /// `w_h` for each whole hour of the horizon (at least one hour).
    weights: Vec<f64>,
    /// `P_0 ..= P_H`; the last entry is the total weight.
    prefix: Vec<f64>,
    /// Margin a searched hour keeps from both its boundaries.
    slack: f64,
    /// Seconds the within-hour draw spans: an hour, or the whole
    /// horizon when that is shorter.
    second_span: SimDuration,
}

impl DiurnalTable {
    /// Builds the table for a submission window of `horizon_secs`.
    pub(crate) fn new(horizon_secs: SimDuration) -> Self {
        let hours = (horizon_secs / HOUR).max(1);
        let weights: Vec<f64> = (0..hours)
            .map(|h| 0.2 + OrgArchetype::diurnal_profile(h % 24))
            .collect();
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut total = 0.0;
        prefix.push(total);
        for &w in &weights {
            total += w;
            prefix.push(total);
        }
        DiurnalTable {
            slack: 4.0 * (weights.len() + 1) as f64 * total * f64::EPSILON,
            weights,
            prefix,
            second_span: HOUR.min(horizon_secs).max(1),
        }
    }

    /// A submission instant by the partition rule.
    pub(crate) fn sample_partition(&self, rng: &mut ChaCha8Rng) -> SimTime {
        let u = rng.gen_range(0.0..self.total());
        self.place(self.prefix[1..].partition_point(|&p| p <= u), rng)
    }

    /// A submission instant by the scan rule, through the certified
    /// search.
    pub(crate) fn sample_scan(&self, rng: &mut ChaCha8Rng) -> SimTime {
        let u = rng.gen_range(0.0..self.total());
        self.place(self.scan_hour(u), rng)
    }

    fn total(&self) -> f64 {
        *self.prefix.last().expect("at least one hour")
    }

    /// Places a submission at a uniform second of `hour`.
    fn place(&self, hour: usize, rng: &mut ChaCha8Rng) -> SimTime {
        let sec = rng.gen_range(0..self.second_span);
        SimTime::from_secs(hour as u64 * HOUR + sec)
    }

    /// The hour the subtraction scan picks for `u`.
    fn scan_hour(&self, u: f64) -> usize {
        let hour = self.searched_hour(u).unwrap_or_else(|| self.scan(u));
        debug_assert_eq!(
            hour,
            self.scan(u),
            "certified diurnal search diverged from the scan at u = {u:e}"
        );
        hour
    }

    /// The hour `i` with `P_i ≤ u < P_{i+1}`, when `u` clears both
    /// boundaries by the slack; `None` leaves the answer to the scan.
    fn searched_hour(&self, u: f64) -> Option<usize> {
        let i = self.prefix[1..].partition_point(|&p| p <= u);
        let upper = *self.prefix.get(i + 1)?;
        (u - self.prefix[i] > self.slack && upper - u > self.slack).then_some(i)
    }

    /// `weighted_index`'s subtraction scan over the weights.
    fn scan(&self, mut u: f64) -> usize {
        for (i, &w) in self.weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        self.weights.len() - 1
    }

    /// Which path answers `u`: `true` when the scan does.
    #[cfg(test)]
    fn takes_fallback(&self, u: f64) -> bool {
        self.searched_hour(u).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetTraceConfig, FleetTraceGenerator};
    use crate::workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn certified_search_matches_the_scan_at_every_boundary() {
        for hours in [1, 24, 168, 576, 1344] {
            let table = DiurnalTable::new(hours * HOUR);
            let below_total = table.total().next_down();
            let mut draws = vec![0.0, below_total];
            for (k, &p) in table.prefix.iter().enumerate() {
                let (mut up, mut down) = (p, p);
                for _ in 0..=64 {
                    draws.push(up.clamp(0.0, below_total));
                    draws.push(down.clamp(0.0, below_total));
                    up = up.next_up();
                    down = down.next_down();
                }
                if let Some(&next) = table.prefix.get(k + 1) {
                    draws.push((p + next) / 2.0);
                }
            }
            let mut fallbacks = 0;
            for &u in &draws {
                assert_eq!(table.scan_hour(u), table.scan(u), "H = {hours}, u = {u:e}");
                fallbacks += usize::from(table.takes_fallback(u));
            }
            assert!(fallbacks > 0, "H = {hours}: the sweep never fell back");
            assert!(
                fallbacks < draws.len(),
                "H = {hours}: the sweep never searched"
            );
        }
    }

    #[test]
    fn submissions_stay_inside_the_window() {
        for horizon_secs in [1, 600, 3_599, 3_600, 5_400] {
            let workload = WorkloadGenerator::new(WorkloadConfig {
                horizon_secs,
                hp_tasks: 400,
                spot_tasks: 100,
                ..WorkloadConfig::default()
            })
            .generate();
            let fleet = FleetTraceGenerator::new(FleetTraceConfig {
                shards: 2,
                tasks: 500,
                horizon_secs,
                ..FleetTraceConfig::default()
            })
            .generate_sharded();
            for t in workload.iter().chain(fleet.iter().flatten()) {
                assert!(
                    t.submit_at.as_secs() < horizon_secs,
                    "task {} submitted at {} s of a {horizon_secs} s window",
                    t.id,
                    t.submit_at.as_secs()
                );
            }
        }
    }
}
