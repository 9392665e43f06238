//! Capacity controllers: the decision side of the market loop.
//!
//! A [`CapacityController`] is consulted once per decision interval with
//! a read-only [`MarketView`] of the run — current cluster, demand
//! estimate, spot quotes — and answers with [`MarketAction`]s. The
//! driver translates those into `AddNode`/`Drain` events on a
//! [`gfs_types::DynamicsPlan`] and admits them through the service's
//! journaled admission path, so every decision is crash-recoverable the
//! same way task arrivals are.
//!
//! # Controller contract
//!
//! `decide` must be a *pure function* of its view: no interior state, no
//! clocks, no randomness. The same service state at the same boundary
//! must always produce the same actions — this is what makes a recovered
//! run (snapshot + journal replay) bit-identical to the uninterrupted
//! one without journaling the controller itself.

use gfs_cluster::{Cluster, Node};
use gfs_types::{NodeId, NodeTemplate, SimDuration, SimTime, HOUR};

use crate::price::PriceProcess;

/// Read-only observation handed to a controller at a decision boundary.
pub struct MarketView<'a> {
    /// The decision instant.
    pub now: SimTime,
    /// Live cluster state.
    pub cluster: &'a Cluster,
    /// GPU-demand estimate over the controller's horizon: the scheduler's
    /// upper-quantile forecast when it maintains one
    /// ([`gfs_cluster::Scheduler::demand_forecast`]), otherwise the
    /// windowed-arrival fallback.
    pub demand_gpus: f64,
    /// Whether `demand_gpus` came from a scheduler forecast (`true`) or
    /// the arrival-window fallback (`false`).
    pub forecast_available: bool,
    /// The price process quoting spot prices.
    pub prices: &'a PriceProcess,
    /// Nodes with an id at or above this index were bought on the market
    /// (the initial fleet is never released).
    pub fleet_origin: u32,
}

impl MarketView<'_> {
    /// Market-owned nodes: minted after the initial fleet.
    pub fn market_nodes(&self) -> impl Iterator<Item = &Node> {
        let origin = self.fleet_origin;
        self.cluster
            .nodes()
            .iter()
            .filter(move |n| n.id().raw() >= origin)
    }
}

/// One capacity decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarketAction {
    /// Buy `nodes` fresh nodes of the given template at the current spot
    /// price.
    Buy {
        /// Hardware of every bought node.
        template: NodeTemplate,
        /// Node count.
        nodes: u32,
    },
    /// Release a market-owned node: a maintenance-style drain with
    /// `notice_secs` of warning, after which the node leaves the fleet.
    /// Billing stops at the release decision (the notice window is
    /// operational grace, not billed time).
    Release {
        /// The node to release.
        node: NodeId,
        /// Drain notice, seconds.
        notice_secs: SimDuration,
    },
}

/// A capacity-buying policy stepped once per decision interval.
pub trait CapacityController {
    /// Display name (used by lab tables and reports).
    fn name(&self) -> &str;

    /// Decision cadence, seconds (boundaries sit at multiples of this).
    fn interval_secs(&self) -> SimDuration {
        HOUR
    }

    /// `(p, horizon_hours)` passed to the scheduler's demand forecast.
    fn forecast_query(&self) -> (f64, usize) {
        (0.9, 6)
    }

    /// Produces this boundary's actions. Must be pure (see the module
    /// docs): same view, same answer.
    fn decide(&self, view: &MarketView<'_>) -> Vec<MarketAction>;
}

/// Meter-only controller: never buys or releases. Used to bill a
/// time-driven `DynamicsPlan` autoscale schedule at spot prices so its
/// economics are comparable with a closed-loop controller's.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassiveController;

impl CapacityController for PassiveController {
    fn name(&self) -> &str {
        "passive"
    }

    fn decide(&self, _view: &MarketView<'_>) -> Vec<MarketAction> {
        Vec::new()
    }
}

/// Tuning knobs of [`ForecastController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastParams {
    /// Hardware bought per scale-out step.
    pub template: NodeTemplate,
    /// Capacity target as a multiple of forecast demand (≥ 1 keeps
    /// headroom for forecast error).
    pub headroom: f64,
    /// Buy only while the spot price is at or below this multiple of the
    /// on-demand baseline (don't chase spikes).
    pub max_buy_rel_price: f64,
    /// Upper bound on nodes bought per decision.
    pub max_nodes_per_step: u32,
    /// Drain notice given to released nodes, seconds.
    pub release_notice_secs: SimDuration,
    /// Forecast quantile `p` (Eq. 9 upper quantile).
    pub quantile: f64,
    /// Forecast horizon, hours.
    pub horizon_hours: usize,
    /// Decision cadence, seconds.
    pub interval_secs: SimDuration,
}

impl Default for ForecastParams {
    fn default() -> Self {
        ForecastParams {
            template: NodeTemplate {
                model: gfs_types::GpuModel::A100,
                gpus: 8,
            },
            headroom: 1.1,
            max_buy_rel_price: 1.5,
            max_nodes_per_step: 4,
            release_notice_secs: 1_800,
            quantile: 0.9,
            horizon_hours: 6,
            interval_secs: HOUR,
        }
    }
}

/// The closed-loop policy: follow the demand forecast, gated by price.
///
/// At each boundary it compares the capacity target
/// (`demand × headroom`) against up fleet capacity. Short capacity is
/// bought — but only while spot quotes stay under
/// [`ForecastParams::max_buy_rel_price`] × baseline, so a price shock
/// pauses buying instead of paying the spike. Excess capacity is
/// released one safe node at a time (idle first), never stranding a
/// running gang below its guarantee — see [`release_is_safe`].
#[derive(Debug, Clone)]
pub struct ForecastController {
    /// Tuning knobs.
    pub params: ForecastParams,
}

impl ForecastController {
    /// A controller with the given knobs.
    #[must_use]
    pub fn new(params: ForecastParams) -> Self {
        ForecastController { params }
    }
}

impl CapacityController for ForecastController {
    fn name(&self) -> &str {
        "forecast"
    }

    fn interval_secs(&self) -> SimDuration {
        self.params.interval_secs
    }

    fn forecast_query(&self) -> (f64, usize) {
        (self.params.quantile, self.params.horizon_hours)
    }

    fn decide(&self, view: &MarketView<'_>) -> Vec<MarketAction> {
        let p = &self.params;
        let capacity = view.cluster.capacity(None);
        let target = view.demand_gpus * p.headroom;
        let gap = target - capacity;
        let node_gpus = f64::from(p.template.gpus.max(1));

        if gap >= node_gpus {
            let rel = view.prices.relative_price(p.template.model, view.now);
            if rel <= p.max_buy_rel_price {
                let nodes = ((gap / node_gpus).ceil() as u32).min(p.max_nodes_per_step.max(1));
                return vec![MarketAction::Buy {
                    template: p.template,
                    nodes,
                }];
            }
            return Vec::new(); // short, but the price says wait
        }

        // excess capacity: hand back market nodes, emptiest first, while
        // staying above the target
        let mut excess = capacity - target;
        let mut candidates: Vec<&Node> = view
            .market_nodes()
            .filter(|n| n.is_up() && !n.is_draining())
            .filter(|n| release_is_safe(view.cluster, n.id(), view.now, p.release_notice_secs))
            .collect();
        candidates.sort_by_key(|n| (n.allocated(), n.id().raw()));
        let mut actions = Vec::new();
        for n in candidates {
            let gpus = f64::from(n.total_gpus());
            if excess < gpus {
                break;
            }
            excess -= gpus;
            actions.push(MarketAction::Release {
                node: n.id(),
                notice_secs: p.release_notice_secs,
            });
        }
        actions
    }
}

/// Whether draining `node` with `notice_secs` of warning strands no
/// running gang below its guarantee.
///
/// A gang is safe to disturb when it either finishes inside the notice
/// window (`remaining ≤ notice`) or is a spot gang already past its sold
/// guarantee (evictable by contract; spot gangs without a guarantee are
/// always evictable). An HP gang that cannot finish inside the window
/// blocks the release — HP work is never churned for money — as does a
/// spot gang still inside its guaranteed duration.
#[must_use]
pub fn release_is_safe(
    cluster: &Cluster,
    node: NodeId,
    now: SimTime,
    notice_secs: SimDuration,
) -> bool {
    cluster
        .running()
        .filter(|rt| rt.placements.iter().any(|p| p.node == node))
        .all(|rt| {
            let finishes = rt.remaining(now) <= notice_secs;
            let past_guarantee = rt.spec.priority.is_spot()
                && rt.spec.guarantee_secs.is_none_or(|g| rt.progress(now) >= g);
            finishes || past_guarantee
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuDemand, GpuModel, Priority, TaskSpec};

    fn cluster_with(tasks: &[(u64, Priority, Option<u64>, u64, u32)]) -> Cluster {
        // (id, priority, guarantee, duration, node)
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        for &(id, priority, guarantee, duration, node) in tasks {
            let mut b = TaskSpec::builder(id)
                .priority(priority)
                .gpus_per_pod(GpuDemand::whole(2))
                .duration_secs(duration);
            if let Some(g) = guarantee {
                b = b.guarantee_secs(g);
            }
            let spec = b.build().expect("valid");
            c.start_task(spec, &[NodeId::new(node)], SimTime::ZERO, 0)
                .expect("fits");
        }
        c
    }

    #[test]
    fn idle_node_is_safe() {
        let c = cluster_with(&[]);
        assert!(release_is_safe(&c, NodeId::new(0), SimTime::ZERO, 1_800));
    }

    #[test]
    fn hp_gang_that_cannot_finish_blocks_release() {
        let c = cluster_with(&[(1, Priority::Hp, None, 100_000, 0)]);
        assert!(!release_is_safe(&c, NodeId::new(0), SimTime::ZERO, 1_800));
        // a node the gang is not on stays releasable
        assert!(release_is_safe(&c, NodeId::new(1), SimTime::ZERO, 1_800));
    }

    #[test]
    fn gang_finishing_inside_notice_is_safe() {
        let c = cluster_with(&[(1, Priority::Hp, None, 1_000, 0)]);
        assert!(release_is_safe(&c, NodeId::new(0), SimTime::ZERO, 1_800));
    }

    #[test]
    fn spot_below_guarantee_blocks_until_guarantee_met() {
        let c = cluster_with(&[(1, Priority::Spot, Some(7_200), 100_000, 0)]);
        assert!(!release_is_safe(&c, NodeId::new(0), SimTime::ZERO, 1_800));
        // two hours in, the guarantee has been honoured
        assert!(release_is_safe(
            &c,
            NodeId::new(0),
            SimTime::from_hours(2),
            1_800
        ));
    }

    #[test]
    fn spot_without_guarantee_is_always_releasable() {
        let c = cluster_with(&[(1, Priority::Spot, None, 100_000, 0)]);
        assert!(release_is_safe(&c, NodeId::new(0), SimTime::ZERO, 1_800));
    }

    #[test]
    fn forecast_controller_buys_when_short_and_cheap() {
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let prices = PriceProcess::fixed();
        let view = MarketView {
            now: SimTime::from_hours(1),
            cluster: &c,
            demand_gpus: 40.0,
            forecast_available: true,
            prices: &prices,
            fleet_origin: 2,
        };
        let ctrl = ForecastController::new(ForecastParams::default());
        let actions = ctrl.decide(&view);
        assert_eq!(actions.len(), 1);
        match actions[0] {
            MarketAction::Buy { nodes, .. } => assert_eq!(nodes, 4, "capped per step"),
            MarketAction::Release { .. } => panic!("expected a buy"),
        }
    }

    #[test]
    fn forecast_controller_waits_out_a_spike() {
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let prices = PriceProcess::fixed().with_shocks(vec![crate::PriceShock {
            at: SimTime::ZERO,
            model: GpuModel::A100,
            factor: 3.0,
            duration_secs: 10 * HOUR,
        }]);
        let view = MarketView {
            now: SimTime::from_hours(1),
            cluster: &c,
            demand_gpus: 40.0,
            forecast_available: true,
            prices: &prices,
            fleet_origin: 2,
        };
        let ctrl = ForecastController::new(ForecastParams::default());
        assert!(ctrl.decide(&view).is_empty(), "no buying into a 3× spike");
    }

    #[test]
    fn forecast_controller_releases_only_market_nodes_down_to_target() {
        // 4-node fleet, first 2 are the base fleet, all idle
        let c = Cluster::homogeneous(4, GpuModel::A100, 8);
        let prices = PriceProcess::fixed();
        let view = MarketView {
            now: SimTime::from_hours(1),
            cluster: &c,
            demand_gpus: 10.0,
            forecast_available: false,
            prices: &prices,
            fleet_origin: 2,
        };
        let ctrl = ForecastController::new(ForecastParams::default());
        let actions = ctrl.decide(&view);
        // capacity 32, target 11 → excess 21 → release 2 nodes (16 GPUs)
        assert_eq!(actions.len(), 2);
        for a in &actions {
            match a {
                MarketAction::Release { node, .. } => assert!(node.raw() >= 2),
                MarketAction::Buy { .. } => panic!("expected releases"),
            }
        }
    }

    #[test]
    fn passive_controller_never_acts() {
        let c = Cluster::homogeneous(1, GpuModel::A10, 1);
        let prices = PriceProcess::fixed();
        let view = MarketView {
            now: SimTime::ZERO,
            cluster: &c,
            demand_gpus: 1_000.0,
            forecast_available: false,
            prices: &prices,
            fleet_origin: 0,
        };
        assert!(PassiveController.decide(&view).is_empty());
    }
}
