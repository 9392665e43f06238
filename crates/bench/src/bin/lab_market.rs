//! Capacity-market sweep as a `gfs::lab` grid: the market axis runs from
//! market-free through passive billing of a PR-4-style time-driven
//! autoscale schedule to the closed-loop forecast controller, under one
//! shared spot-price shock — the "schedulers compared under identical
//! price shocks" scenario of ROADMAP item 3 end to end.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_market
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_JSON=1 …           # dump the aggregated GridReport JSON
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, MarketAxis, SchedulerSpec, WorkloadAxis};
use gfs::market::{spike, ForecastParams, MarketSpec};
use gfs::prelude::*;
use gfs_bench::run_lab_grid;

fn main() {
    let horizon_h = 5;
    let sim_horizon = (horizon_h + 60) * HOUR;

    // one shared price story: A100 spot triples for six hours once the
    // arrival wave is over — the window where *holding* bought capacity
    // is what costs money
    let shock = spike(GpuModel::A100, 6, 12, 3.0);
    // two nodes per boundary front-loads the backlog faster than the
    // autoscale schedule's one-per-hour trickle without overshooting
    // the demand estimate and then holding the excess through the spike
    let params = ForecastParams {
        max_nodes_per_step: 2,
        ..ForecastParams::default()
    };

    let grid = Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(8, 8))
        .workload(WorkloadAxis::generated(
            "backlog",
            WorkloadConfig {
                hp_tasks: 60,
                spot_tasks: 20,
                spot_scale: 2.0,
                horizon_secs: horizon_h * HOUR,
                ..WorkloadConfig::default()
            },
        ))
        .dynamics([
            DynamicsAxis::none(),
            // the PR-4 answer: buy on a clock, price-blind
            DynamicsAxis::autoscale("autoscale", SimTime::from_hours(1), HOUR, 4, 1),
        ])
        .markets([
            MarketAxis::none(),
            // meter-only: bills whatever the autoscale timeline adds
            MarketAxis::fixed(
                "bill",
                Some(MarketSpec::fixed_price().with_shocks(shock.clone())),
            ),
            // the closed loop: forecast-driven buys, price-aware
            MarketAxis::fixed(
                "closedloop",
                Some(MarketSpec::forecast(params).with_shocks(shock)),
            ),
        ])
        .seeds([1, 2, 3])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });

    run_lab_grid(
        &grid,
        &[
            "hp_mean_jct_s",
            "market_spend_usd",
            "gpu_hours_bought",
            "cost_per_completed_usd",
            "stranded_gpu_hours",
        ],
    );
}
