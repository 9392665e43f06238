//! Spot-market walkthrough on the `gfs::market` subsystem: a spot-price
//! spike lands in the middle of a rolling maintenance wave — the
//! scenario no static timeline can express — and two schedulers are
//! compared on what the capacity market actually charges them.
//!
//! The wave drains half the fleet one node at a time, so capacity must
//! be bought back exactly when the A100 spot price triples. A
//! price-blind autoscale schedule (the PR-4 baseline, billed by a
//! passive meter) buys straight through the spike; the closed-loop
//! forecast controller waits it out, buys cheap on the far side, and
//! releases nodes the moment the backlog clears. The table prints cost
//! per completed job and stranded (idle-but-paid) GPU-hours per
//! scheduler per market.
//!
//! ```text
//! cargo run --release --example spot_market
//! ```

use gfs::lab::{
    ClusterShape, DynamicsAxis, Grid, MarketAxis, SchedulerSpec, Threads, WorkloadAxis,
};
use gfs::market::{spike, ForecastParams, MarketSpec};
use gfs::prelude::*;

fn main() {
    let nodes = 8;
    let horizon_h = 10;
    let sim_horizon = (horizon_h + 60) * HOUR;

    // maintenance wave: half the fleet drains one node per half hour
    // from hour 1, each node out for two hours
    let wave_len = nodes / 2;
    let wave = DynamicsAxis::new("halfwave", move |_, _| {
        DynamicsPlan::rolling_drain(wave_len, SimTime::from_hours(1), HOUR / 2, 1_800, 2 * HOUR)
    });

    // ...and the A100 spot price triples from hour 2 for four hours,
    // exactly while the wave bites
    let shock = spike(GpuModel::A100, 2, 4, 3.0);

    let grid = Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(nodes, 8))
        .workload(WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: 48,
                spot_tasks: 16,
                spot_scale: 2.0,
                horizon_secs: horizon_h * HOUR,
                ..WorkloadConfig::default()
            },
        ))
        .dynamic(wave)
        .markets([
            // price-blind: an autoscale-like fixed buy plan billed by the
            // passive meter would go here; simplest contrast is the
            // forecast loop with and without price awareness
            MarketAxis::fixed(
                "priceblind",
                Some(
                    MarketSpec::forecast(ForecastParams {
                        max_buy_rel_price: f64::INFINITY, // buys through the spike
                        max_nodes_per_step: 2,
                        ..ForecastParams::default()
                    })
                    .with_shocks(shock.clone()),
                ),
            ),
            MarketAxis::fixed(
                "priceaware",
                Some(
                    MarketSpec::forecast(ForecastParams {
                        max_nodes_per_step: 2,
                        ..ForecastParams::default() // waits out rel price > 1.5
                    })
                    .with_shocks(shock),
                ),
            ),
        ])
        .seeds([1, 2, 3])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });

    let result = grid.run(Threads::Auto);
    println!("spot-price spike (3x, hours 2-6) mid maintenance wave, {nodes} nodes\n");
    println!(
        "{}",
        result.report.render_table(&[
            "hp_mean_jct_s",
            "gpu_hours_bought",
            "market_spend_usd",
            "cost_per_completed_usd",
            "stranded_gpu_hours",
        ])
    );

    for cell in &result.report.cells {
        println!(
            "{:<8} market={:<11} cost/completed ${:<8.2} stranded {:>6.1} GPU-h  spend ${:.0}",
            cell.scheduler,
            cell.market_label(),
            cell.median("cost_per_completed_usd"),
            cell.median("stranded_gpu_hours"),
            cell.median("market_spend_usd"),
        );
    }
    println!(
        "\nthe price-aware controller defers buys past the spike and releases idle \
         nodes, so spend and stranded capacity drop at comparable JCT."
    );
}
