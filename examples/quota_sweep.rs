//! Spot-price/quota sensitivity sweep: how the SQA's guarantee knobs
//! trade spot admission (allocation, queueing) against eviction risk.
//!
//! One `gfs::lab` grid sweeps a [`ParamsAxis`] list over the three quota
//! levers of Table 4 — the guarantee horizon `H` (`guarantee_hours`), the
//! guarantee rate `p` and the `η` clamp range (`eta_bounds`) — for the
//! full GFS framework (trained GDE per run), replicated over seeds and
//! emitted as an aggregated lab table plus JSON.
//!
//! ```text
//! cargo run --release --example quota_sweep
//! GFS_LAB_JSON=1  …      # dump the aggregated GridReport JSON to stdout
//! ```

use gfs::lab::{ClusterShape, Grid, ParamsAxis, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;

fn main() {
    let horizon_h = 48;

    // the three quota levers, each swept around the Table 4 default
    let sweep = vec![
        ParamsAxis::default_params(),
        // longer guarantee horizon: quota protects spot tasks for 4 h
        ParamsAxis::fixed(
            "H=4",
            GfsParams::builder()
                .guarantee_hours(4)
                .build()
                .expect("valid"),
        ),
        // a looser guarantee (p = 0.7): more inventory sold to spot
        ParamsAxis::fixed(
            "p=0.7",
            GfsParams::builder()
                .guarantee_rate(0.7)
                .build()
                .expect("valid"),
        ),
        // a stricter guarantee (p = 0.99): spot throttled hard
        ParamsAxis::fixed(
            "p=0.99",
            GfsParams::builder()
                .guarantee_rate(0.99)
                .build()
                .expect("valid"),
        ),
        // conservative η clamp: the feedback loop can never over-admit
        ParamsAxis::fixed(
            "eta<=1",
            GfsParams::builder()
                .eta_bounds(0.1, 1.0)
                .build()
                .expect("valid"),
        ),
    ];

    let grid = Grid::new()
        .scheduler(scenario::gfs_spec(2, 0.6))
        .shape(ClusterShape::a100(16, 8))
        .workload(WorkloadAxis::generated_sized(
            "medium-spot",
            WorkloadConfig {
                horizon_secs: horizon_h * HOUR,
                spot_scale: 2.0,
                ..WorkloadConfig::default()
            },
            0.60,
            0.15,
        ))
        .params(sweep)
        .seeds([1, 2, 3])
        .sim(SimConfig {
            max_time_secs: Some((horizon_h + 96) * HOUR),
            ..SimConfig::default()
        });

    let result = grid.run(Threads::Auto);
    println!(
        "{}",
        result.report.render_table(&[
            "spot_completion",
            "spot_mean_jqt_s",
            "spot_p99_jqt_s",
            "eviction_rate",
            "mean_alloc_rate",
            "hp_p99_jct_s",
        ])
    );
    println!(
        "{} cells × {} seeds — quota levers: H, p, eta_bounds (Table 4)",
        result.report.cells.len(),
        result.report.cells.first().map_or(0, |c| c.seeds.len()),
    );
    if std::env::var("GFS_LAB_JSON").is_ok_and(|v| v != "0" && !v.is_empty()) {
        println!("{}", result.report.to_json());
    }
}
