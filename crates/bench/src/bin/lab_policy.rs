//! Placement-policy sweep as a `gfs::lab` grid: the policy axis runs from
//! naive placement through domain spreading, reliability scoring and the
//! full churn-aware policy, under a correlated flaky-rack timeline — the
//! churn-aware-placement scenario of the ROADMAP end to end.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_policy
//! GFS_LAB_SMOKE=1  …         # tiny grid for CI (< 10 s)
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_COMPARE=1 …        # also run serially; verify identical output
//! GFS_LAB_JSON=1 …           # dump the aggregated GridReport JSON
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, PolicyAxis, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{env_flag, run_lab_grid};

fn main() {
    let smoke = env_flag("GFS_LAB_SMOKE");
    let rack = 4;
    let (nodes, hp, spot, seeds): (u32, usize, usize, Vec<u64>) = if smoke {
        (8, 20, 6, vec![1, 2])
    } else {
        (32, 120, 40, vec![1, 2, 3, 4])
    };
    let horizon_h = if smoke { 8 } else { 24 };
    let sim_horizon = (horizon_h + 48) * HOUR;

    // half the racks churn as correlated blast radii, half are stable —
    // the heterogeneous-reliability fleet the policy is designed for
    let flaky_racks = (nodes / rack / 2) as usize;
    let dynamics = DynamicsAxis::new("flakyracks", move |shape, seed| {
        let racks = FailureDomain::racks(shape.node_count(), rack);
        DynamicsPlan::correlated(
            &racks[..flaky_racks.min(racks.len())],
            3.0 * HOUR as f64,
            HOUR as f64 / 2.0,
            sim_horizon,
            seed,
        )
    });

    let grid = Grid::new()
        .schedulers([scenario::pts_spec(), scenario::gfs_no_gde_spec()])
        .shape(ClusterShape::a100(nodes, 8).racked(rack))
        .workload(WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: hp,
                spot_tasks: spot,
                spot_scale: 2.0,
                horizon_secs: horizon_h * HOUR,
                heavy_tail_frac: 0.0,
                ..WorkloadConfig::default()
            },
        ))
        .dynamic(dynamics)
        .policies([
            PolicyAxis::naive(),
            PolicyAxis::domain_spread(),
            PolicyAxis::reliability(),
            PolicyAxis::churn_aware(),
        ])
        .seeds(seeds)
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });

    run_lab_grid(
        &grid,
        &[
            "displacement_count",
            "displaced_mean_jct_s",
            "hp_p99_jct_s",
            "spot_mean_jqt_s",
            "availability",
        ],
    );
}
