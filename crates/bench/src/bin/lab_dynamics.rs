//! Cluster-timeline sweep as a `gfs::lab` grid: the dynamics axis runs
//! from a static control through independent churn, rack-correlated
//! failures, a rolling maintenance wave, and scale-out-under-pressure,
//! reporting the drained/migrated/scaled-capacity metrics next to the
//! availability and JCT ones — the rolling-drain and autoscale scenarios
//! of the ROADMAP end to end.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_dynamics
//! GFS_LAB_SMOKE=1  …         # tiny grid for CI (< 10 s)
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_COMPARE=1 …        # also run serially; verify identical output
//! GFS_LAB_JSON=1 …           # dump the aggregated GridReport JSON
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, SchedulerSpec, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{env_flag, run_lab_grid};

fn main() {
    let smoke = env_flag("GFS_LAB_SMOKE");
    let (nodes, horizon_h, seeds): (u32, u64, Vec<u64>) = if smoke {
        (6, 8, vec![1, 2])
    } else {
        (32, 48, vec![1, 2, 3, 4])
    };
    let sim_horizon = (horizon_h + 96) * HOUR;
    let shape = ClusterShape::a100(nodes, 8);

    // the dynamics axis: static control → independent churn → correlated
    // racks → rolling maintenance wave → the same wave with an autoscaler
    // buying capacity mid-drain (scale-out under pressure)
    let rack = 4;
    let wave_start = SimTime::from_hours(2);
    let stagger = HOUR / 2;
    let notice = 1_800;
    let maintenance = 2 * HOUR;
    let dynamics = [
        DynamicsAxis::none(),
        DynamicsAxis::mtbf("mtbf24h", 24.0 * HOUR as f64, HOUR as f64, sim_horizon),
        DynamicsAxis::correlated("racks", rack, 16.0 * HOUR as f64, HOUR as f64, sim_horizon),
        DynamicsAxis::rolling_drain("wave", wave_start, stagger, notice, maintenance),
        DynamicsAxis::new("wave+grow", move |shape, _seed| {
            let wave = DynamicsPlan::rolling_drain(
                shape.node_count(),
                wave_start,
                stagger,
                notice,
                maintenance,
            );
            let grow = DynamicsPlan::scale_out(
                NodeTemplate {
                    model: GpuModel::A100,
                    gpus: 8,
                },
                wave_start + HOUR,
                2 * HOUR,
                2,
                2,
            );
            wave.merge(grow).expect("disjoint histories compose")
        }),
    ];

    let base = WorkloadConfig {
        horizon_secs: horizon_h * HOUR,
        spot_scale: 2.0,
        ..WorkloadConfig::default()
    };
    let workload = if smoke {
        WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: 40,
                spot_tasks: 14,
                ..base
            },
        )
    } else {
        WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: 400,
                spot_tasks: 120,
                ..base
            },
        )
    };

    let mut grid = Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(shape)
        .workload(workload)
        .dynamics(dynamics)
        .seeds(seeds)
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });
    if !smoke {
        grid = grid.scheduler(scenario::gfs_no_gde_spec());
    }

    run_lab_grid(
        &grid,
        &[
            "availability",
            "node_drains",
            "migration_count",
            "displacement_count",
            "added_gpus",
            "hp_p99_jct_s",
            "spot_mean_jqt_s",
        ],
    );
}
