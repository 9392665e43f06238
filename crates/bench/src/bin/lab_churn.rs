//! Cluster-churn sweep as a `gfs::lab` grid: failure rates × schedulers ×
//! (homogeneous and heterogeneous) cluster shapes, reporting the
//! availability/displacement metrics next to the classic JCT/eviction
//! ones — the scheduling claims of Table 5 under machine churn.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_churn
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_JSON=1 …           # dump the aggregated GridReport JSON
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, NodeGroup, SchedulerSpec, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::run_lab_grid;

fn main() {
    let (a100_nodes, h800_nodes, horizon_h) = (24, 8, 48);
    let sim_horizon = (horizon_h + 96) * HOUR;

    let shapes = [
        ClusterShape::a100(a100_nodes + h800_nodes, 8),
        ClusterShape::heterogeneous([
            NodeGroup {
                nodes: a100_nodes,
                gpus_per_node: 8,
                model: GpuModel::A100,
            },
            NodeGroup {
                nodes: h800_nodes,
                gpus_per_node: 8,
                model: GpuModel::H800,
            },
        ]),
    ];
    // failure-rate axis: fleet-quality tiers from "hyperscaler" to "spot
    // market hardware", hour-scale repair
    let dynamics = [
        DynamicsAxis::none(),
        DynamicsAxis::mtbf("mtbf48h", 48.0 * HOUR as f64, HOUR as f64, sim_horizon),
        DynamicsAxis::mtbf("mtbf12h", 12.0 * HOUR as f64, HOUR as f64, sim_horizon),
    ];

    let base = WorkloadConfig {
        horizon_secs: horizon_h * HOUR,
        spot_scale: 2.0,
        ..WorkloadConfig::default()
    };
    let workload = WorkloadAxis::generated_mixed(
        "mixed",
        WorkloadConfig {
            hp_tasks: 400,
            spot_tasks: 120,
            ..base
        },
    );

    let grid = Grid::new()
        .schedulers([
            SchedulerSpec::yarn_cs(),
            SchedulerSpec::fgd(),
            scenario::gfs_no_gde_spec(),
        ])
        .shapes(shapes)
        .workload(workload)
        .dynamics(dynamics)
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });

    run_lab_grid(
        &grid,
        &[
            "availability",
            "displacement_count",
            "displaced_mean_jct_s",
            "hp_p99_jct_s",
            "spot_mean_jqt_s",
            "eviction_rate",
        ],
    );
}
