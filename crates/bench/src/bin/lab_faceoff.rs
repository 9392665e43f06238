//! Table 5 scheduler face-off as a `gfs::lab` grid declaration: the four
//! baselines plus GFS on the medium-spot workload, replicated over seeds
//! and aggregated with across-seed statistics.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_faceoff
//! GFS_LAB_SMOKE=1  …         # tiny grid for CI (< 10 s)
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_COMPARE=1 …        # also run serially; verify identical output
//! GFS_LAB_JSON=1 …           # dump the aggregated GridReport JSON
//! ```

use gfs::lab::{ClusterShape, Grid, SchedulerSpec, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{env_flag, run_lab_grid};

fn main() {
    let smoke = env_flag("GFS_LAB_SMOKE");
    let (nodes, horizon_h) = if smoke { (8, 12) } else { (32, 72) };

    // The whole experiment, declaratively: schedulers × workload × seeds.
    let base = WorkloadConfig {
        horizon_secs: horizon_h * HOUR,
        spot_scale: 2.0, // medium spot workload (§4.1)
        ..WorkloadConfig::default()
    };
    let medium = if smoke {
        // fixed tiny counts: CI wants seconds, not load fidelity
        WorkloadAxis::generated(
            "medium-spot",
            WorkloadConfig {
                hp_tasks: 48,
                spot_tasks: 16,
                ..base
            },
        )
    } else {
        // 60 % HP / 15 % spot at scale 1 (×2 for the medium spot workload)
        WorkloadAxis::generated_sized("medium-spot", base, 0.60, 0.15)
    };
    let mut grid = Grid::new()
        .schedulers(SchedulerSpec::baselines())
        .shape(ClusterShape::a100(nodes, 8))
        .workload(medium)
        .seeds([9, 10, 11])
        .sim(SimConfig {
            max_time_secs: Some((horizon_h + 96) * HOUR),
            ..SimConfig::default()
        });
    if !smoke {
        grid = grid.scheduler(scenario::gfs_spec(3, 0.6));
    }

    run_lab_grid(
        &grid,
        &[
            "hp_p99_jct_s",
            "hp_mean_jct_s",
            "hp_mean_jqt_s",
            "spot_mean_jct_s",
            "spot_mean_jqt_s",
            "eviction_rate",
        ],
    );
}
