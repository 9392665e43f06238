//! Scheduler face-off: GFS vs the four baselines of §4.4 on the same
//! medium-spot workload, declared as a `gfs::lab` grid (no hand-rolled
//! cluster/workload assembly) and printed as a Table 5-style comparison.
//!
//! ```text
//! cargo run --release --example scheduler_faceoff
//! ```

use gfs::lab::{ClusterShape, Grid, SchedulerSpec, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;

fn main() {
    let shape = ClusterShape::a100(32, 8);
    println!(
        "medium-spot workload on {} GPUs over 72h, all schedulers in parallel\n",
        shape.capacity_gpus()
    );

    let medium = WorkloadAxis::generated_sized(
        "medium-spot",
        WorkloadConfig {
            horizon_secs: 3 * 24 * HOUR,
            spot_scale: 2.0, // medium spot workload (§4.1)
            ..WorkloadConfig::default()
        },
        0.6,
        0.15,
    );
    let params = GfsParams::builder()
        .eta_bounds(0.1, 1.5)
        .build()
        .expect("valid params");
    let grid = Grid::new()
        .schedulers(SchedulerSpec::baselines())
        .scheduler(scenario::gfs_spec(3, 0.6))
        .shape(shape)
        .workload(medium)
        .params([gfs::lab::ParamsAxis::fixed("eta<=1.5", params)])
        .seeds([9])
        .sim(SimConfig {
            max_time_secs: Some(8 * 24 * HOUR),
            ..SimConfig::default()
        });

    let result = grid.run(Threads::Auto);
    println!(
        "{}",
        result.report.render_table(&[
            "hp_mean_jct_s",
            "hp_mean_jqt_s",
            "spot_mean_jct_s",
            "spot_mean_jqt_s",
            "eviction_rate",
        ])
    );
}
