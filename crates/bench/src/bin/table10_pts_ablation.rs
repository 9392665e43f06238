//! Table 10: PTS ablation — full GFS vs GFS-s (packing-only scoring),
//! GFS-p (random preemption) and GFS-sp (both degraded).

use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{eval_grid, run_lab_grid, spot_workload, Scale, TABLE_METRICS};

fn main() {
    let scale = Scale::from_env();
    println!("Table 10 reproduction — PTS ablation, medium spot workload");
    let grid = eval_grid(scale)
        .schedulers(
            [
                PtsVariant::Degraded,
                PtsVariant::SimpleScoring,
                PtsVariant::RandomPreemption,
                PtsVariant::Full,
            ]
            .map(|variant| scenario::gfs_pts_spec(variant, 3, 0.60)),
        )
        .workload(spot_workload(scale, "medium-spot", 2.0));
    run_lab_grid(&grid, &TABLE_METRICS);
    println!("\n(paper: restoring each module cuts spot JCT ~11%; both together 23.5%)");
}
