//! Table 9: SQA ablation — GFS vs GFS-d, which freezes the safety
//! coefficient at η = 1 (no feedback adaptation), as a parameter axis.

use gfs::lab::ParamsAxis;
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{eval_grid, run_lab_grid, spot_workload, Scale, TABLE_METRICS};
use gfs_types::EtaUpdateRule;

fn main() {
    let scale = Scale::from_env();
    println!("Table 9 reproduction — SQA ablation, medium spot workload");
    let frozen = GfsParams::builder()
        .eta_rule(EtaUpdateRule::Frozen)
        .build()
        .expect("valid params");
    let grid = eval_grid(scale)
        .scheduler(scenario::gfs_spec(3, 0.60))
        .workload(spot_workload(scale, "medium-spot", 2.0))
        .params([
            ParamsAxis::fixed("GFS-d", frozen),
            ParamsAxis::default_params(),
        ]);
    run_lab_grid(&grid, &TABLE_METRICS);
    println!("\n(paper: adaptive η cuts spot JCT 13%, JQT 74%, e 30% vs frozen η = 1)");
}
