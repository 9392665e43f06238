//! Table 6: sensitivity of the guarantee horizon `H ∈ {1, 2, 4}` hours
//! under the medium spot workload, as a parameter axis of one grid.

use gfs::lab::ParamsAxis;
use gfs::prelude::*;
use gfs::scenario;
use gfs_bench::{eval_grid, run_lab_grid, spot_workload, Scale, TABLE_METRICS};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table 6 reproduction — guarantee hours sweep, medium spot workload, {} nodes",
        scale.nodes()
    );
    let sweep = [1u32, 2, 4].map(|h| {
        let params = GfsParams::builder()
            .guarantee_hours(h)
            .build()
            .expect("valid params");
        ParamsAxis::fixed(format!("H={h}"), params)
    });
    let grid = eval_grid(scale)
        .scheduler(scenario::gfs_spec(3, 0.60))
        .workload(spot_workload(scale, "medium-spot", 2.0))
        .params(sweep);
    run_lab_grid(&grid, &TABLE_METRICS);
    println!("\n(paper: H=1,2 nearly identical; H=4 lengthens spot JQT/JCT; e stays <1.5%)");
}
