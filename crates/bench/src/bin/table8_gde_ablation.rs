//! Table 8: GDE ablation — GFS with OrgLinear vs GFS-e, which replaces the
//! demand model with the naive last-week-peak heuristic.

use gfs::scenario;
use gfs_bench::{eval_grid, run_lab_grid, spot_workload, Scale, TABLE_METRICS};

fn main() {
    let scale = Scale::from_env();
    println!("Table 8 reproduction — GDE ablation, medium spot workload");
    let grid = eval_grid(scale)
        .schedulers([
            scenario::gfs_naive_spec(3, 0.60),
            scenario::gfs_spec(3, 0.60),
        ])
        .workload(spot_workload(scale, "medium-spot", 2.0));
    run_lab_grid(&grid, &TABLE_METRICS);
    println!("\n(paper: GFS cuts spot JCT 48%, JQT 95%, e 85% vs the peak heuristic)");
}
