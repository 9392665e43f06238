//! Table 5: scheduling-metrics comparison of GFS against the four baseline
//! schedulers under the low / medium / high spot workloads (§4.4), declared
//! as one `gfs::lab` grid (workloads × schedulers).
//!
//! ```text
//! GFS_BENCH_SCALE=full cargo run --release -p gfs-bench --bin table5_baselines
//! ```

use gfs::lab::SchedulerSpec;
use gfs::scenario;
use gfs_bench::{eval_grid, run_lab_grid, spot_workload, Scale, TABLE_METRICS};

fn main() {
    let scale = Scale::from_env();
    println!(
        "Table 5 reproduction — {} nodes, {}h horizon (set GFS_BENCH_SCALE=full for paper scale)",
        scale.nodes(),
        scale.horizon_hours()
    );
    let grid = eval_grid(scale)
        .schedulers(SchedulerSpec::baselines())
        .scheduler(scenario::gfs_spec(3, 0.60))
        .workloads(
            [("(a) low", 1.0), ("(b) medium", 2.0), ("(c) high", 4.0)].map(|(name, spot_scale)| {
                spot_workload(scale, &format!("{name}-spot"), spot_scale)
            }),
        );
    run_lab_grid(&grid, &TABLE_METRICS);
    println!("\n(Chronus displaces best-effort jobs only at lease expiry; its eviction_rate");
    println!(" column is reported for completeness where the paper prints '-'.)");
}
