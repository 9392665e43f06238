//! Determinism and pinning tests for the `gfs::lab` experiment engine:
//! a grid run must produce byte-identical aggregated JSON for any worker
//! count (results are collected by run index, never completion order),
//! and one grid summary is golden-pinned so aggregation semantics cannot
//! drift silently.

use gfs::lab::{ClusterShape, Grid, ParamsAxis, SchedulerSpec, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs::sim::{fnv1a, report_hash};

/// A 2 (schedulers) × 3 (workloads) grid, 4 seeds per cell: 24 runs.
fn grid_2x3x4() -> Grid {
    let workloads = [("low", 1.0), ("medium", 2.0), ("high", 4.0)].map(|(name, spot_scale)| {
        WorkloadAxis::generated(
            format!("{name}-spot"),
            WorkloadConfig {
                hp_tasks: 30,
                spot_tasks: 12,
                spot_scale,
                horizon_secs: 8 * HOUR,
                ..WorkloadConfig::default()
            },
        )
    });
    Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(6, 8))
        .workloads(workloads)
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(72 * HOUR),
            ..SimConfig::default()
        })
}

#[test]
fn grid_json_identical_across_thread_counts() {
    let grid = grid_2x3x4();
    let serial = grid.run(Threads::Fixed(1)).report.to_json();
    let parallel = grid.run(Threads::Fixed(8)).report.to_json();
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(
        serial, parallel,
        "thread count leaked into aggregated output"
    );
    // and the enumeration is complete: 6 cells of 4 seeds each
    let report = gfs::lab::GridReport::from_json(&serial).expect("round-trips");
    assert_eq!(report.cells.len(), 6);
    assert!(report.cells.iter().all(|c| c.seeds == [1, 2, 3, 4]));
    assert!(report.cells.iter().all(|c| c.runs.len() == 4));
}

#[test]
fn golden_grid_summary_pinned() {
    let result = grid_2x3x4().run(Threads::Auto);
    let json = result.report.to_json();
    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN_GRID = {}", fnv1a(json.as_bytes()));
    }
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN_GRID,
        "aggregated grid output drifted — scheduling, summary metrics or \
         aggregation semantics changed (update the pin only if intentional)"
    );
}

/// Captured at PR 3 after the grid schema grew the fault axis label and
/// the availability/displacement metrics (the underlying *scheduling*
/// outcomes are separately pinned unchanged by `tests/golden_report.rs`);
/// any drift from here means a behaviour change. To regenerate
/// intentionally: `GFS_PRINT_GOLDEN=1 cargo test golden_grid -- --nocapture`.
const GOLDEN_GRID: u64 = 471_617_017_682_756_731;

#[test]
fn replicated_cells_have_spread_statistics() {
    let result = grid_2x3x4().run(Threads::Auto);
    let cell = &result.report.cells[0];
    let stats = cell.metric("hp_mean_jct_s").expect("known metric");
    assert!(stats.min <= stats.median && stats.median <= stats.max);
    assert!(
        stats.iqr > 0.0,
        "four distinct seeds should produce distinct JCTs (iqr = {})",
        stats.iqr
    );
    assert!(cell.median("hp_completion") > 0.0);
}

/// A grid cell wires its shape, parameter point and seed into the
/// scheduler exactly as a hand-assembled run does: `gfs_spec` under a
/// non-default `ParamsAxis` and seed reproduces `gfs_full` + `sim::run`
/// on the same shape and trace, report hash for report hash.
#[test]
fn gfs_spec_cell_matches_a_direct_gfs_full_run() {
    let (weeks, hp_load, seed) = (2, 0.6, 5);
    let shape = ClusterShape::a100(16, 8);
    let workload = WorkloadAxis::generated_sized(
        "medium-spot",
        WorkloadConfig {
            horizon_secs: 24 * HOUR,
            spot_scale: 2.0,
            ..WorkloadConfig::default()
        },
        0.6,
        0.15,
    );
    let params = GfsParams::builder()
        .guarantee_hours(4)
        .build()
        .expect("valid params");
    let sim = SimConfig {
        max_time_secs: Some(72 * HOUR),
        ..SimConfig::default()
    };
    let result = Grid::new()
        .scheduler(scenario::gfs_spec(weeks, hp_load))
        .shape(shape.clone())
        .workload(workload.clone())
        .params([ParamsAxis::fixed("H=4", params.clone())])
        .seeds([seed])
        .sim(sim.clone())
        .keep_reports(true)
        .run(Threads::Fixed(1));

    let direct = |params: GfsParams| {
        let mut gfs = scenario::gfs_full(params, weeks, seed, hp_load * shape.capacity_gpus());
        report_hash(&run(
            shape.build(),
            &mut gfs,
            workload.build(&shape, seed),
            &sim,
        ))
    };
    let cell = report_hash(&result.sim_reports[0][0]);
    assert_eq!(cell, direct(params), "grid cell and direct run diverge");
    assert_ne!(
        cell,
        direct(GfsParams::default()),
        "the parameter point must reach the scheduler"
    );
}
