//! Determinism and pinning for the *cluster-timeline* experiment grids —
//! the acceptance gate of the DynamicsPlan redesign: a grid mixing a
//! rolling maintenance drain, correlated rack failures and an autoscale
//! schedule (plus a static control) over four seeds must aggregate
//! byte-identically for any worker count, prove the timelines are seeded
//! or closed-form (never wall-clock or thread dependent), and report the
//! drained/migrated/scaled-capacity metrics next to the fault ones.

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, SchedulerSpec, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::sim::fnv1a;
use gfs_testkit::pin;

/// 2 schedulers × 1 shape × 4 dynamics axes × 4 seeds = 8 cells / 32
/// runs: none / correlated racks / rolling drain / drain+autoscale merge.
fn dynamics_grid() -> Grid {
    let horizon = 8 * HOUR;
    let sim_horizon = 72 * HOUR;
    Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(6, 8))
        .workload(WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: 30,
                spot_tasks: 12,
                spot_scale: 2.0,
                horizon_secs: horizon,
                ..WorkloadConfig::default()
            },
        ))
        .dynamics([
            DynamicsAxis::none(),
            DynamicsAxis::correlated("racks3", 3, 10.0 * HOUR as f64, HOUR as f64, sim_horizon),
            DynamicsAxis::rolling_drain("wave", SimTime::from_hours(2), HOUR, 1_800, 2 * HOUR),
            // composition: a rolling drain with scale-out riding along,
            // built from the plan-level merge API
            DynamicsAxis::new("wave+grow", |shape, _seed| {
                let wave = DynamicsPlan::rolling_drain(
                    shape.node_count(),
                    SimTime::from_hours(2),
                    HOUR,
                    1_800,
                    2 * HOUR,
                );
                let grow = DynamicsPlan::scale_out(
                    NodeTemplate {
                        model: GpuModel::A100,
                        gpus: 8,
                    },
                    SimTime::from_hours(3),
                    2 * HOUR,
                    2,
                    1,
                );
                wave.merge(grow).expect("disjoint histories compose")
            }),
        ])
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        })
}

#[test]
fn dynamics_grid_identical_across_thread_counts() {
    let grid = dynamics_grid();
    let serial = grid.run(Threads::Fixed(1)).report.to_json();
    let parallel = grid.run(Threads::Fixed(8)).report.to_json();
    assert_eq!(
        serial, parallel,
        "thread count leaked into a dynamic grid — cluster timelines must be \
         pure functions of (shape, seed)"
    );
    let report = gfs::lab::GridReport::from_json(&serial).expect("round-trips");
    assert_eq!(report.cells.len(), 8);
    assert!(report.cells.iter().all(|c| c.seeds == [1, 2, 3, 4]));
}

#[test]
fn dynamics_metrics_scale_with_their_axes() {
    let report = dynamics_grid().run(Threads::Auto).report;
    let cell = |d: &str| {
        report
            .cell("YARN-CS", ("6n", "steady", d, "none", "naive", "default"))
            .expect("cell exists")
    };
    let (clean, racks, wave, grow) = (
        cell("none"),
        cell("racks3"),
        cell("wave"),
        cell("wave+grow"),
    );
    // the static control reports no dynamics at all — not even the rows
    assert_eq!(clean.median("availability"), 1.0);
    assert!(clean.metric("node_drains").is_none());
    assert!(clean.metric("added_gpus").is_none());
    // correlated racks: capacity loss without any drain bookkeeping
    assert!(racks.median("availability") < 1.0);
    assert!(racks.metric("node_drains").is_none());
    // the rolling wave drains every node once; long tasks migrate instead
    // of dying (forced displacement stays the rare path)
    assert_eq!(wave.median("node_drains"), 6.0);
    assert!(wave.metric("migration_count").expect("metric").max > 0.0);
    // scale-out shows up as added capacity and softens the drain pain:
    // never-lower availability than the same wave without growth
    assert_eq!(grow.median("added_gpus"), 16.0);
    assert!(grow.median("availability") >= wave.median("availability") - 1e-9);
}

#[test]
fn golden_dynamics_grid_pinned() {
    let result = dynamics_grid().run(Threads::Auto);
    pin(
        "grid.dynamics",
        &[fnv1a(result.report.to_json().as_bytes())],
    );
}
