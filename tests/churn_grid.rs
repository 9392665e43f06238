//! Determinism and pinning for *faulted, heterogeneous* experiment grids —
//! the acceptance gate of the cluster-dynamics subsystem: a grid mixing
//! two GPU models, two failure rates (plus a fault-free control) and four
//! seeds must aggregate byte-identically for any worker count, prove the
//! fault schedules are seeded (not wall-clock or thread dependent), and
//! report the availability/displacement metrics.

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, NodeGroup, SchedulerSpec, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::sim::fnv1a;
use gfs_testkit::pin;

/// 2 schedulers × 1 heterogeneous shape × 3 fault axes × 4 seeds = 6
/// cells / 24 runs, with both pools exercised by a mixed-model workload.
fn churn_grid() -> Grid {
    let shape = ClusterShape::heterogeneous([
        NodeGroup {
            nodes: 4,
            gpus_per_node: 8,
            model: GpuModel::A100,
        },
        NodeGroup {
            nodes: 2,
            gpus_per_node: 8,
            model: GpuModel::H800,
        },
    ]);
    let horizon = 8 * HOUR;
    Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(shape)
        .workload(WorkloadAxis::generated_mixed(
            "mixed",
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
            DynamicsAxis::mtbf("mtbf24h", 24.0 * HOUR as f64, HOUR as f64, 72 * HOUR),
            DynamicsAxis::mtbf("mtbf6h", 6.0 * HOUR as f64, HOUR as f64, 72 * HOUR),
        ])
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(72 * HOUR),
            ..SimConfig::default()
        })
}

#[test]
fn faulted_heterogeneous_grid_identical_across_thread_counts() {
    let grid = churn_grid();
    let serial = grid.run(Threads::Fixed(1)).report.to_json();
    let parallel = grid.run(Threads::Fixed(8)).report.to_json();
    assert_eq!(
        serial, parallel,
        "thread count leaked into a faulted grid — fault schedules must be \
         pure functions of (shape, seed)"
    );
    let report = gfs::lab::GridReport::from_json(&serial).expect("round-trips");
    assert_eq!(report.cells.len(), 6);
    assert!(report.cells.iter().all(|c| c.seeds == [1, 2, 3, 4]));
}

#[test]
fn churn_metrics_reported_and_scale_with_failure_rate() {
    let report = churn_grid().run(Threads::Auto).report;
    let cell = |faults: &str| {
        report
            .cell(
                "YARN-CS",
                ("4a100+2h800", "mixed", faults, "none", "naive", "default"),
            )
            .expect("cell exists")
    };
    let (clean, mild, churny) = (cell("none"), cell("mtbf24h"), cell("mtbf6h"));
    assert_eq!(clean.median("availability"), 1.0);
    assert_eq!(clean.median("displacement_count"), 0.0);
    // availability degrades monotonically with the failure rate (medians
    // over four seeds; 6 h MTBF on six nodes over 3 days is heavy churn)
    assert!(mild.median("availability") < 1.0);
    assert!(churny.median("availability") < mild.median("availability"));
    assert!(churny.metric("displacement_count").expect("metric").max > 0.0);
    // displaced tasks that completed report a JCT
    assert!(churny.metric("displaced_mean_jct_s").expect("metric").max > 0.0);
}

#[test]
fn golden_churn_grid_pinned() {
    let result = churn_grid().run(Threads::Auto);
    pin("grid.churn", &[fnv1a(result.report.to_json().as_bytes())]);
}
