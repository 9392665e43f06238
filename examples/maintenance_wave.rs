//! Rolling maintenance drains and scale-out under pressure, end to end:
//! the two headline scenarios of the cluster-timeline API.
//!
//! Act 1 runs a single simulation with a rolling drain wave (every node
//! drained once, 30 min notice, 2 h of maintenance) and prints the
//! per-act bookkeeping: how many gangs finished inside their notice
//! window, how many migrated gracefully, how many were forcibly
//! displaced at a deadline.
//!
//! Act 2 declares a small `gfs::lab` grid comparing the same wave with
//! and without an autoscaler buying replacement capacity mid-wave
//! (scale-out under pressure), replicated over seeds.
//!
//! ```text
//! cargo run --release --example maintenance_wave
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, SchedulerSpec, Threads, WorkloadAxis};
use gfs::prelude::*;

fn main() {
    let (nodes, horizon_h) = (16, 24);
    let sim_horizon = (horizon_h + 72) * HOUR;

    // ---- Act 1: one run, watched closely -------------------------------
    let wave = DynamicsPlan::rolling_drain(
        nodes,
        SimTime::from_hours(2), // first drain notice
        HOUR / 2,               // one node every 30 min
        1_800,                  // 30 min of notice
        2 * HOUR,               // 2 h on the bench
    );
    println!(
        "rolling wave over {nodes} nodes: {} timeline events (validated: {})",
        wave.len(),
        wave.validate().is_ok(),
    );
    let tasks = WorkloadGenerator::new(WorkloadConfig {
        hp_tasks: 200,
        spot_tasks: 60,
        spot_scale: 2.0,
        horizon_secs: horizon_h * HOUR,
        ..WorkloadConfig::default()
    })
    .generate();
    let submitted = tasks.len();
    let mut scheduler = GfsScheduler::with_defaults();
    let report = run(
        Cluster::homogeneous(nodes, GpuModel::A100, 8),
        &mut scheduler,
        tasks,
        &SimConfig {
            dynamics: wave,
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        },
    );
    let finished = report.tasks.iter().filter(|t| t.completed()).count();
    println!(
        "act 1 (GFS): {finished}/{submitted} tasks done | drains {} | graceful migrations {} | \
         forced displacements {} | availability {:.4}",
        report.node_drains,
        report.migration_count(),
        report.displacement_count(),
        report.availability(),
    );

    // ---- Act 2: the same wave, with and without an autoscaler ----------
    let wave_axis = |name: &'static str, grow: bool| {
        DynamicsAxis::new(name, move |shape, _seed| {
            let wave = DynamicsPlan::rolling_drain(
                shape.node_count(),
                SimTime::from_hours(2),
                HOUR / 2,
                1_800,
                2 * HOUR,
            );
            if !grow {
                return wave;
            }
            // the autoscaler leases two replacement nodes one hour into
            // the wave and two more two hours later
            let grow = DynamicsPlan::scale_out(
                NodeTemplate {
                    model: GpuModel::A100,
                    gpus: 8,
                },
                SimTime::from_hours(3),
                2 * HOUR,
                2,
                2,
            );
            wave.merge(grow).expect("disjoint histories compose")
        })
    };
    let grid = Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(nodes, 8))
        .workload(WorkloadAxis::generated(
            "steady",
            WorkloadConfig {
                hp_tasks: 200,
                spot_tasks: 60,
                spot_scale: 2.0,
                horizon_secs: horizon_h * HOUR,
                ..WorkloadConfig::default()
            },
        ))
        .dynamics([
            DynamicsAxis::none(),
            wave_axis("wave", false),
            wave_axis("wave+grow", true),
        ])
        .seeds([1, 2, 3])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });
    let result = grid.run(Threads::Auto);
    println!(
        "{}",
        result.report.render_table(&[
            "availability",
            "node_drains",
            "migration_count",
            "displacement_count",
            "added_gpus",
            "hp_p99_jct_s",
            "spot_mean_jqt_s",
        ])
    );
}
