//! Crash-injection sweep over the crash-safe `ClusterService`: for every
//! scheduler × dynamics × crash-point × seed cell, kill a live run at the
//! crash point, recover it from the last snapshot plus the write-ahead
//! journal suffix, and assert the recovered run reproduces the
//! uninterrupted golden run's report and final state hashes exactly.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_recovery
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_JSON=1 …           # dump the outcome matrix as JSON lines
//! ```

use std::time::Instant;

use gfs::lab::pool::run_indexed;
use gfs::lab::{
    crash_and_recover, ClusterShape, CrashPlan, CrashPoint, DynamicsAxis, MarketAxis, ParamsAxis,
    PolicyAxis, RecoveryOutcome, Scenario, SchedulerSpec, Threads, WorkloadAxis,
};
use gfs::prelude::*;
use gfs_bench::{env_flag, lab_threads};

fn main() {
    let threads = lab_threads();
    let horizon_h = 24;
    let sim_horizon = (horizon_h + 48) * HOUR;
    let shape = ClusterShape::a100(16, 8);
    let sim = SimConfig {
        max_time_secs: Some(sim_horizon),
        ..SimConfig::default()
    };
    let workload = WorkloadAxis::generated(
        "steady",
        WorkloadConfig {
            hp_tasks: 120,
            spot_tasks: 40,
            spot_scale: 2.0,
            horizon_secs: horizon_h * HOUR,
            ..WorkloadConfig::default()
        },
    );

    let schedulers = [SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()];
    let dynamics = [
        DynamicsAxis::mtbf("mtbf12h", 12.0 * HOUR as f64, HOUR as f64, sim_horizon),
        DynamicsAxis::rolling_drain("wave", SimTime::from_hours(1), HOUR / 2, 1_800, 2 * HOUR),
    ];
    // three recovery regimes: ev kills before the first checkpoint
    // (journal-only recovery); t kills deep in the run (snapshot holds
    // everything, suffix empty); snap! tears a snapshot write between the
    // last good checkpoint and the late admission wave, so recovery
    // replays a genuine journal suffix on top of a snapshot
    let points = [
        CrashPoint::AfterEvents(12),
        CrashPoint::AtTime(SimTime::from_hours(2)),
        CrashPoint::MidSnapshot(40),
    ];
    let seeds = [1u64, 2];
    let cadence = 25;
    let late_at = cadence + 2;

    // the cell matrix, in a fixed enumeration order
    let mut cells: Vec<(Scenario, CrashPlan)> = Vec::new();
    for sched in &schedulers {
        for dyn_axis in &dynamics {
            for point in points {
                for seed in seeds {
                    cells.push((
                        Scenario {
                            cell: cells.len(),
                            scheduler: sched.clone(),
                            shape: shape.clone(),
                            workload: workload.clone(),
                            dynamics: dyn_axis.clone(),
                            market: MarketAxis::none(),
                            policy: PolicyAxis::naive(),
                            params: ParamsAxis::default_params(),
                            seed,
                        },
                        CrashPlan {
                            point,
                            snapshot_every: cadence,
                            admit_late_after: Some(late_at),
                        },
                    ));
                }
            }
        }
    }

    let run_all = |threads: Threads| -> Vec<RecoveryOutcome> {
        run_indexed(cells.len(), threads, |i| {
            let (scenario, plan) = &cells[i];
            crash_and_recover(scenario, &sim, plan)
        })
    };

    let start = Instant::now();
    let outcomes = run_all(threads);
    let wall = start.elapsed();

    let mut failures = 0;
    for ((scenario, plan), out) in cells.iter().zip(&outcomes) {
        let verdict = if out.matches() { "ok" } else { "MISMATCH" };
        if !out.matches() {
            failures += 1;
        }
        println!(
            "{:8} {:8} {:>8} seed{} | crash @step {:>4} t={:>6}s | {} replay {:>2}+{:<2} | golden {:016x} recovered {:016x} {}",
            scenario.scheduler.name(),
            scenario.dynamics.name(),
            plan.point.label(),
            scenario.seed,
            out.crashed_at_step,
            out.crashed_at.as_secs(),
            if out.used_snapshot { "snap+wal" } else { "wal-only" },
            out.skipped,
            out.replayed,
            out.golden_report,
            out.recovered_report,
            verdict,
        );
    }
    assert_eq!(
        failures, 0,
        "{failures} crash cells failed to recover to the golden hash"
    );
    println!(
        "{} crash cells recovered bit-identically in {:.2}s on {} threads",
        cells.len(),
        wall.as_secs_f64(),
        threads.count()
    );

    if env_flag("GFS_LAB_JSON") {
        for ((scenario, plan), out) in cells.iter().zip(&outcomes) {
            println!(
                "{{\"scheduler\":\"{}\",\"dynamics\":\"{}\",\"crash\":\"{}\",\"seed\":{},\"golden\":{},\"recovered\":{},\"matches\":{}}}",
                scenario.scheduler.name(),
                scenario.dynamics.name(),
                plan.point.label(),
                scenario.seed,
                out.golden_report,
                out.recovered_report,
                out.matches(),
            );
        }
    }
    let start = Instant::now();
    let serial = run_all(Threads::Fixed(1));
    let serial_wall = start.elapsed();
    assert_eq!(
        serial, outcomes,
        "parallel and serial recovery sweeps must agree exactly"
    );
    println!(
        "serial: {:.2}s  -> speedup {:.2}x, outputs identical",
        serial_wall.as_secs_f64(),
        serial_wall.as_secs_f64() / wall.as_secs_f64()
    );
}
