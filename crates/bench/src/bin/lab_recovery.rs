//! Crash-injection sweep over the crash-safe `ClusterService`: for every
//! scheduler × dynamics × crash-point × seed cell, kill a live run at the
//! crash point, recover it from the last snapshot plus the write-ahead
//! journal suffix, and assert the recovered run reproduces the
//! uninterrupted golden run's report and final state hashes exactly.
//! Also tears a journal tail and flips a byte to confirm damaged logs
//! are detected rather than silently replayed.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_recovery
//! GFS_LAB_SMOKE=1  …         # tiny grid for CI (< 10 s)
//! GFS_LAB_THREADS=8 …        # fixed worker count (default: one per core)
//! GFS_LAB_COMPARE=1 …        # also run serially; verify identical output
//! GFS_LAB_JSON=1 …           # dump the outcome matrix as JSON lines
//! ```

use std::time::Instant;

use gfs::lab::pool::run_indexed;
use gfs::lab::{
    crash_and_recover, ClusterShape, CrashPlan, CrashPoint, DynamicsAxis, MarketAxis, ParamsAxis,
    PolicyAxis, RecoveryOutcome, Scenario, SchedulerSpec, Threads, WorkloadAxis,
};
use gfs::prelude::*;
use gfs::sim::{parse_journal, ClusterService, JournalError};
use gfs_bench::{env_flag, lab_threads};

fn journal_damage_is_detected() {
    // a small live run with the journal on, for realistic record text
    let mut svc = ClusterService::new(
        ClusterShape::a100(2, 8).build(),
        SimConfig {
            max_time_secs: Some(24 * HOUR),
            ..SimConfig::default()
        },
    );
    svc.enable_journal();
    svc.admit_tasks(
        WorkloadAxis::generated(
            "tiny",
            WorkloadConfig {
                hp_tasks: 4,
                spot_tasks: 2,
                horizon_secs: 2 * HOUR,
                ..WorkloadConfig::default()
            },
        )
        .build(&ClusterShape::a100(2, 8), 7),
    );
    svc.start();
    let text = svc.journal().expect("journal enabled").text().to_string();
    let (ok, _) = parse_journal(&text);
    assert!(ok.len() >= 2, "tasks + start journaled");

    // torn tail: the valid prefix parses, the damage is reported
    let torn = &text[..text.len() - 7];
    let (prefix, err) = parse_journal(torn);
    assert!(
        matches!(err, Some(JournalError::Truncated { .. })),
        "torn tail must be flagged: {err:?}"
    );
    assert_eq!(prefix.len(), ok.len() - 1, "only the last record is lost");

    // flipped byte: the record parses but fails its checksum
    let flipped = text.replacen("\"seq\":1", "\"seq\":9", 1);
    let (_, err) = parse_journal(&flipped);
    assert!(
        matches!(
            err,
            Some(JournalError::Corrupt { .. }) | Some(JournalError::DuplicateSeq { .. })
        ),
        "a flipped byte must be flagged: {err:?}"
    );
    println!("journal damage detection: torn tail + flipped byte flagged OK");
}

fn main() {
    let smoke = env_flag("GFS_LAB_SMOKE");
    let threads = lab_threads();
    let (nodes, hp, spot, horizon_h) = if smoke {
        (4, 16, 6, 4)
    } else {
        (16, 120, 40, 24)
    };
    let sim_horizon = (horizon_h + 48) * HOUR;
    let shape = ClusterShape::a100(nodes, 8);
    let sim = SimConfig {
        max_time_secs: Some(sim_horizon),
        ..SimConfig::default()
    };
    let workload = WorkloadAxis::generated(
        "steady",
        WorkloadConfig {
            hp_tasks: hp,
            spot_tasks: spot,
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
        CrashPoint::AfterEvents(if smoke { 3 } else { 12 }),
        CrashPoint::AtTime(SimTime::from_hours(2)),
        CrashPoint::MidSnapshot(if smoke { 9 } else { 40 }),
    ];
    let seeds = [1u64, 2];
    let cadence = if smoke { 6 } else { 25 };
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

    journal_damage_is_detected();

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
    if env_flag("GFS_LAB_COMPARE") {
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
}
