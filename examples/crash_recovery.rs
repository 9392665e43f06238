//! Kill the cluster controller mid-maintenance-wave, then bring a
//! replacement up from its last snapshot plus the write-ahead journal —
//! and prove the recovered run is bit-identical to one that never
//! crashed.
//!
//! The script mirrors a production failover:
//!
//! 1. **Golden run** — a GFS-scheduled service admits a workload and a
//!    rolling drain wave, journals every admission, checkpoints every
//!    `CADENCE` steps, takes a late admission wave mid-run, and runs to
//!    completion. Its report hash and final state hash are the truth.
//! 2. **Crash** — the identical service is killed a few steps after the
//!    late wave lands, so the last checkpoint predates it: the journal
//!    suffix carries real, unsnapshotted admissions.
//! 3. **Recovery** — a fresh controller restores the checkpoint,
//!    replays the journal suffix (skipping records the snapshot already
//!    covers), and drives the run to the end.
//!
//! The example exits non-zero unless both fingerprints match exactly.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use gfs::prelude::*;
use gfs::sim::{report_hash, ClusterService, ServiceSnapshot};

/// Checkpoint cadence (steps). The crash lands after `LATE_AT` but
/// before the next cadence boundary, so recovery must replay a suffix.
const CADENCE: u64 = 10;
/// Step count at which the second admission wave arrives.
const LATE_AT: u64 = 12;
/// Step count at which the victim controller is killed.
const CRASH_AT: u64 = 17;

fn fresh_scheduler() -> Box<dyn Scheduler> {
    Box::new(GfsScheduler::with_defaults())
}

fn build_service() -> (ClusterService, Vec<TaskSpec>) {
    let nodes = 8u32;
    let wave = DynamicsPlan::rolling_drain(
        nodes,
        SimTime::from_hours(2), // first drain notice
        HOUR / 2,               // one node every 30 min
        1_800,                  // 30 min of notice
        2 * HOUR,               // 2 h on the bench
    );
    let mut tasks = WorkloadGenerator::new(WorkloadConfig {
        hp_tasks: 36,
        spot_tasks: 12,
        spot_scale: 2.0,
        horizon_secs: 10 * HOUR,
        ..WorkloadConfig::default()
    })
    .generate();
    // the trailing quarter of the trace arrives later, over the wire
    let late = tasks.split_off(tasks.len() - tasks.len() / 4);

    let mut svc = ClusterService::new(
        Cluster::homogeneous(nodes, GpuModel::A100, 8),
        SimConfig {
            max_time_secs: Some(72 * HOUR),
            ..SimConfig::default()
        },
    );
    svc.enable_journal();
    svc.admit_tasks(tasks);
    svc.admit_plan(&wave);
    svc.start();
    (svc, late)
}

/// Drives a service forward, admitting the late wave at `LATE_AT` and
/// checkpointing every `CADENCE` steps. Stops early at `crash_at`;
/// returns the last checkpoint (snapshot JSON) taken before the stop.
fn drive(
    svc: &mut ClusterService,
    sched: &mut dyn Scheduler,
    late: &mut Option<Vec<TaskSpec>>,
    crash_at: Option<u64>,
) -> Option<String> {
    let mut checkpoint = None;
    loop {
        if let Some(wave) = late.take_if(|_| svc.steps() >= LATE_AT) {
            svc.admit_tasks(wave);
        }
        if crash_at == Some(svc.steps()) {
            return checkpoint; // the controller dies here
        }
        if !svc.step(sched) {
            match late.take() {
                // the run drained before the wave arrived: admit it now
                Some(wave) => svc.admit_tasks(wave),
                None => return checkpoint,
            }
        }
        if svc.steps().is_multiple_of(CADENCE) {
            checkpoint = Some(svc.snapshot_json(sched));
        }
    }
}

fn main() {
    // ---- Act 1: the golden run, never interrupted ----------------------
    let (mut golden, late) = build_service();
    let mut sched = fresh_scheduler();
    drive(&mut golden, sched.as_mut(), &mut Some(late), None);
    let golden_state = golden.state_hash(sched.as_ref());
    let golden_report = report_hash(&golden.finish());
    println!("golden   : report {golden_report:016x}  state {golden_state:016x}");

    // ---- Act 2: the same run, controller killed mid-wave ---------------
    let (mut victim, late) = build_service();
    let mut sched = fresh_scheduler();
    let checkpoint = drive(&mut victim, sched.as_mut(), &mut Some(late), Some(CRASH_AT));
    let journal = victim
        .journal()
        .expect("journal enabled")
        .text()
        .to_string();
    drop(victim); // the process is gone; only the checkpoint + log survive
    println!(
        "crash    : killed at step {CRASH_AT} (checkpoint at step {}, journal {} bytes)",
        CADENCE * (CRASH_AT / CADENCE),
        journal.len(),
    );

    // ---- Act 3: a replacement controller takes over --------------------
    let mut sched = fresh_scheduler();
    let snap = ServiceSnapshot::from_json(&checkpoint.expect("one cadence passed"))
        .expect("checkpoint parses");
    let mut recovered = ClusterService::restore(snap, sched.as_mut()).expect("checkpoint restores");
    recovered.enable_journal();
    let replay = recovered.replay_journal(&journal, sched.as_mut());
    assert!(
        replay.rejected.is_none(),
        "journal replay rejected a record: {:?}",
        replay.rejected
    );
    println!(
        "recovery : {} records already in the checkpoint, {} replayed from the journal suffix",
        replay.skipped, replay.applied,
    );
    // the late wave was journaled before the crash, so replay re-admits
    // it; the recovered controller only has to drive the run home
    drive(&mut recovered, sched.as_mut(), &mut None, None);
    let recovered_state = recovered.state_hash(sched.as_ref());
    let recovered_report = report_hash(&recovered.finish());
    println!("recovered: report {recovered_report:016x}  state {recovered_state:016x}");

    assert_eq!(golden_report, recovered_report, "report hashes must match");
    assert_eq!(golden_state, recovered_state, "state hashes must match");
    println!("verdict  : recovered run is bit-identical to the golden run");
}
