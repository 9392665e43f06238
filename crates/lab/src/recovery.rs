//! Crash-injection harness for the crash-safe
//! [`ClusterService`].
//!
//! One experiment runs the same fully-specified [`Scenario`] twice:
//!
//! 1. **Golden** — uninterrupted, journal on, admissions at fixed batch
//!    boundaries; yields a report fingerprint and a final state hash.
//! 2. **Victim** — same loop, but a background checkpointer snapshots
//!    every [`CrashPlan::snapshot_every`] batches and the controller is
//!    killed at the [`CrashPoint`]. Recovery rebuilds a service from the
//!    last good snapshot (or from nothing), replays the write-ahead
//!    journal suffix, resumes, and finishes.
//!
//! The harness asserts nothing itself; it reports both fingerprints in a
//! [`RecoveryOutcome`] so callers (the `lab_recovery` bin, tests) can
//! require [`RecoveryOutcome::matches`] across a grid of schedulers ×
//! dynamics × crash points × seeds.
//!
//! Determinism rests on two rules shared by every run:
//!
//! * admissions happen only at batch boundaries, keyed on the service's
//!   [`steps`](gfs_sim::ClusterService::steps) counter — the same anchor
//!   journal records replay against;
//! * the late wave (when [`CrashPlan::admit_late_after`] is set) is the
//!   trailing third of the trace, admitted once when the counter reaches
//!   the boundary — before the crash it lands in the journal, after the
//!   crash the resumed loop admits it at the same boundary.

use gfs_cluster::{Cluster, Scheduler};
use gfs_sim::{report_hash, ClusterService, ServiceSnapshot, SimConfig};
use gfs_types::{SimTime, TaskSpec};

use crate::{RunContext, Scenario};

/// Where the controller is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Kill after this many processed event batches.
    AfterEvents(u64),
    /// Kill at the first batch boundary at or past this simulated time.
    AtTime(SimTime),
    /// Begin writing a snapshot after this many batches and kill
    /// mid-write: the torn snapshot must be rejected and recovery must
    /// fall back to the previous good one (or the journal alone).
    MidSnapshot(u64),
}

impl CrashPoint {
    /// Short display label ("ev17" / "t3600" / "snap!9").
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CrashPoint::AfterEvents(n) => format!("ev{n}"),
            CrashPoint::AtTime(t) => format!("t{}", t.as_secs()),
            CrashPoint::MidSnapshot(n) => format!("snap!{n}"),
        }
    }

    fn due(&self, svc: &ClusterService) -> bool {
        match *self {
            CrashPoint::AfterEvents(n) | CrashPoint::MidSnapshot(n) => svc.steps() >= n,
            CrashPoint::AtTime(t) => svc.now() >= t,
        }
    }
}

/// A full crash experiment: when to kill, how often the background
/// checkpointer snapshots, where the late admission wave lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The kill site.
    pub point: CrashPoint,
    /// Snapshot cadence in event batches; 0 disables the checkpointer,
    /// forcing journal-only recovery.
    pub snapshot_every: u64,
    /// Batch boundary at which the trailing third of the trace is
    /// admitted mid-run (`None`: the whole trace is admitted up front).
    pub admit_late_after: Option<u64>,
}

impl CrashPlan {
    /// A plan with a checkpointer every `every` batches and a late wave
    /// at batch 5, killed at `point`.
    #[must_use]
    pub fn new(point: CrashPoint, every: u64) -> Self {
        CrashPlan {
            point,
            snapshot_every: every,
            admit_late_after: Some(5),
        }
    }
}

/// What one crash+recover experiment produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Report fingerprint of the uninterrupted run.
    pub golden_report: u64,
    /// Final state hash of the uninterrupted run.
    pub golden_state: u64,
    /// Report fingerprint of the crash-recovered run.
    pub recovered_report: u64,
    /// Final state hash of the crash-recovered run.
    pub recovered_state: u64,
    /// Batch counter at the kill.
    pub crashed_at_step: u64,
    /// Simulated time at the kill.
    pub crashed_at: SimTime,
    /// Whether recovery started from a snapshot (vs the journal alone).
    pub used_snapshot: bool,
    /// For [`CrashPoint::MidSnapshot`]: whether the torn snapshot was
    /// rejected by the parser, as it must be. `None` for other points.
    pub torn_snapshot_rejected: Option<bool>,
    /// Journal records re-applied during recovery.
    pub replayed: usize,
    /// Journal records skipped as already inside the snapshot.
    pub skipped: usize,
}

impl RecoveryOutcome {
    /// The experiment's verdict: the recovered run must reproduce the
    /// golden report and final state exactly, and a torn snapshot (when
    /// the plan produced one) must have been rejected.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.golden_report == self.recovered_report
            && self.golden_state == self.recovered_state
            && self.torn_snapshot_rejected != Some(false)
    }
}

/// The deterministic inputs of one experiment, built once and cloned
/// into the golden and victim runs.
struct Inputs {
    cluster: Cluster,
    sim: SimConfig,
    initial: Vec<TaskSpec>,
    late: Vec<TaskSpec>,
}

fn build_inputs(scenario: &Scenario, sim: &SimConfig, plan: &CrashPlan) -> Inputs {
    let tasks = scenario.workload.build(&scenario.shape, scenario.seed);
    let sim = SimConfig {
        dynamics: scenario.dynamics.build(&scenario.shape, scenario.seed),
        ..sim.clone()
    };
    let (initial, late) = match plan.admit_late_after {
        Some(_) if tasks.len() >= 3 => {
            let cut = tasks.len() - tasks.len() / 3;
            (tasks[..cut].to_vec(), tasks[cut..].to_vec())
        }
        _ => (tasks, Vec::new()),
    };
    Inputs {
        cluster: scenario.shape.build(),
        sim,
        initial,
        late,
    }
}

fn build_scheduler(scenario: &Scenario) -> Box<dyn Scheduler> {
    let ctx = RunContext {
        shape: &scenario.shape,
        workload: scenario.workload.name(),
        dynamics: scenario.dynamics.name(),
        market: scenario.market.name(),
        policy: &scenario.policy.policy,
        params: &scenario.params.params,
        seed: scenario.seed,
    };
    scenario.scheduler.build(&ctx)
}

/// Admits the late wave if its boundary has been reached. Returns the
/// wave onward when still pending.
fn admit_late_if_due(
    svc: &mut ClusterService,
    late: Option<Vec<TaskSpec>>,
    boundary: u64,
) -> Option<Vec<TaskSpec>> {
    match late {
        Some(wave) if svc.steps() >= boundary => {
            svc.admit_tasks(wave);
            None
        }
        other => other,
    }
}

/// Runs a service to completion, admitting the late wave at its
/// boundary (or, if the run drains early, immediately — both loops share
/// this rule, so golden and recovered runs agree).
fn drive_to_end(
    svc: &mut ClusterService,
    sched: &mut dyn Scheduler,
    mut late: Option<Vec<TaskSpec>>,
    boundary: u64,
) {
    loop {
        late = admit_late_if_due(svc, late, boundary);
        if !svc.step(sched) {
            match late.take() {
                Some(wave) => svc.admit_tasks(wave),
                None => break,
            }
        }
    }
}

/// Runs one crash+recover experiment for `scenario` under `plan` and
/// reports both fingerprints. See the [module docs](self) for the
/// protocol.
#[must_use]
pub fn crash_and_recover(
    scenario: &Scenario,
    sim: &SimConfig,
    plan: &CrashPlan,
) -> RecoveryOutcome {
    let inputs = build_inputs(scenario, sim, plan);
    let boundary = plan.admit_late_after.unwrap_or(0);

    // golden: the uninterrupted run
    let mut golden_sched = build_scheduler(scenario);
    let mut golden = ClusterService::new(inputs.cluster.clone(), inputs.sim.clone());
    golden.enable_journal();
    golden.admit_tasks(inputs.initial.clone());
    golden.start();
    let late = (!inputs.late.is_empty()).then(|| inputs.late.clone());
    drive_to_end(&mut golden, golden_sched.as_mut(), late, boundary);
    let golden_state = golden.state_hash(golden_sched.as_ref());
    let golden_report = report_hash(&golden.finish());

    // victim: same loop, checkpointer on, killed at the crash point
    let mut victim_sched = build_scheduler(scenario);
    let mut victim = ClusterService::new(inputs.cluster.clone(), inputs.sim.clone());
    victim.enable_journal();
    victim.admit_tasks(inputs.initial.clone());
    victim.start();
    let mut late = (!inputs.late.is_empty()).then(|| inputs.late.clone());
    // what survives the crash on durable storage: the last checkpoint's
    // bytes, recovered through the same parser a real failover uses
    let mut last_good: Option<String> = None;
    let mut drained = false;
    loop {
        late = admit_late_if_due(&mut victim, late, boundary);
        if plan.point.due(&victim) {
            break;
        }
        if !victim.step(victim_sched.as_mut()) {
            match late.take() {
                Some(wave) => victim.admit_tasks(wave),
                None => {
                    drained = true; // finished before the crash point
                    break;
                }
            }
            continue;
        }
        if plan.snapshot_every > 0 && victim.steps().is_multiple_of(plan.snapshot_every) {
            last_good = Some(victim.snapshot_json(victim_sched.as_ref()));
        }
    }
    let crashed_at_step = victim.steps();
    let crashed_at = victim.now();
    let late_was_admitted = late.is_none();

    // the kill: for MidSnapshot the in-flight snapshot write tears; the
    // parser must reject the half-written file
    let torn_snapshot_rejected = match plan.point {
        CrashPoint::MidSnapshot(_) if !drained => {
            let full = victim.snapshot_json(victim_sched.as_ref());
            let torn = &full[..full.len() / 2];
            Some(ServiceSnapshot::from_json(torn).is_err())
        }
        _ => None,
    };
    let journal_text = victim
        .journal()
        .expect("victim journal is enabled")
        .text()
        .to_string();
    drop(victim);
    drop(victim_sched);

    // recovery: last good snapshot + journal suffix, or journal alone
    let mut rec_sched = build_scheduler(scenario);
    let used_snapshot = last_good.is_some();
    let mut recovered = match last_good {
        Some(json) => {
            let snap = ServiceSnapshot::from_json(&json).expect("a checkpointer snapshot parses");
            ClusterService::restore(snap, rec_sched.as_mut())
                .expect("a checkpointer snapshot restores")
        }
        None => ClusterService::new(inputs.cluster.clone(), inputs.sim.clone()),
    };
    recovered.enable_journal();
    let replay = recovered.replay_journal(&journal_text, rec_sched.as_mut());
    assert!(
        replay.rejected.is_none(),
        "an intact journal replays cleanly: {:?}",
        replay.rejected
    );
    let late = (!late_was_admitted).then(|| inputs.late.clone());
    drive_to_end(&mut recovered, rec_sched.as_mut(), late, boundary);
    let recovered_state = recovered.state_hash(rec_sched.as_ref());
    let recovered_report = report_hash(&recovered.finish());

    RecoveryOutcome {
        golden_report,
        golden_state,
        recovered_report,
        recovered_state,
        crashed_at_step,
        crashed_at,
        used_snapshot,
        torn_snapshot_rejected,
        replayed: replay.applied,
        skipped: replay.skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClusterShape, DynamicsAxis, MarketAxis, ParamsAxis, PolicyAxis, SchedulerSpec, WorkloadAxis,
    };
    use gfs_types::HOUR;

    fn scenario(dynamics: DynamicsAxis, seed: u64) -> Scenario {
        Scenario {
            cell: 0,
            scheduler: SchedulerSpec::yarn_cs(),
            shape: ClusterShape::a100(4, 8),
            workload: WorkloadAxis::generated(
                "steady",
                gfs_trace::WorkloadConfig {
                    hp_tasks: 18,
                    spot_tasks: 6,
                    horizon_secs: 4 * HOUR,
                    ..gfs_trace::WorkloadConfig::default()
                },
            ),
            dynamics,
            market: MarketAxis::none(),
            policy: PolicyAxis::naive(),
            params: ParamsAxis::default_params(),
            seed,
        }
    }

    fn sim() -> SimConfig {
        SimConfig {
            max_time_secs: Some(48 * HOUR),
            ..SimConfig::default()
        }
    }

    #[test]
    fn crash_recover_matches_golden_across_points() {
        let s = scenario(DynamicsAxis::none(), 1);
        for point in [
            CrashPoint::AfterEvents(7),
            CrashPoint::AtTime(SimTime::from_hours(1)),
            CrashPoint::MidSnapshot(11),
        ] {
            let out = crash_and_recover(&s, &sim(), &CrashPlan::new(point, 4));
            assert!(out.matches(), "{point:?}: {out:?}");
            assert!(out.used_snapshot, "{point:?} crashes past the cadence");
        }
    }

    #[test]
    fn journal_only_recovery_and_mid_snapshot_tear() {
        let s = scenario(
            DynamicsAxis::rolling_drain("wave", SimTime::from_hours(1), HOUR / 2, 1_800, HOUR),
            2,
        );
        // no checkpointer: the journal alone must reproduce the run
        let plan = CrashPlan {
            point: CrashPoint::AfterEvents(9),
            snapshot_every: 0,
            admit_late_after: Some(5),
        };
        let out = crash_and_recover(&s, &sim(), &plan);
        assert!(out.matches(), "{out:?}");
        assert!(!out.used_snapshot);
        assert!(out.replayed >= 3, "tasks + start + late wave: {out:?}");
        // a torn mid-write snapshot is rejected, never restored
        let out = crash_and_recover(&s, &sim(), &CrashPlan::new(CrashPoint::MidSnapshot(13), 6));
        assert!(out.matches(), "{out:?}");
        assert_eq!(out.torn_snapshot_rejected, Some(true));
    }

    #[test]
    fn crash_before_late_wave_still_admits_it() {
        let s = scenario(DynamicsAxis::none(), 3);
        let plan = CrashPlan {
            point: CrashPoint::AfterEvents(2),
            snapshot_every: 0,
            admit_late_after: Some(5),
        };
        let out = crash_and_recover(&s, &sim(), &plan);
        assert!(out.matches(), "{out:?}");
        assert!(out.crashed_at_step <= 2, "killed before the wave landed");
    }
}
