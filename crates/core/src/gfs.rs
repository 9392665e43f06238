//! The assembled GFS scheduler (Fig. 6): GDE + SQA + PTS behind the
//! [`Scheduler`] trait, implementing the closed loop of Alg. 3.

use gfs_cluster::{Cluster, Decision, DrainDecision, RunningTask, Scheduler, TaskEvent};
use gfs_sched::placement::PlacementPolicy;
use gfs_types::{GfsParams, SimDuration, SimTime, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::gde::{DemandEstimator, GdeState};
use crate::pts::{Pts, PtsVariant};
use crate::sqa::{SpotQuotaAllocator, SqaState};

/// The serialized dynamic state of a [`GfsScheduler`]: the SQA feedback
/// accumulators plus (when a GDE is attached) the demand-history rollup.
/// This is what [`Scheduler::save_state`] encodes for service snapshots;
/// the PTS carries no dynamic state (it is a pure function of the cluster
/// view), and parameters/models are rebuilt by the scheduler factory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GfsState {
    /// Spot Quota Allocator accumulators.
    pub sqa: SqaState,
    /// Demand-estimator history, when a GDE is attached.
    pub gde: Option<GdeState>,
}

/// The GFS scheduling framework.
///
/// * **Quota check** — spot tasks are admitted only within the SQA quota
///   `Q_H` (Alg. 3 line 1).
/// * **Non-preemptive scheduling** — Alg. 1 with the three-criteria
///   scoring.
/// * **Preemptive fallback** — HP tasks failing non-preemptive placement
///   preempt spot tasks per Alg. 2.
///
/// Without a [`DemandEstimator`] the aggregated demand forecast is zero and
/// the quota degenerates to "all currently idle GPUs" — useful for unit
/// tests and as a conservative fallback.
pub struct GfsScheduler {
    display_name: String,
    params: GfsParams,
    pts: Pts,
    sqa: SpotQuotaAllocator,
    gde: Option<DemandEstimator>,
}

impl std::fmt::Debug for GfsScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GfsScheduler({}, quota={:.1}, eta={:.2})",
            self.display_name,
            self.sqa.quota(),
            self.sqa.eta()
        )
    }
}

impl GfsScheduler {
    /// Creates the framework with an optional demand estimator and
    /// policy-less (naive) placement.
    #[must_use]
    pub fn new(params: GfsParams, variant: PtsVariant, gde: Option<DemandEstimator>) -> Self {
        GfsScheduler::with_policy(params, variant, gde, PlacementPolicy::naive())
    }

    /// Creates the framework with a churn [`PlacementPolicy`] steering
    /// the PTS node choice (domain spreading, reliability scoring, drain
    /// awareness). A [`PlacementPolicy::naive`] policy reproduces
    /// [`GfsScheduler::new`] bit for bit.
    #[must_use]
    pub fn with_policy(
        params: GfsParams,
        variant: PtsVariant,
        gde: Option<DemandEstimator>,
        policy: PlacementPolicy,
    ) -> Self {
        let display_name = match (variant, &gde) {
            (PtsVariant::Full, Some(_)) => "GFS".to_string(),
            (PtsVariant::Full, None) => "GFS (no GDE)".to_string(),
            (PtsVariant::SimpleScoring, _) => "GFS-s".to_string(),
            (PtsVariant::RandomPreemption, _) => "GFS-p".to_string(),
            (PtsVariant::Degraded, _) => "GFS-sp".to_string(),
        };
        GfsScheduler {
            display_name,
            pts: Pts::with_policy(params.clone(), variant, policy),
            sqa: SpotQuotaAllocator::new(params.clone()),
            params,
            gde,
        }
    }

    /// Creates the full framework with Table 4 defaults and no estimator.
    #[must_use]
    pub fn with_defaults() -> Self {
        GfsScheduler::new(GfsParams::default(), PtsVariant::Full, None)
    }

    /// Overrides the display name (used by ablation harnesses, e.g.
    /// "GFS-e" for the peak-predictor variant).
    pub fn set_display_name(&mut self, name: impl Into<String>) {
        self.display_name = name.into();
    }

    /// Current spot quota `Q_H`.
    #[must_use]
    pub fn quota(&self) -> f64 {
        self.sqa.quota()
    }

    /// Current SQA safety coefficient `η`.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.sqa.eta()
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &GfsParams {
        &self.params
    }

    /// The PTS placement engine behind every decision (its
    /// [`Pts::preempt_work`] counts what Alg. 2 did).
    #[must_use]
    pub fn pts(&self) -> &Pts {
        &self.pts
    }

    fn per_org_hp_usage(&self, cluster: &Cluster) -> Vec<f64> {
        let n = self.gde.as_ref().map_or(0, DemandEstimator::num_orgs);
        let mut usage = vec![0.0; n];
        if n == 0 {
            return usage;
        }
        for rt in cluster.running() {
            if rt.spec.priority.is_hp() {
                usage[rt.spec.org.index() % n] += rt.spec.total_gpus();
            }
        }
        usage
    }
}

impl Scheduler for GfsScheduler {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn on_tick(&mut self, now: SimTime, cluster: &Cluster) {
        let usage = self.per_org_hp_usage(cluster);
        let upper = match &mut self.gde {
            Some(gde) => {
                gde.record_usage(now, &usage);
                gde.aggregate_upper(
                    self.params.guarantee_rate,
                    self.params.guarantee_hours as usize,
                )
            }
            None => 0.0,
        };
        self.sqa.update(now, cluster, upper);
    }

    fn demand_forecast(&self, p: f64, h: usize) -> Option<f64> {
        self.gde.as_ref().map(|g| g.aggregate_upper(p, h))
    }

    fn on_event(&mut self, event: &TaskEvent, cluster: &Cluster) {
        match event {
            TaskEvent::Evicted { task, at } => self.sqa.record_eviction(*task, *at),
            TaskEvent::Submitted { task, priority, at } if priority.is_spot() => {
                self.sqa.record_spot_submitted(*task, *at);
            }
            TaskEvent::Started {
                task,
                priority,
                queued_secs,
                at,
            } if priority.is_spot() => {
                self.sqa.record_spot_start(*task, *at, *queued_secs);
            }
            TaskEvent::Displaced { task, priority, at } if priority.is_spot() => {
                self.sqa.record_displacement(*task, *at);
            }
            // capacity changed under the quota — a node died, returned,
            // started draining (its cards can host nothing new) or joined
            // by scale-out: re-clamp immediately instead of admitting
            // against vanished GPUs (or ignoring fresh ones) until the
            // next 300 s tick (the SQA keeps the last forecast for this)
            TaskEvent::NodeDown { .. }
            | TaskEvent::NodeUp { .. }
            | TaskEvent::DrainNotice { .. }
            | TaskEvent::NodeAdded { .. } => {
                self.sqa.refresh_capacity(cluster);
            }
            _ => {}
        }
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        // Alg. 3: quota gate for spot tasks
        if task.priority.is_spot() && !self.sqa.admits(cluster, task.total_gpus()) {
            return None;
        }
        self.pts.schedule(task, cluster, now)
    }

    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        Pts::task_order(a, b)
    }

    fn refusal_class(&self, task: &TaskSpec) -> Option<u64> {
        self.pts.refusal_class(task)
    }

    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        self.pts.policy().drain_decision(task, notice, cluster, now)
    }

    fn save_state(&self) -> Option<String> {
        let state = GfsState {
            sqa: self.sqa.save_state(),
            gde: self.gde.as_ref().map(DemandEstimator::save_state),
        };
        let mut out = String::new();
        state.serialize_json(&mut out);
        Some(out)
    }

    fn restore_state(&mut self, state: &str) -> bool {
        let mut p = serde::de::Parser::new(state);
        let Ok(parsed) = GfsState::deserialize_json(&mut p) else {
            return false;
        };
        if !p.at_end() {
            return false;
        }
        match (&mut self.gde, parsed.gde) {
            (Some(gde), Some(s)) => {
                if !gde.restore_state(s) {
                    return false;
                }
            }
            (None, None) => {}
            // a GDE-less snapshot cannot hydrate a GDE-ful scheduler (or
            // vice versa): the factory and the snapshot disagree
            _ => return false,
        }
        self.sqa.restore_state(parsed.sqa);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, TaskId};

    fn task(id: u64, priority: Priority, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(50_000)
            .build()
            .unwrap()
    }

    #[test]
    fn spot_blocked_until_first_quota_update() {
        let mut s = GfsScheduler::with_defaults();
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        assert!(s
            .schedule(&task(1, Priority::Spot, 2), &c, SimTime::ZERO)
            .is_none());
        s.on_tick(SimTime::from_secs(300), &c);
        assert!(s.quota() > 0.0);
        assert!(s
            .schedule(&task(1, Priority::Spot, 2), &c, SimTime::ZERO)
            .is_some());
    }

    #[test]
    fn hp_ignores_quota_and_preempts() {
        let mut s = GfsScheduler::with_defaults();
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 8),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let d = s
            .schedule(&task(2, Priority::Hp, 4), &c, SimTime::from_secs(10))
            .unwrap();
        assert!(d.is_preemptive());
        assert_eq!(d.preemptions, vec![TaskId::new(1)]);
    }

    #[test]
    fn eviction_feedback_reaches_sqa() {
        let mut s = GfsScheduler::with_defaults();
        let c = Cluster::homogeneous(1, GpuModel::A100, 8);
        s.on_tick(SimTime::from_secs(300), &c);
        let q0 = s.quota();
        // storm of evictions within the window
        for i in 0..20 {
            s.on_event(
                &TaskEvent::Evicted {
                    task: TaskId::new(i),
                    at: SimTime::from_secs(400),
                },
                &c,
            );
        }
        s.on_tick(SimTime::from_secs(600), &c);
        assert!(s.eta() < 1.0, "η must shrink after an eviction storm");
        assert!(s.quota() < q0);
    }

    #[test]
    fn node_down_reclamps_quota_immediately() {
        let mut s = GfsScheduler::with_defaults();
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        s.on_tick(SimTime::from_secs(300), &c);
        assert!((s.quota() - 16.0).abs() < 1e-9);
        c.fail_node(NodeId::new(1), SimTime::from_secs(400))
            .unwrap();
        s.on_event(
            &TaskEvent::NodeDown {
                node: NodeId::new(1),
                lost_gpus: 8,
                at: SimTime::from_secs(400),
            },
            &c,
        );
        assert!(
            (s.quota() - 8.0).abs() < 1e-9,
            "quota tracks the surviving fleet"
        );
        assert!(s
            .schedule(&task(1, Priority::Spot, 12), &c, SimTime::from_secs(401))
            .is_none());
        c.restore_node(NodeId::new(1), SimTime::from_secs(500))
            .unwrap();
        s.on_event(
            &TaskEvent::NodeUp {
                node: NodeId::new(1),
                restored_gpus: 8,
                at: SimTime::from_secs(500),
            },
            &c,
        );
        assert!((s.quota() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn drain_notice_and_scale_out_reclamp_quota() {
        let mut s = GfsScheduler::with_defaults();
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        s.on_tick(SimTime::from_secs(300), &c);
        assert!((s.quota() - 16.0).abs() < 1e-9);
        // a draining node's cards can host nothing new: quota shrinks at
        // the notice, not at the deadline
        c.drain_node(NodeId::new(1), SimTime::from_secs(3_600))
            .unwrap();
        s.on_event(
            &TaskEvent::DrainNotice {
                node: NodeId::new(1),
                deadline: SimTime::from_secs(3_600),
                at: SimTime::from_secs(400),
            },
            &c,
        );
        assert!(
            (s.quota() - 8.0).abs() < 1e-9,
            "quota tracks the schedulable fleet"
        );
        // scale-out grows it right back
        let added = c.add_node(GpuModel::A100, 8);
        s.on_event(
            &TaskEvent::NodeAdded {
                node: added,
                added_gpus: 8,
                at: SimTime::from_secs(500),
            },
            &c,
        );
        assert!(
            (s.quota() - 16.0).abs() < 1e-9,
            "fresh capacity admits spot immediately"
        );
    }

    #[test]
    fn display_names_follow_variants() {
        assert_eq!(
            GfsScheduler::new(GfsParams::default(), PtsVariant::Degraded, None).name(),
            "GFS-sp"
        );
        assert_eq!(GfsScheduler::with_defaults().name(), "GFS (no GDE)");
        let mut s = GfsScheduler::with_defaults();
        s.set_display_name("GFS-e");
        assert_eq!(s.name(), "GFS-e");
    }

    #[test]
    fn queue_sorting_delegates_to_pts() {
        let s = GfsScheduler::with_defaults();
        let mut q = vec![task(1, Priority::Hp, 1), task(2, Priority::Hp, 8)];
        s.sort_queue(&mut q);
        assert_eq!(q[0].id, TaskId::new(2));
    }

    #[test]
    fn state_round_trip_restores_feedback_loop() {
        let mut s = GfsScheduler::with_defaults();
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        s.on_tick(SimTime::from_secs(300), &c);
        for i in 0..7 {
            s.on_event(
                &TaskEvent::Evicted {
                    task: TaskId::new(i),
                    at: SimTime::from_secs(400),
                },
                &c,
            );
        }
        s.on_event(
            &TaskEvent::Submitted {
                task: TaskId::new(99),
                priority: Priority::Spot,
                at: SimTime::from_secs(410),
            },
            &c,
        );
        s.on_tick(SimTime::from_secs(600), &c);
        let blob = s.save_state().expect("GFS is stateful");

        let mut fresh = GfsScheduler::with_defaults();
        assert_ne!(fresh.eta(), s.eta(), "fresh scheduler starts clean");
        assert!(fresh.restore_state(&blob));
        assert_eq!(fresh.eta(), s.eta());
        assert_eq!(fresh.quota(), s.quota());
        // the restored blob re-encodes identically (canonical ordering)
        assert_eq!(fresh.save_state().unwrap(), blob);
        // and the restored feedback loop evolves identically
        s.on_tick(SimTime::from_secs(900), &c);
        fresh.on_tick(SimTime::from_secs(900), &c);
        assert_eq!(fresh.save_state().unwrap(), s.save_state().unwrap());
    }

    #[test]
    fn restore_rejects_garbage_and_mismatched_shape() {
        let mut s = GfsScheduler::with_defaults();
        assert!(!s.restore_state("not json"));
        assert!(!s.restore_state("{}"));
        let blob = s.save_state().unwrap();
        assert!(!s.restore_state(&format!("{blob} trailing")));
        assert!(s.restore_state(&blob));
    }
}
