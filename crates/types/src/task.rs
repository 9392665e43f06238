//! Task descriptions.
//!
//! Following §3.4.1 of the paper, a task `τᵢ = <wᵢ, gᵢ, ζᵢ, ψᵢ, ιᵢ>` requests
//! `wᵢ` pods of `gᵢ` GPUs each, has a priority class `ζᵢ` (spot or HP), a
//! checkpoint plan `ψᵢ`, and accumulates run logs `ιᵢ` as it is scheduled,
//! preempted and resumed.

use serde::{Deserialize, Serialize};

use crate::{Error, GpuModel, OrgId, Result, SimDuration, SimTime, TaskId};

/// Priority class of a task (`ζᵢ` in the paper).
///
/// HP tasks are never preempted (Eq. 12c/12d); spot tasks may be evicted at
/// any time after a grace period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Low-priority preemptible task running on spot quota.
    Spot,
    /// High-priority task with a strict SLO; never preempted.
    Hp,
}

impl Priority {
    /// Whether this is the high-priority class.
    #[must_use]
    pub fn is_hp(self) -> bool {
        matches!(self, Priority::Hp)
    }

    /// Whether this is the preemptible spot class.
    #[must_use]
    pub fn is_spot(self) -> bool {
        matches!(self, Priority::Spot)
    }
}

/// Per-pod GPU demand (`gᵢ`): either a fraction of one card or a whole
/// number of cards.
///
/// Fractional demands model the GPU-sharing workloads that dominated the
/// 2020 trace (Fig. 2); whole-card demands dominate the 2024 LLM era.
///
/// # Examples
///
/// ```
/// use gfs_types::GpuDemand;
///
/// let d = GpuDemand::fraction(0.25).unwrap();
/// assert!(d.is_fractional());
/// assert_eq!(GpuDemand::whole(8).cards(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GpuDemand {
    /// A fraction of a single GPU card, strictly inside `(0, 1)`.
    Fraction(f64),
    /// One or more whole GPU cards.
    Whole(u32),
}

impl GpuDemand {
    /// Creates a fractional demand.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTask`] unless `0 < f < 1`.
    pub fn fraction(f: f64) -> Result<Self> {
        if f > 0.0 && f < 1.0 && f.is_finite() {
            Ok(GpuDemand::Fraction(f))
        } else {
            Err(Error::InvalidTask(format!(
                "fractional GPU demand must be in (0, 1), got {f}"
            )))
        }
    }

    /// Creates a whole-card demand of `n ≥ 1` cards.
    #[must_use]
    pub fn whole(n: u32) -> Self {
        GpuDemand::Whole(n.max(1))
    }

    /// Demand expressed in (possibly fractional) cards.
    #[must_use]
    pub fn cards(self) -> f64 {
        match self {
            GpuDemand::Fraction(f) => f,
            GpuDemand::Whole(n) => f64::from(n),
        }
    }

    /// Whole cards requested, or `None` when the demand is fractional.
    #[must_use]
    pub fn whole_cards(self) -> Option<u32> {
        match self {
            GpuDemand::Fraction(_) => None,
            GpuDemand::Whole(n) => Some(n),
        }
    }

    /// Whether the demand is a sub-card fraction.
    #[must_use]
    pub fn is_fractional(self) -> bool {
        matches!(self, GpuDemand::Fraction(_))
    }
}

/// Checkpoint plan `ψᵢ`: the milestones at which task state is durably saved.
///
/// When a spot task is preempted, the work since the most recent checkpoint
/// is lost; Eq. 17 prices this waste during victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointPlan {
    /// The task never checkpoints: preemption loses all progress.
    None,
    /// The task checkpoints every `interval` seconds of execution.
    Periodic {
        /// Seconds of execution between consecutive checkpoints.
        interval: SimDuration,
    },
}

impl CheckpointPlan {
    /// Progress (seconds of completed work) that survives a preemption after
    /// `executed` seconds of execution in the current run, given `carried`
    /// seconds of work preserved from previous runs.
    #[must_use]
    pub fn preserved_progress(self, carried: SimDuration, executed: SimDuration) -> SimDuration {
        match self {
            CheckpointPlan::None => carried,
            CheckpointPlan::Periodic { interval } => {
                if interval == 0 {
                    return carried + executed;
                }
                let total = carried + executed;
                // checkpoints happen at multiples of `interval` of *total* progress
                let kept = (total / interval) * interval;
                kept.max(carried)
            }
        }
    }

    /// Seconds of work lost if preempted after `executed` seconds in the
    /// current run (with `carried` prior progress): the `t − t_check` term
    /// of Eq. 17.
    #[must_use]
    pub fn wasted_work(self, carried: SimDuration, executed: SimDuration) -> SimDuration {
        carried + executed - self.preserved_progress(carried, executed)
    }
}

/// Immutable description of a task, as submitted by a tenant.
///
/// Built via [`TaskSpec::builder`]. See the crate-level example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task identifier.
    pub id: TaskId,
    /// Submitting organization.
    pub org: OrgId,
    /// Priority class `ζᵢ`.
    pub priority: Priority,
    /// Required GPU model.
    pub gpu_model: GpuModel,
    /// Number of pods `wᵢ` (≥ 1). Multi-pod tasks are gang-scheduled.
    pub pods: u32,
    /// GPUs per pod `gᵢ`.
    pub gpus_per_pod: GpuDemand,
    /// Total execution time needed to finish, in seconds of work.
    pub duration_secs: SimDuration,
    /// Submission time.
    pub submit_at: SimTime,
    /// Checkpoint plan `ψᵢ`.
    pub checkpoint: CheckpointPlan,
    /// For spot tasks: the guaranteed duration sold with the instance
    /// (the `H`-hour guarantee of §3.3); `None` for HP tasks.
    pub guarantee_secs: Option<SimDuration>,
}

impl TaskSpec {
    /// Starts building a task with the given id and defaults
    /// (HP, 1 pod × 1 A100, 1 h duration, no checkpoints, submit at 0).
    #[must_use]
    pub fn builder(id: u64) -> TaskSpecBuilder {
        TaskSpecBuilder::new(TaskId::new(id))
    }

    /// Total GPUs requested across all pods, in (possibly fractional) cards.
    #[must_use]
    pub fn total_gpus(&self) -> f64 {
        f64::from(self.pods) * self.gpus_per_pod.cards()
    }

    /// Whether the task requires gang scheduling (all pods placed
    /// atomically). In this model every multi-pod task is a gang.
    #[must_use]
    pub fn is_gang(&self) -> bool {
        self.pods > 1
    }
}

/// Builder for [`TaskSpec`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct TaskSpecBuilder {
    id: TaskId,
    org: OrgId,
    priority: Priority,
    gpu_model: GpuModel,
    pods: u32,
    gpus_per_pod: GpuDemand,
    duration_secs: SimDuration,
    submit_at: SimTime,
    checkpoint: CheckpointPlan,
    guarantee_secs: Option<SimDuration>,
}

impl TaskSpecBuilder {
    /// Creates a builder with defaults.
    #[must_use]
    pub fn new(id: TaskId) -> Self {
        TaskSpecBuilder {
            id,
            org: OrgId::new(0),
            priority: Priority::Hp,
            gpu_model: GpuModel::A100,
            pods: 1,
            gpus_per_pod: GpuDemand::whole(1),
            duration_secs: 3_600,
            submit_at: SimTime::ZERO,
            checkpoint: CheckpointPlan::None,
            guarantee_secs: None,
        }
    }

    /// Sets the submitting organization.
    #[must_use]
    pub fn org(mut self, org: OrgId) -> Self {
        self.org = org;
        self
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the required GPU model.
    #[must_use]
    pub fn gpu_model(mut self, model: GpuModel) -> Self {
        self.gpu_model = model;
        self
    }

    /// Sets the number of pods `wᵢ`.
    #[must_use]
    pub fn pods(mut self, pods: u32) -> Self {
        self.pods = pods;
        self
    }

    /// Sets per-pod GPU demand `gᵢ`.
    #[must_use]
    pub fn gpus_per_pod(mut self, demand: GpuDemand) -> Self {
        self.gpus_per_pod = demand;
        self
    }

    /// Sets the total work duration, in seconds.
    #[must_use]
    pub fn duration_secs(mut self, secs: SimDuration) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Sets the submission time.
    #[must_use]
    pub fn submit_at(mut self, t: SimTime) -> Self {
        self.submit_at = t;
        self
    }

    /// Sets the checkpoint plan `ψᵢ`.
    #[must_use]
    pub fn checkpoint(mut self, plan: CheckpointPlan) -> Self {
        self.checkpoint = plan;
        self
    }

    /// Sets the guaranteed duration for a spot task.
    #[must_use]
    pub fn guarantee_secs(mut self, secs: SimDuration) -> Self {
        self.guarantee_secs = Some(secs);
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTask`] if the task has zero pods, zero
    /// duration, a fractional demand combined with multiple pods, or an HP
    /// task carrying a spot guarantee.
    pub fn build(self) -> Result<TaskSpec> {
        if self.pods == 0 {
            return Err(Error::InvalidTask(
                "task must request at least one pod".into(),
            ));
        }
        if self.duration_secs == 0 {
            return Err(Error::InvalidTask("task duration must be positive".into()));
        }
        if self.pods > 1 && self.gpus_per_pod.is_fractional() {
            return Err(Error::InvalidTask(
                "gang tasks cannot use fractional GPU demands".into(),
            ));
        }
        if self.priority.is_hp() && self.guarantee_secs.is_some() {
            return Err(Error::InvalidTask(
                "HP tasks do not carry spot guarantees".into(),
            ));
        }
        Ok(TaskSpec {
            id: self.id,
            org: self.org,
            priority: self.priority,
            gpu_model: self.gpu_model,
            pods: self.pods,
            gpus_per_pod: self.gpus_per_pod,
            duration_secs: self.duration_secs,
            submit_at: self.submit_at,
            checkpoint: self.checkpoint,
            guarantee_secs: self.guarantee_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spot_task() -> TaskSpec {
        TaskSpec::builder(1)
            .priority(Priority::Spot)
            .pods(2)
            .gpus_per_pod(GpuDemand::whole(4))
            .duration_secs(7_200)
            .build()
            .unwrap()
    }

    #[test]
    fn total_gpus_multiplies_pods() {
        assert_eq!(spot_task().total_gpus(), 8.0);
    }

    #[test]
    fn gang_detection() {
        assert!(spot_task().is_gang());
        let single = TaskSpec::builder(2).build().unwrap();
        assert!(!single.is_gang());
    }

    #[test]
    fn fraction_validation() {
        assert!(GpuDemand::fraction(0.5).is_ok());
        assert!(GpuDemand::fraction(0.0).is_err());
        assert!(GpuDemand::fraction(1.0).is_err());
        assert!(GpuDemand::fraction(-0.1).is_err());
        assert!(GpuDemand::fraction(f64::NAN).is_err());
    }

    #[test]
    fn whole_clamps_to_one() {
        assert_eq!(GpuDemand::whole(0).cards(), 1.0);
        assert_eq!(GpuDemand::whole(3).whole_cards(), Some(3));
        assert_eq!(GpuDemand::fraction(0.5).unwrap().whole_cards(), None);
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(TaskSpec::builder(1).pods(0).build().is_err());
        assert!(TaskSpec::builder(1).duration_secs(0).build().is_err());
        assert!(TaskSpec::builder(1)
            .pods(2)
            .gpus_per_pod(GpuDemand::fraction(0.5).unwrap())
            .build()
            .is_err());
        assert!(TaskSpec::builder(1)
            .priority(Priority::Hp)
            .guarantee_secs(3600)
            .build()
            .is_err());
    }

    #[test]
    fn checkpoint_none_loses_everything_beyond_carried() {
        let plan = CheckpointPlan::None;
        assert_eq!(plan.preserved_progress(100, 500), 100);
        assert_eq!(plan.wasted_work(100, 500), 500);
    }

    #[test]
    fn checkpoint_periodic_keeps_multiples() {
        let plan = CheckpointPlan::Periodic { interval: 600 };
        // carried 0, executed 1500 -> preserved 1200, wasted 300
        assert_eq!(plan.preserved_progress(0, 1_500), 1_200);
        assert_eq!(plan.wasted_work(0, 1_500), 300);
        // carried 600, executed 100 -> total 700 -> preserved 600
        assert_eq!(plan.preserved_progress(600, 100), 600);
        assert_eq!(plan.wasted_work(600, 100), 100);
    }

    #[test]
    fn checkpoint_zero_interval_preserves_all() {
        let plan = CheckpointPlan::Periodic { interval: 0 };
        assert_eq!(plan.preserved_progress(10, 20), 30);
        assert_eq!(plan.wasted_work(10, 20), 0);
    }

    #[test]
    fn preserved_never_below_carried() {
        let plan = CheckpointPlan::Periodic { interval: 1_000 };
        // carried 999 (not at a checkpoint boundary — e.g. carried from a
        // clean stop), executed 0 -> preserved must stay 999
        assert_eq!(plan.preserved_progress(999, 0), 999);
    }

    #[test]
    fn priority_predicates() {
        assert!(Priority::Hp.is_hp());
        assert!(!Priority::Hp.is_spot());
        assert!(Priority::Spot.is_spot());
    }

    #[test]
    fn serde_round_trip() {
        let t = spot_task();
        let json = serde_json::to_string(&t).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
