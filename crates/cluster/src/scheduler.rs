//! The scheduler interface every policy (GFS and all baselines) implements.
//!
//! A scheduler receives an immutable view of the [`Cluster`] and answers
//! placement questions; the simulator owns execution (evicting victims,
//! committing placements, requeuing). This keeps policies pure and easy to
//! compare.

use std::cmp::Ordering;

use gfs_types::{NodeId, Priority, SimDuration, SimTime, TaskId, TaskSpec};

use crate::cluster::{Cluster, RunningTask};

/// A placement decision for one task.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decision {
    /// Hosting node for each pod (length = pod count; duplicates allowed).
    pub pod_nodes: Vec<NodeId>,
    /// Spot tasks that must be evicted before the placement fits.
    pub preemptions: Vec<TaskId>,
}

impl Decision {
    /// A decision that places pods without preempting anyone.
    #[must_use]
    pub fn place(pod_nodes: Vec<NodeId>) -> Self {
        Decision {
            pod_nodes,
            preemptions: Vec::new(),
        }
    }

    /// Whether the decision requires evictions.
    #[must_use]
    pub fn is_preemptive(&self) -> bool {
        !self.preemptions.is_empty()
    }
}

/// Lifecycle notifications delivered to schedulers for feedback loops
/// (e.g. the SQA's eviction-rate / queueing-time controller, Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEvent {
    /// A task entered the pending queue.
    Submitted {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A task started executing after queuing for `queued_secs`.
    Started {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Seconds spent in the queue for this segment.
        queued_secs: u64,
        /// Event time.
        at: SimTime,
    },
    /// A task finished all its work.
    Finished {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A spot task was evicted by a preemption.
    Evicted {
        /// Task id.
        task: TaskId,
        /// Event time.
        at: SimTime,
    },
    /// A task (any priority) was displaced by a node failure. Kept apart
    /// from [`TaskEvent::Evicted`] so eviction-driven feedback loops
    /// (Eq. 11, Eq. 15) are not polluted by hardware churn.
    Displaced {
        /// Task id.
        task: TaskId,
        /// Task priority class.
        priority: Priority,
        /// Event time.
        at: SimTime,
    },
    /// A node began a maintenance drain: it accepts no new placements
    /// (its cards already left every capacity total) and will be forced
    /// down at `deadline`. Tasks that cannot finish inside the notice
    /// window are migrated by the simulator and arrive as
    /// [`TaskEvent::Displaced`] notifications just before this event, so
    /// a policy can proactively re-place gangs instead of losing work at
    /// the deadline.
    DrainNotice {
        /// The draining node.
        node: NodeId,
        /// When the node will be forced out of service.
        deadline: SimTime,
        /// Event time (start of the notice window).
        at: SimTime,
    },
    /// A fresh node joined the cluster (scale-out); its capacity just
    /// entered every cluster total.
    NodeAdded {
        /// The minted node.
        node: NodeId,
        /// Cards it brought.
        added_gpus: u32,
        /// Event time.
        at: SimTime,
    },
    /// A node failed; its capacity just left every cluster total.
    NodeDown {
        /// The failed node.
        node: NodeId,
        /// Cards that vanished with it.
        lost_gpus: u32,
        /// Event time.
        at: SimTime,
    },
    /// A node returned to service with all cards idle.
    NodeUp {
        /// The restored node.
        node: NodeId,
        /// Cards that came back.
        restored_gpus: u32,
        /// Event time.
        at: SimTime,
    },
}

/// What to do with a task running on a node that just received a drain
/// notice — the answer of [`Scheduler::drain_decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainDecision {
    /// Migrate the gang now (graceful release with checkpointed progress,
    /// requeue after the grace period) — early in the notice window,
    /// before the forced deadline.
    Migrate,
    /// Leave the gang running on the draining node: it either finishes
    /// inside the notice window or keeps checkpointing until the forced
    /// shutdown displaces it at the deadline.
    Stay,
}

/// A scheduling policy.
///
/// Implementations must be deterministic: same state + same inputs must
/// produce the same decision, so simulations are reproducible.
pub trait Scheduler {
    /// Display name used in reports.
    fn name(&self) -> &str;

    /// Proposes a placement for `task`, or `None` to leave it pending.
    ///
    /// A returned [`Decision`] may list spot victims in `preemptions`; the
    /// simulator evicts them before committing the placement.
    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision>;

    /// Periodic hook (the simulator fires it at the configured quota-update
    /// interval; GFS recomputes `Q_H` here).
    fn on_tick(&mut self, _now: SimTime, _cluster: &Cluster) {}

    /// Lifecycle notification hook.
    fn on_event(&mut self, _event: &TaskEvent, _cluster: &Cluster) {}

    /// Aggregate upper-quantile GPU-demand forecast over the next `_h`
    /// hours at confidence `_p`, if this scheduler maintains one. GFS
    /// answers from its demand estimator (the Eq. 9 per-org upper
    /// quantiles, aggregated); schedulers without a forecasting loop
    /// return `None` and capacity controllers (`gfs_market`) fall back to
    /// a windowed-arrival estimate. Must be a pure read: the simulator
    /// never calls it, so scheduler state and goldens are unaffected.
    fn demand_forecast(&self, _p: f64, _h: usize) -> Option<f64> {
        None
    }

    /// Chooses how `task`, running on a node whose drain notice just
    /// landed, rides out the notice window. The simulator consults this
    /// once per affected gang at the notice and executes the answer.
    ///
    /// The default reproduces the engine's historical hard-wired rule:
    /// migrate exactly the gangs that cannot finish inside the window
    /// (`remaining > notice`), leave the rest to finish in place. A
    /// drain-aware policy may instead keep a can't-finish gang
    /// checkpointing until the deadline when the cluster has no room for
    /// it anyway — see `gfs_sched::placement::PlacementPolicy`.
    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        _cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        if task.remaining(now) > notice {
            DrainDecision::Migrate
        } else {
            DrainDecision::Stay
        }
    }

    /// Relative queue priority of two pending tasks: `Less` runs first.
    ///
    /// The key must be *static per task* (derived from the spec only): the
    /// simulator keeps its pending queue incrementally sorted by this
    /// comparator — inserting each task once instead of re-sorting the
    /// whole queue every scheduling pass — and equal tasks stay in FIFO
    /// arrival order. The default (`Equal`) is plain FIFO; PTS orders by
    /// GPU request, pod count and submit time (§3.4.2).
    fn queue_cmp(&self, _a: &TaskSpec, _b: &TaskSpec) -> Ordering {
        Ordering::Equal
    }

    /// Declares the *refusal class* of a pending task, letting the
    /// simulator's scheduling pass skip offers whose answer it already
    /// knows. `None` (the default) declares nothing: the task is offered
    /// in every pass, exactly as if this method did not exist.
    ///
    /// # Contract
    ///
    /// Returning `Some(k)` promises, for this scheduler and its own
    /// [`Scheduler::queue_cmp`] order: *within one scheduling pass, once
    /// [`Scheduler::schedule`] has refused a task of class `k`, it refuses
    /// every later task of class `k` too, until a decision carrying
    /// preemptions — or one whose commit failed — has been applied.*
    /// Inside a pass the clock stands still and the only other cluster
    /// change is a committed non-preemptive placement, so the promise
    /// reads: a refusal must survive any sequence of placements that take
    /// capacity and free none. The simulator then stops offering class
    /// `k` after its first refusal in a pass and resumes after the next
    /// preemptive (or failed) commit, from the first class member ordered
    /// after the committing task. Skipped tasks are never shown to
    /// `schedule`, so a refusing `schedule` call must not have side
    /// effects that later decisions depend on. Debug builds re-offer
    /// every skipped task at the moment it is skipped and panic if the
    /// scheduler would have placed it.
    ///
    /// # What may enter the key
    ///
    /// The key must be *static per task* (a function of the spec alone),
    /// injective over everything in the spec that `schedule` reads to
    /// decide *feasibility* — typically priority tier, GPU model and the
    /// per-pod demand shape — and must leave out what only picks *among*
    /// feasible placements or orders the queue (task id, submit time,
    /// duration, organisation). Two specs with equal keys must be
    /// interchangeable as far as "can this be placed right now?" goes.
    ///
    /// # When to return `None`
    ///
    /// Whenever refusal is not monotone under placements or not a
    /// function of such a key: a placement policy whose feasibility
    /// depends on what the same pass placed earlier (spread or affinity
    /// constraints that can *open up* as the cluster fills), per-task
    /// state (retry counters, back-off timers), randomised admission, or
    /// a spec whose shape does not fit the key exactly. Mixing `Some`
    /// and `None` across tasks is fine; all unclassed tasks share one
    /// queue that is swept linearly.
    fn refusal_class(&self, _task: &TaskSpec) -> Option<u64> {
        None
    }

    /// Sorts a queue into the order of [`Scheduler::queue_cmp`] (stable, so
    /// ties keep their arrival order). Provided for external callers; the
    /// simulator itself maintains order incrementally.
    fn sort_queue(&self, queue: &mut Vec<TaskSpec>) {
        queue.sort_by(|a, b| self.queue_cmp(a, b));
    }

    /// Serializes the scheduler's *dynamic* state (feedback-loop
    /// accumulators, demand history — anything not rebuilt by the
    /// scheduler's constructor) for a service snapshot. `None` declares
    /// the scheduler stateless: every decision is a pure function of the
    /// cluster view, so crash recovery only needs to re-run the
    /// constructor. The default is `None`, which is correct for all
    /// baseline schedulers in the workspace; GFS overrides it.
    fn save_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`Scheduler::save_state`] into a
    /// freshly-constructed scheduler. Returns `false` when the blob is
    /// not recognized (wrong scheduler, corrupted snapshot); the default
    /// accepts nothing, matching the default `save_state` of `None`.
    fn restore_state(&mut self, _state: &str) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        let d = Decision::place(vec![NodeId::new(1), NodeId::new(1)]);
        assert!(!d.is_preemptive());
        let p = Decision {
            pod_nodes: vec![NodeId::new(0)],
            preemptions: vec![TaskId::new(9)],
        };
        assert!(p.is_preemptive());
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        struct Never;
        impl Scheduler for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn schedule(&mut self, _: &TaskSpec, _: &Cluster, _: SimTime) -> Option<Decision> {
                None
            }
        }
        let mut s: Box<dyn Scheduler> = Box::new(Never);
        let cluster = Cluster::homogeneous(1, gfs_types::GpuModel::A100, 8);
        let task = TaskSpec::builder(1).build().unwrap();
        assert!(s.schedule(&task, &cluster, SimTime::ZERO).is_none());
        assert_eq!(s.name(), "never");
    }
}
