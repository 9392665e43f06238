//! Cluster-timeline event flow: how failures, recoveries, maintenance
//! drains and scale-out travel through the stack, and the determinism
//! rules that keep dynamic runs reproducible.
//!
//! # Who emits, who consumes
//!
//! ```text
//!  DynamicsPlan (gfs_types)       the schedule: ClusterEvents sorted by
//!      │                          time — hand-built (validated), seeded
//!      │                          MTBF/MTTR, correlated FailureDomains,
//!      │                          rolling drains, autoscale steps; plans
//!      ▼  SimConfig::dynamics     compose via DynamicsPlan::merge
//!  engine (gfs_sim::run)          turns each ClusterEvent into a heap
//!      │                          event, processed in (time, seq) order
//!      │                          with the task events of the same instant
//!      ▼
//!  Cluster verbs (gfs_cluster)
//!    fail_node                    NodeDown: drains every pod through the
//!      │                          shared release path, removes the node's
//!      │                          CapacityIndex buckets atomically, keeps
//!      │                          the O(1) per-model totals exact
//!    drain_node                   Drain{notice}: placement keys and
//!      │                          capacity leave immediately; pods keep
//!      │                          running. The engine migrates gangs that
//!      │                          cannot finish inside the notice window
//!      │                          (migrate_task: graceful, no eviction
//!      │                          history) and schedules a deadline event
//!      │                          that forces the node down via fail_node
//!      │                          for whatever still runs
//!    restore_node                 NodeUp: a repaired node returns all-idle
//!      │                          with a clean eviction history; an Up
//!      │                          during a notice window *cancels* the
//!      │                          drain, pods untouched, history kept
//!    add_node                     AddNode{group}: mints the next
//!      │                          sequential NodeId, extends totals and
//!      │                          index structures, grows the per-node
//!      │                          sample vectors
//!      ▼
//!  engine requeue                 displaced *and* migrated tasks re-enter
//!      │                          the pending queue via the normal Requeue
//!      │                          path after the preemption grace period,
//!      │                          carrying their checkpointed progress
//!      ▼
//!  Scheduler::on_event            TaskEvent::Displaced per drained or
//!  (gfs_cluster → policies)       migrated task, then one of
//!                                 NodeDown/NodeUp/DrainNotice/NodeAdded;
//!                                 GFS re-clamps the SQA quota against the
//!                                 schedulable fleet immediately instead of
//!                                 waiting for the next 300 s tick
//! ```
//!
//! The report side records each forced displacement on the task
//! ([`crate::TaskRecord::displacements`]) and the run
//! ([`crate::SimReport::displacement_times`]), each graceful migration
//! likewise ([`crate::TaskRecord::migrations`],
//! [`crate::SimReport::migration_times`]), counts drain notices and
//! scale-out events ([`crate::SimReport::node_drains`],
//! [`crate::SimReport::nodes_added`], [`crate::SimReport::gpus_added`]),
//! and integrates down capacity over time into
//! [`crate::SimReport::unavailability`]; the scalar [`crate::RunSummary`]
//! carries `availability`, `displacement_count`, `displaced_mean_jct_s`,
//! `migration_count`, `node_drains` and `added_gpus` into the experiment
//! layer.
//!
//! # Drain and autoscale flow
//!
//! A `Drain { notice_secs }` event at `t` plays out in three acts:
//!
//! 1. **Notice (t).** [`Cluster::drain_node`](gfs_cluster::Cluster::drain_node)
//!    removes the node from every placement query and capacity total.
//!    Running tasks whose remaining work fits the notice window are left
//!    to finish; every other task with a pod on the node is *migrated* —
//!    gracefully released with its checkpointed progress and requeued
//!    through the normal path (it re-places anywhere on the cluster,
//!    typically long before the deadline). Schedulers then receive
//!    [`TaskEvent::DrainNotice`](gfs_cluster::TaskEvent::DrainNotice).
//! 2. **Window (t .. t+notice).** Pods that fit keep executing; the node
//!    accepts nothing new. An interleaved `NodeUp` cancels the drain —
//!    pods untouched, free cards return.
//! 3. **Deadline (t+notice).** Whatever still runs is forcibly displaced
//!    with exact [`fail_node`](gfs_cluster::Cluster::fail_node)
//!    accounting and the node goes down until its `NodeUp`.
//!
//! An `AddNode { group }` event mints a fresh node (the next sequential
//! id — plans never guess ids) that joins every capacity total, index
//! structure and, when enabled, the per-node allocation sample series.
//! Schedulers see [`TaskEvent::NodeAdded`](gfs_cluster::TaskEvent::NodeAdded).
//!
//! # Placement-policy flow (who sees which event when)
//!
//! Churn-aware schedulers close the loop the engine only *reacts* in: a
//! `gfs_sched::placement::PlacementPolicy` consumes the cluster-side
//! state the timeline leaves behind, at placement time, through O(1)
//! queries maintained incrementally by the verbs above:
//!
//! * `fail_node` records an up→down transition on the node
//!   ([`Node::failures_within`](gfs_cluster::Node::failures_within),
//!   [`Node::failure_count`](gfs_cluster::Node::failure_count),
//!   [`Node::time_since_failure`](gfs_cluster::Node::time_since_failure)).
//!   Unlike the eviction history, this *survives* `restore_node` — the
//!   reliability score exists precisely to remember flaky hardware across
//!   repairs.
//! * `drain_node` / `restore_node` / the drain-deadline `fail_node` keep
//!   a per-failure-domain draining count
//!   ([`Cluster::draining_in_domain`](gfs_cluster::Cluster::draining_in_domain))
//!   when a topology was declared
//!   ([`Cluster::set_failure_domains`](gfs_cluster::Cluster::set_failure_domains),
//!   [`Cluster::domain_of`](gfs_cluster::Cluster::domain_of)); drain
//!   avoidance reads it to steer new placements off racks mid-wave.
//! * the `TaskEvent` stream (above) still reaches `Scheduler::on_event`
//!   exactly as before; policies need no extra events — the queries are
//!   available inside every `Scheduler::schedule` call.
//!
//! The **drain notice** is the one decision point the scheduler now owns:
//! at a `Drain { notice }` event the engine asks
//! [`Scheduler::drain_decision`](gfs_cluster::Scheduler::drain_decision)
//! once per gang running on the node — *migrate now* (graceful release
//! with checkpointed progress, requeue after the grace period) or *stay*
//! (finish inside the window, or keep checkpointing until the forced
//! deadline displaces it). For policy-less schedulers the trait default
//! reproduces the engine's historical hard-wired rule — migrate exactly
//! the gangs that cannot finish inside the window — so every pre-policy
//! golden pin holds; the engine also still arms the deadline, forces the
//! shutdown through `fail_node` accounting, and requeues whatever the
//! decision left behind. A drain-aware policy
//! (`PlacementPolicy::churn_aware`) keeps a can't-finish gang in place
//! when the cluster has no idle cards of its model to receive it:
//! migrating into a full cluster forfeits the window's checkpointable
//! progress and buys nothing.
//!
//! # Determinism rules
//!
//! Dynamic runs obey the same byte-identical-reproduction contract as
//! static ones:
//!
//! * the [`DynamicsPlan`](gfs_types::DynamicsPlan) is pure data, fully
//!   determined by its inputs (no wall clock, no global RNG) — see the
//!   `gfs_types::cluster_event` docs. Independent churn draws from
//!   per-`(seed, node)` SplitMix64 streams; **correlated** failures draw
//!   from one per-`(seed, domain)` stream, so every node of a
//!   [`FailureDomain`](gfs_types::FailureDomain) fails and recovers
//!   together and the schedule is independent of how many events other
//!   domains produced. Drains and autoscale steps are closed-form;
//! * dynamics heap events are enqueued *after* all submit/tick/sample
//!   events, so an empty plan leaves the event sequence numbers — and
//!   therefore every scheduling outcome — exactly as they were before
//!   this subsystem existed (the zero-dynamics path is a strict no-op,
//!   pinned by the golden report tests);
//! * within one timestamp, events still process in insertion order and the
//!   scheduling pass runs once after the whole batch, so a task submitted
//!   at the instant a node dies (or a drain fires) sees the post-event
//!   cluster no matter which thread ran the cell;
//! * `fail_node` drains — and the engine migrates — tasks in ascending
//!   task-id order (the running registry is an ordered map), so
//!   displacement order, and the requeue order derived from it, never
//!   depends on map iteration order;
//! * node ids minted by `AddNode` are sequential in event order, so a
//!   scaled-out cluster is identical across thread counts.
//!
//! # Semantics choices
//!
//! * **Failures do not honour priorities.** HP gangs die with the node
//!   exactly like spot pods; both requeue with whatever progress their
//!   checkpoint plan preserved.
//! * **Displacement is not eviction, and migration is neither.** The
//!   eviction-rate feedback (Eq. 11), the per-node eviction history
//!   (Eq. 15–16) and the `F` counter (Eq. 18) model *preemption*
//!   behaviour; hardware churn or honoured maintenance notices feeding
//!   them would shrink the spot quota exactly when displaced tasks need
//!   to be re-admitted. All three counters are kept apart end to end.
//! * **A restored node starts clean; a drain-cancelled node does not.**
//!   Eviction history is cleared on repair — a machine back from the shop
//!   must not repel spot tasks because of pre-failure preemption pressure
//!   — but a cancelled drain repaired nothing, so history survives.
//! * **Draining capacity is unschedulable capacity.** The moment the
//!   notice lands, the node's cards leave `capacity()`/`idle_gpus()` and
//!   the quota clamp, because nothing new can ever land there; its
//!   still-running pods remain in the allocation totals, so
//!   `allocation_rate` may transiently exceed 1 during a notice window.
//!   Availability accounting, by contrast, counts the node as *available
//!   until the deadline* — it is still serving its pods.

use gfs_types::SimTime;
use serde::{Deserialize, Serialize};

/// Integrates lost capacity over time against a (possibly growing) static
/// fleet: feeds [`SimReport::unavailability`](crate::SimReport::unavailability)
/// (down GPU-seconds over static GPU-seconds of the run).
///
/// Serializable for service snapshots; the partially-accumulated integrals
/// are stored verbatim so a restored run closes them bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AvailabilityTracker {
    /// Static cards currently out of service.
    down_cards: f64,
    /// When `down_cards` last changed.
    since: SimTime,
    /// Accumulated down GPU-seconds.
    lost_gpu_secs: f64,
    /// Static cards currently installed (grows with scale-out).
    static_cards: f64,
    /// When `static_cards` last changed.
    static_since: SimTime,
    /// Accumulated static GPU-seconds (the denominator).
    static_gpu_secs: f64,
}

impl AvailabilityTracker {
    /// A tracker over a fleet of `static_cards` as built at t = 0.
    pub fn new(static_cards: f64) -> Self {
        AvailabilityTracker {
            down_cards: 0.0,
            since: SimTime::ZERO,
            lost_gpu_secs: 0.0,
            static_cards,
            static_since: SimTime::ZERO,
            static_gpu_secs: 0.0,
        }
    }

    /// Records a capacity change of `delta_cards` (negative = restored).
    pub fn change(&mut self, now: SimTime, delta_cards: f64) {
        self.lost_gpu_secs += self.down_cards * now.since(self.since) as f64;
        self.since = now;
        self.down_cards += delta_cards;
    }

    /// Records `delta_cards` of static capacity joining the fleet
    /// (scale-out). Availability from here on is judged against the
    /// larger denominator, time-weighted.
    pub fn add_static(&mut self, now: SimTime, delta_cards: f64) {
        self.static_gpu_secs += self.static_cards * now.since(self.static_since) as f64;
        self.static_since = now;
        self.static_cards += delta_cards;
    }

    /// Closes both integrals at `end` and returns the unavailability
    /// ratio (0.0 for a static, fault-free run). For runs without
    /// scale-out the denominator reduces to `static_cards × end` exactly,
    /// so fault-only results are bit-identical to the fixed-fleet
    /// formula.
    pub fn unavailability(mut self, end: SimTime) -> f64 {
        self.change(end, 0.0);
        self.static_gpu_secs += self.static_cards * end.since(self.static_since) as f64;
        if self.static_gpu_secs <= 0.0 {
            0.0
        } else {
            self.lost_gpu_secs / self.static_gpu_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_changes_means_full_availability() {
        let t = AvailabilityTracker::new(32.0);
        assert_eq!(t.unavailability(SimTime::from_hours(10)), 0.0);
    }

    #[test]
    fn integral_matches_hand_computation() {
        let mut t = AvailabilityTracker::new(32.0);
        // 8 cards down for 2 h of a 10 h run on a 32-card cluster
        t.change(SimTime::from_hours(3), 8.0);
        t.change(SimTime::from_hours(5), -8.0);
        let u = t.unavailability(SimTime::from_hours(10));
        assert!((u - (8.0 * 2.0) / (32.0 * 10.0)).abs() < 1e-12, "u = {u}");
    }

    #[test]
    fn overlapping_outages_accumulate() {
        let mut t = AvailabilityTracker::new(32.0);
        t.change(SimTime::from_hours(0), 8.0);
        t.change(SimTime::from_hours(1), 8.0); // second node joins the outage
        t.change(SimTime::from_hours(2), -16.0);
        let u = t.unavailability(SimTime::from_hours(4));
        assert!((u - (8.0 + 16.0) / (32.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_length_run_is_fully_available() {
        let t = AvailabilityTracker::new(32.0);
        assert_eq!(t.unavailability(SimTime::ZERO), 0.0);
    }

    #[test]
    fn scale_out_grows_the_denominator_time_weighted() {
        let mut t = AvailabilityTracker::new(32.0);
        // 8 cards join at h2 of a 4 h run: denominator = 32·2 + 40·2
        t.add_static(SimTime::from_hours(2), 8.0);
        // one original node (8 cards) down for the last hour
        t.change(SimTime::from_hours(3), 8.0);
        let u = t.unavailability(SimTime::from_hours(4));
        let expected = (8.0 * 1.0) / (32.0 * 2.0 + 40.0 * 2.0);
        assert!((u - expected).abs() < 1e-12, "u = {u}");
    }
}
