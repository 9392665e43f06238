//! Spot Quota Allocator (§3.3): converts demand forecasts into a
//! time-varying spot GPU quota with an eviction-aware feedback loop.
//!
//! * GPU inventory (Eq. 9): `f(p,H) = max(0, C − Σ_o max ŷ_o|p[1..H])`.
//!   (The paper prints `C − max(C, Σ…)`, which is never positive; per the
//!   accompanying prose — "when the aggregated demand exceeds C, we set
//!   f(p,H) = 0" — the intended form is the clamped difference.)
//! * Quota (Eq. 10): `Q_H = min(f(p,H)·η, S₀ + Sₐ)`.
//! * Safety coefficient update (Eq. 11) from the realised eviction rate
//!   `e` and the maximum spot queuing time `l` over the last `H` hours.
//!   `l` covers tasks *still waiting* as well as recent starts — otherwise
//!   a collapsed quota would suppress the very signal (long queues) that
//!   Eq. 11 uses to recover.

use std::collections::{BTreeMap, VecDeque};

use gfs_cluster::Cluster;
use gfs_types::{EtaUpdateRule, GfsParams, SimDuration, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// Minimum number of spot outcomes (starts + evictions) in the feedback
/// window before the eviction-rate rule of Eq. 11 is trusted; avoids `η`
/// collapsing on a single unlucky eviction.
const MIN_FEEDBACK_SAMPLES: usize = 5;

/// The spot quota controller.
#[derive(Debug, Clone)]
pub struct SpotQuotaAllocator {
    params: GfsParams,
    eta: f64,
    quota: f64,
    evictions: VecDeque<SimTime>,
    spot_starts: VecDeque<(SimTime, SimDuration)>, // (start, queued_secs)
    waiting: BTreeMap<TaskId, SimTime>,            // spot tasks in the queue
    /// Aggregated demand upper bound of the last [`Self::update`]; reused
    /// by [`Self::refresh_capacity`] between quota ticks.
    last_upper: f64,
    /// Whether [`Self::update`] has ever run — before the first forecast
    /// the quota must stay at zero, whatever else happens.
    updated: bool,
}

/// The dynamic state of a [`SpotQuotaAllocator`] — everything its feedback
/// loop has accumulated since construction, in a serializable shape. The
/// configured [`GfsParams`] are deliberately excluded: a restore always
/// happens into an allocator rebuilt by the same scheduler factory, which
/// supplies them. The waiting set is keyed and sorted by task id so the
/// JSON encoding is canonical — the live `BTreeMap` already iterates in
/// that order (it was a `HashMap` until the det-iter lint flagged its
/// iteration sites as replay-determinism hazards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SqaState {
    eta: f64,
    quota: f64,
    evictions: Vec<SimTime>,
    spot_starts: Vec<(SimTime, SimDuration)>,
    waiting: Vec<(TaskId, SimTime)>,
    last_upper: f64,
    updated: bool,
}

impl SpotQuotaAllocator {
    /// Captures the allocator's dynamic state for a service snapshot.
    #[must_use]
    pub fn save_state(&self) -> SqaState {
        let waiting: Vec<(TaskId, SimTime)> =
            self.waiting.iter().map(|(&t, &at)| (t, at)).collect();
        SqaState {
            eta: self.eta,
            quota: self.quota,
            evictions: self.evictions.iter().copied().collect(),
            spot_starts: self.spot_starts.iter().copied().collect(),
            waiting,
            last_upper: self.last_upper,
            updated: self.updated,
        }
    }

    /// Overwrites the allocator's dynamic state with a captured
    /// [`SqaState`] (parameters keep their constructed values).
    pub fn restore_state(&mut self, s: SqaState) {
        self.eta = s.eta;
        self.quota = s.quota;
        self.evictions = s.evictions.into();
        self.spot_starts = s.spot_starts.into();
        self.waiting = s.waiting.into_iter().collect();
        self.last_upper = s.last_upper;
        self.updated = s.updated;
    }

    /// Creates the allocator with `η = η₀` and zero quota (no spot task is
    /// admitted until the first update).
    #[must_use]
    pub fn new(params: GfsParams) -> Self {
        SpotQuotaAllocator {
            eta: params.eta_initial,
            params,
            quota: 0.0,
            evictions: VecDeque::new(),
            spot_starts: VecDeque::new(),
            waiting: BTreeMap::new(),
            last_upper: 0.0,
            updated: false,
        }
    }

    /// Current spot quota `Q_H` in GPUs.
    #[must_use]
    pub fn quota(&self) -> f64 {
        self.quota
    }

    /// Current safety coefficient `η`.
    #[must_use]
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Records a spot task entering the pending queue.
    pub fn record_spot_submitted(&mut self, task: TaskId, at: SimTime) {
        self.waiting.insert(task, at);
    }

    /// Records one spot eviction (feeds the realised eviction rate `e`).
    /// The task re-enters the waiting set (it will be requeued).
    pub fn record_eviction(&mut self, task: TaskId, at: SimTime) {
        self.evictions.push_back(at);
        self.waiting.insert(task, at);
    }

    /// Records one spot run start and its queuing delay (feeds `e` and the
    /// max queuing time `l`).
    pub fn record_spot_start(&mut self, task: TaskId, at: SimTime, queued_secs: SimDuration) {
        self.waiting.remove(&task);
        self.spot_starts.push_back((at, queued_secs));
    }

    /// Records a spot task displaced by a node failure: it re-enters the
    /// waiting set (so the queue-pressure signal `l` of Eq. 11 sees it)
    /// but — unlike [`Self::record_eviction`] — does **not** count toward
    /// the realised eviction rate `e`: hardware churn is not preemption
    /// pressure, and letting it shrink `η` would starve spot admission
    /// exactly when displaced tasks need requeue capacity.
    pub fn record_displacement(&mut self, task: TaskId, at: SimTime) {
        self.waiting.insert(task, at);
    }

    /// Re-clamps the quota against the current cluster after a capacity
    /// change (node failure/recovery), reusing the last forecast. Without
    /// this, a quota computed against the pre-failure fleet would keep
    /// admitting spot tasks against GPUs that no longer exist until the
    /// next quota tick (up to 300 s of mis-scored capacity). A no-op
    /// before the first [`Self::update`]: with no forecast yet, the
    /// "zero quota until the first update" contract wins — a node event
    /// must not open the spot gate.
    pub fn refresh_capacity(&mut self, cluster: &Cluster) {
        if !self.updated {
            return;
        }
        let f = self.inventory(cluster, self.last_upper);
        let s0 = f64::from(cluster.idle_gpus(None));
        let sa = cluster.spot_allocated(None);
        self.quota = (f * self.eta).min(s0 + sa).max(0.0);
    }

    fn retire(&mut self, now: SimTime) {
        let window = self.params.guarantee_secs();
        while let Some(&t) = self.evictions.front() {
            if now.since(t) > window {
                self.evictions.pop_front();
            } else {
                break;
            }
        }
        while let Some(&(t, _)) = self.spot_starts.front() {
            if now.since(t) > window {
                self.spot_starts.pop_front();
            } else {
                break;
            }
        }
    }

    /// Realised eviction rate `e` over the last `H` hours:
    /// evictions / (evictions + successful starts).
    #[must_use]
    pub fn recent_eviction_rate(&self) -> f64 {
        let ev = self.evictions.len() as f64;
        let st = self.spot_starts.len() as f64;
        if ev + st == 0.0 {
            0.0
        } else {
            ev / (ev + st)
        }
    }

    /// Maximum spot queuing time `l` (seconds): the longest wait among
    /// recent starts and among tasks still queued at `now`.
    #[must_use]
    pub fn recent_max_queue_secs(&self, now: SimTime) -> SimDuration {
        let started = self.spot_starts.iter().map(|&(_, q)| q).max().unwrap_or(0);
        let waiting = self
            .waiting
            .values()
            .map(|&enq| now.since(enq))
            .max()
            .unwrap_or(0);
        started.max(waiting)
    }

    /// GPU inventory `f(p, H)` (Eq. 9) given the aggregated demand upper
    /// bound from the GDE.
    #[must_use]
    pub fn inventory(&self, cluster: &Cluster, aggregated_upper: f64) -> f64 {
        let c = cluster.capacity(None);
        (c - aggregated_upper).max(0.0)
    }

    /// Recomputes `η` (Eq. 11) and the quota `Q_H` (Eq. 10). Call at every
    /// quota-update interval with the freshest forecast.
    pub fn update(&mut self, now: SimTime, cluster: &Cluster, aggregated_upper: f64) {
        self.last_upper = aggregated_upper;
        self.updated = true;
        self.retire(now);
        if self.params.eta_rule == EtaUpdateRule::Adaptive {
            let p = self.params.guarantee_rate;
            // Eq. 11 interprets p as the tolerated eviction budget
            // (p = 0.9 guarantee ⇒ 10 % tolerated evictions)
            let budget = 1.0 - p;
            let e = self.recent_eviction_rate();
            let l = self.recent_max_queue_secs(now);
            let samples = self.evictions.len() + self.spot_starts.len();
            let mut adjusted = false;
            if e > 1.5 * budget && e > 0.0 && samples >= MIN_FEEDBACK_SAMPLES {
                self.eta *= budget / e;
                adjusted = true;
            } else if e < 0.5 * budget && l > self.params.max_jqt_threshold_secs {
                self.eta *= 1.5 - e / budget;
                adjusted = true;
            }
            if adjusted {
                // each outcome event drives at most one proportional step:
                // Eq. 11 applied every 300 s over a 1 h window would
                // otherwise re-shrink η twelve times for a single burst
                self.evictions.clear();
                self.spot_starts.clear();
            }
            let (lo, hi) = self.params.eta_bounds;
            self.eta = self.eta.clamp(lo, hi);
        }
        // the Eq. 10 clamp lives in refresh_capacity (shared with the
        // node-event path); last_upper/updated were set above
        self.refresh_capacity(cluster);
    }

    /// Quota check of Alg. 3: whether admitting `demand_gpus` more spot
    /// GPUs keeps the (exact) allocation within `Q_H`.
    #[must_use]
    pub fn admits(&self, cluster: &Cluster, demand_gpus: f64) -> bool {
        cluster.spot_allocated(None) + demand_gpus <= self.quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuModel, HOUR};

    fn params() -> GfsParams {
        GfsParams::default()
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(4, GpuModel::A100, 8) // 32 GPUs
    }

    fn id(i: u64) -> TaskId {
        TaskId::new(i)
    }

    #[test]
    fn inventory_clamps_at_zero() {
        let sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        assert_eq!(sqa.inventory(&c, 10.0), 22.0);
        assert_eq!(sqa.inventory(&c, 40.0), 0.0, "demand above capacity");
    }

    #[test]
    fn quota_capped_by_physical_availability() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        sqa.update(SimTime::ZERO, &c, 0.0);
        // f = 32, η = 1, S0 + Sa = 32
        assert!((sqa.quota() - 32.0).abs() < 1e-9);
        sqa.update(SimTime::ZERO, &c, 30.0);
        assert!((sqa.quota() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn admits_respects_quota() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        assert!(!sqa.admits(&c, 1.0), "zero quota before first update");
        sqa.update(SimTime::ZERO, &c, 24.0); // quota = 8
        assert!(sqa.admits(&c, 8.0));
        assert!(!sqa.admits(&c, 9.0));
    }

    #[test]
    fn high_eviction_shrinks_eta() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        let now = SimTime::from_hours(1);
        // 50% eviction rate >> 1.5 × 10% budget
        for i in 0..5 {
            sqa.record_eviction(id(i), now);
            sqa.record_spot_start(id(100 + i), now, 10);
        }
        sqa.update(now, &c, 0.0);
        assert!(
            (sqa.eta() - 0.2).abs() < 1e-9,
            "η ×= 0.1/0.5, got {}",
            sqa.eta()
        );
    }

    #[test]
    fn single_eviction_does_not_crash_eta() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        let now = SimTime::from_hours(1);
        sqa.record_eviction(id(1), now);
        sqa.record_spot_start(id(2), now, 10);
        sqa.update(now, &c, 0.0);
        assert_eq!(sqa.eta(), 1.0, "below the sample floor, η must hold");
    }

    #[test]
    fn low_eviction_long_queue_grows_eta() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        let now = SimTime::from_hours(1);
        // zero evictions, but an over-threshold queue wait
        sqa.record_spot_start(id(1), now, 2 * HOUR);
        sqa.update(now, &c, 0.0);
        assert!(
            (sqa.eta() - 1.5).abs() < 1e-9,
            "η ×= 1.5 − 0, got {}",
            sqa.eta()
        );
    }

    #[test]
    fn waiting_tasks_feed_queue_signal() {
        // the recovery deadlock regression test: nothing starts, but a task
        // waits past θ — η must still grow
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        sqa.record_spot_submitted(id(7), SimTime::ZERO);
        let later = SimTime::from_hours(2);
        assert_eq!(sqa.recent_max_queue_secs(later), 2 * HOUR);
        sqa.update(later, &c, 0.0);
        assert!(sqa.eta() > 1.0, "waiting task must trigger recovery");
        // once started, the waiting entry clears
        sqa.record_spot_start(id(7), later, 2 * HOUR);
        assert!(sqa.waiting.is_empty());
    }

    #[test]
    fn evicted_task_counts_as_waiting_again() {
        let mut sqa = SpotQuotaAllocator::new(params());
        sqa.record_spot_start(id(3), SimTime::ZERO, 0);
        sqa.record_eviction(id(3), SimTime::from_minutes(10));
        assert_eq!(
            sqa.recent_max_queue_secs(SimTime::from_minutes(40)),
            30 * 60,
            "requeued task has been waiting 30 minutes"
        );
    }

    #[test]
    fn eta_unchanged_in_dead_band() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        let now = SimTime::from_hours(1);
        // e = 10% = budget exactly: neither rule fires
        sqa.record_eviction(id(1), now);
        for i in 0..9 {
            sqa.record_spot_start(id(10 + i), now, 10);
        }
        sqa.update(now, &c, 0.0);
        assert_eq!(sqa.eta(), 1.0);
    }

    #[test]
    fn frozen_rule_never_moves_eta() {
        let p = GfsParams::builder()
            .eta_rule(EtaUpdateRule::Frozen)
            .build()
            .unwrap();
        let mut sqa = SpotQuotaAllocator::new(p);
        let c = cluster();
        let now = SimTime::from_hours(1);
        for i in 0..10 {
            sqa.record_eviction(id(i), now);
        }
        sqa.update(now, &c, 0.0);
        assert_eq!(sqa.eta(), 1.0, "GFS-d ablation keeps η fixed");
    }

    #[test]
    fn feedback_window_retires_old_events() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let c = cluster();
        sqa.record_eviction(id(1), SimTime::ZERO);
        sqa.record_spot_start(id(2), SimTime::ZERO, 10);
        // 2 hours later (H = 1 h window): both events retired
        sqa.update(SimTime::from_hours(2), &c, 0.0);
        assert_eq!(sqa.recent_eviction_rate(), 0.0);
        // task 1 is still waiting after its eviction though
        assert!(sqa.recent_max_queue_secs(SimTime::from_hours(2)) > 0);
    }

    #[test]
    fn refresh_before_first_update_keeps_quota_zero() {
        // a node event arriving before the first quota tick must not open
        // the spot gate: with no forecast yet, "zero quota until the
        // first update" wins
        let mut sqa = SpotQuotaAllocator::new(params());
        let mut c = cluster();
        c.fail_node(gfs_types::NodeId::new(0), SimTime::from_secs(10))
            .unwrap();
        sqa.refresh_capacity(&c);
        assert_eq!(sqa.quota(), 0.0);
        assert!(!sqa.admits(&c, 1.0));
    }

    #[test]
    fn refresh_capacity_reclamps_after_node_failure() {
        let mut sqa = SpotQuotaAllocator::new(params());
        let mut c = cluster();
        sqa.update(SimTime::ZERO, &c, 8.0); // f = 24, quota = 24
        assert!((sqa.quota() - 24.0).abs() < 1e-9);
        // half the fleet dies: the quota must shrink before the next tick
        c.fail_node(gfs_types::NodeId::new(0), SimTime::from_secs(10))
            .unwrap();
        c.fail_node(gfs_types::NodeId::new(1), SimTime::from_secs(10))
            .unwrap();
        sqa.refresh_capacity(&c);
        assert!(
            (sqa.quota() - 8.0).abs() < 1e-9,
            "16 − 8 forecast, got {}",
            sqa.quota()
        );
        assert!(!sqa.admits(&c, 9.0));
        // recovery restores the original quota (same forecast)
        c.restore_node(gfs_types::NodeId::new(0), SimTime::from_secs(20))
            .unwrap();
        c.restore_node(gfs_types::NodeId::new(1), SimTime::from_secs(20))
            .unwrap();
        sqa.refresh_capacity(&c);
        assert!((sqa.quota() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn displacement_feeds_queue_signal_but_not_eviction_rate() {
        let mut sqa = SpotQuotaAllocator::new(params());
        sqa.record_spot_start(id(1), SimTime::ZERO, 0);
        sqa.record_displacement(id(1), SimTime::from_minutes(5));
        assert_eq!(sqa.recent_eviction_rate(), 0.0, "churn is not preemption");
        assert_eq!(
            sqa.recent_max_queue_secs(SimTime::from_minutes(35)),
            30 * 60,
            "displaced task has been waiting since the failure"
        );
    }

    #[test]
    fn eta_respects_bounds() {
        let p = GfsParams::builder().eta_bounds(0.5, 2.0).build().unwrap();
        let mut sqa = SpotQuotaAllocator::new(p);
        let c = cluster();
        let now = SimTime::from_hours(1);
        for i in 0..100 {
            sqa.record_eviction(id(i), now);
        }
        sqa.update(now, &c, 0.0);
        assert_eq!(sqa.eta(), 0.5, "clamped at the lower bound");
    }
}
