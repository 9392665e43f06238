//! A single machine hosting several GPUs.
//!
//! Nodes track per-card occupancy (supporting both whole-card and
//! fractional allocations), cached per-priority totals, and a timestamped
//! eviction history powering the eviction-awareness score (Eq. 15–16) and
//! the circuit-breaker.

use std::collections::VecDeque;

use gfs_types::{
    Cards, Error, GpuDemand, GpuModel, NodeId, Priority, Result, SimDuration, SimTime, TaskId,
};
use serde::{Deserialize, Serialize};

/// Occupancy of one GPU card.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gpu {
    free: Cards,
    shares: Vec<(TaskId, Cards)>,
}

impl Gpu {
    fn new() -> Self {
        Gpu {
            free: Cards::ONE,
            shares: Vec::new(),
        }
    }

    /// Unallocated share of the card, at most [`Cards::ONE`].
    #[must_use]
    pub fn free(&self) -> Cards {
        self.free
    }

    /// Whether the card is completely unallocated.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.free == Cards::ONE
    }
}

/// How a pod occupies GPUs on one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PodAlloc {
    /// The pod owns these whole cards.
    Whole(Vec<usize>),
    /// The pod owns a fraction of a single card.
    Fraction {
        /// Card index on the node.
        gpu: usize,
        /// Share of the card.
        amount: Cards,
    },
}

impl PodAlloc {
    /// GPU capacity represented by the allocation.
    #[must_use]
    pub fn cards(&self) -> Cards {
        match self {
            PodAlloc::Whole(v) => Cards::whole(v.len() as u32),
            PodAlloc::Fraction { amount, .. } => *amount,
        }
    }
}

/// A cluster node. Its JSON form is the node's full state — card
/// occupancy, allocation totals, the timestamped eviction/failure
/// histories and the up/draining flags — decoded as a [`NodeSnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct Node {
    id: NodeId,
    model: GpuModel,
    gpus: Vec<Gpu>,
    hp_alloc: Cards,
    spot_alloc: Cards,
    evictions: VecDeque<SimTime>,
    /// Timestamps of up→down transitions (abrupt failures and forced
    /// drain shutdowns), powering the reliability score of churn-aware
    /// placement. Unlike the eviction history this is *not* cleared on
    /// restore: a machine that keeps failing is exactly what the score
    /// must remember across repairs.
    failures: VecDeque<SimTime>,
    /// Monotonic count of up→down transitions over the node's lifetime.
    failure_total: u32,
    /// Exact time of the most recent up→down transition (independent of
    /// the windowed history's retirement).
    last_failure: Option<SimTime>,
    /// Monotonic count of maintenance-drain notices received.
    drain_total: u32,
    /// Whether the node is in service. A down node holds no allocations
    /// and reports zero idle/free capacity, so every placement scan skips
    /// it naturally; only [`Node::total_gpus`] keeps reporting the static
    /// card count (availability accounting needs it).
    up: bool,
    /// Forced-shutdown deadline of an in-progress maintenance drain. A
    /// draining node is still up (its pods keep running) but accepts no
    /// new placements and reports zero idle/free capacity, exactly like a
    /// down node from a scheduler's point of view.
    drain_deadline: Option<SimTime>,
}

impl Node {
    /// Creates an empty node with `num_gpus` cards of `model`.
    #[must_use]
    pub fn new(id: NodeId, model: GpuModel, num_gpus: u32) -> Self {
        Node {
            id,
            model,
            gpus: (0..num_gpus).map(|_| Gpu::new()).collect(),
            hp_alloc: Cards(0),
            spot_alloc: Cards(0),
            evictions: VecDeque::new(),
            failures: VecDeque::new(),
            failure_total: 0,
            last_failure: None,
            drain_total: 0,
            up: true,
            drain_deadline: None,
        }
    }

    /// Whether the node is in service (running pods keep a *draining*
    /// node up until its deadline).
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Whether the node is draining for maintenance.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.drain_deadline.is_some()
    }

    /// The forced-shutdown deadline of an in-progress drain.
    #[must_use]
    pub fn drain_deadline(&self) -> Option<SimTime> {
        self.drain_deadline
    }

    /// Whether the node can accept new placements: in service and not
    /// draining. Every capacity/placement query gates on this.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.up && self.drain_deadline.is_none()
    }

    /// Takes the node in or out of service. The caller
    /// ([`Cluster`](crate::Cluster)) is responsible for draining pods
    /// first and keeping the capacity index consistent.
    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Starts (`Some(deadline)`) or cancels (`None`) a maintenance drain.
    /// The caller ([`Cluster`](crate::Cluster)) keeps the capacity totals
    /// and index consistent around the transition.
    pub(crate) fn set_draining(&mut self, deadline: Option<SimTime>) {
        self.drain_deadline = deadline;
    }

    /// The ungated card scan backing [`Node::idle_gpus`]: cards that are
    /// physically unallocated, regardless of the up/draining state.
    #[must_use]
    pub(crate) fn physical_idle_gpus(&self) -> u32 {
        self.gpus.iter().filter(|g| g.is_idle()).count() as u32
    }

    /// Forgets the node's eviction history (called on restore: a machine
    /// returning from repair must not inherit the pre-failure eviction
    /// pressure that would mis-steer the Eq. 15–16 scores).
    pub(crate) fn clear_eviction_history(&mut self) {
        self.evictions.clear();
    }

    /// Node identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// GPU model of every card on this node.
    #[must_use]
    pub fn model(&self) -> GpuModel {
        self.model
    }

    /// Total number of cards.
    #[must_use]
    pub fn total_gpus(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Cards that are completely unallocated (0 while the node is down or
    /// draining — a drained card cannot host anything new).
    #[must_use]
    pub fn idle_gpus(&self) -> u32 {
        if !self.is_schedulable() {
            return 0;
        }
        self.physical_idle_gpus()
    }

    /// GPU capacity allocated to HP tasks.
    #[must_use]
    pub fn hp_allocated(&self) -> Cards {
        self.hp_alloc
    }

    /// GPU capacity allocated to spot tasks.
    #[must_use]
    pub fn spot_allocated(&self) -> Cards {
        self.spot_alloc
    }

    /// GPU capacity allocated in total.
    #[must_use]
    pub fn allocated(&self) -> Cards {
        self.hp_alloc + self.spot_alloc
    }

    /// Per-card occupancy view.
    #[must_use]
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }

    /// Whether a pod with the given demand could be placed right now
    /// (always false while the node is down or draining).
    #[must_use]
    pub fn can_fit(&self, demand: GpuDemand) -> bool {
        if !self.is_schedulable() {
            return false;
        }
        match demand {
            GpuDemand::Whole(n) => self.idle_gpus() >= n,
            GpuDemand::Fraction(f) => self.gpus.iter().any(|g| g.free >= f),
        }
    }

    /// Places one pod of `task` on this node, choosing concrete cards:
    /// whole-card pods take idle cards; fractional pods bin-pack onto the
    /// *most loaded* card that still fits (best-fit, limiting fragmentation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Capacity`] if the demand does not fit.
    pub fn place_pod(
        &mut self,
        task: TaskId,
        demand: GpuDemand,
        priority: Priority,
    ) -> Result<PodAlloc> {
        if !self.is_schedulable() {
            return Err(Error::Capacity(format!(
                "{} is {}",
                self.id,
                if self.up { "draining" } else { "down" }
            )));
        }
        let alloc = match demand {
            GpuDemand::Whole(n) => {
                let idle: Vec<usize> = self
                    .gpus
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.is_idle())
                    .map(|(i, _)| i)
                    .take(n as usize)
                    .collect();
                if idle.len() < n as usize {
                    return Err(Error::Capacity(format!(
                        "{}: {} idle GPUs, pod needs {n}",
                        self.id,
                        self.idle_gpus()
                    )));
                }
                for &i in &idle {
                    self.gpus[i].free = Cards(0);
                    self.gpus[i].shares.push((task, Cards::ONE));
                }
                PodAlloc::Whole(idle)
            }
            GpuDemand::Fraction(f) => {
                let best = self
                    .gpus
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.free >= f)
                    .min_by_key(|(_, g)| g.free)
                    .map(|(i, _)| i);
                let Some(i) = best else {
                    return Err(Error::Capacity(format!(
                        "{}: no card has {f:?} free",
                        self.id
                    )));
                };
                self.gpus[i].free -= f;
                self.gpus[i].shares.push((task, f));
                PodAlloc::Fraction { gpu: i, amount: f }
            }
        };
        let cards = alloc.cards();
        match priority {
            Priority::Hp => self.hp_alloc += cards,
            Priority::Spot => self.spot_alloc += cards,
        }
        Ok(alloc)
    }

    /// Releases a previously placed pod.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if the task holds no matching share.
    pub fn release_pod(
        &mut self,
        task: TaskId,
        alloc: &PodAlloc,
        priority: Priority,
    ) -> Result<()> {
        match alloc {
            PodAlloc::Whole(cards) => {
                for &i in cards {
                    let gpu = self
                        .gpus
                        .get_mut(i)
                        .ok_or_else(|| Error::NotFound(format!("gpu {i} on {}", self.id)))?;
                    let pos = gpu
                        .shares
                        .iter()
                        .position(|(t, _)| *t == task)
                        .ok_or_else(|| Error::NotFound(format!("{task} share on gpu {i}")))?;
                    gpu.shares.remove(pos);
                    gpu.free = Cards::ONE;
                }
            }
            PodAlloc::Fraction { gpu, amount } => {
                let g = self
                    .gpus
                    .get_mut(*gpu)
                    .ok_or_else(|| Error::NotFound(format!("gpu {gpu} on {}", self.id)))?;
                let pos = g
                    .shares
                    .iter()
                    .position(|&share| share == (task, *amount))
                    .ok_or_else(|| Error::NotFound(format!("{task} share on gpu {gpu}")))?;
                g.shares.remove(pos);
                g.free += *amount;
            }
        }
        let cards = alloc.cards();
        match priority {
            Priority::Hp => self.hp_alloc -= cards,
            Priority::Spot => self.spot_alloc -= cards,
        }
        Ok(())
    }

    /// Records one eviction event at `now`.
    pub fn record_eviction(&mut self, now: SimTime) {
        record_timestamped(&mut self.evictions, now);
    }

    /// Number of evictions recorded in the last `window` seconds.
    #[must_use]
    pub fn evictions_within(&self, now: SimTime, window: SimDuration) -> usize {
        count_within(&self.evictions, now, window)
    }

    /// The earliest future time at which some `evictions_within(now, w)`
    /// count for `w ∈ windows` will change by pure aging — i.e. the last
    /// instant the current counts are still valid (`count_within` uses an
    /// inclusive boundary, so an eviction at `tₑ` leaves a window `w` when
    /// `now > tₑ + w`). `None` when no logged eviction sits inside any of
    /// the windows: the counts are stable until the next mutation. Score
    /// caches use this to schedule eviction-window-aware invalidation.
    #[must_use]
    pub fn eviction_score_valid_until(
        &self,
        now: SimTime,
        windows: &[SimDuration],
    ) -> Option<SimTime> {
        let mut edge: Option<u64> = None;
        for &te in &self.evictions {
            for &w in windows {
                if now.since(te) <= w {
                    let leave = te.as_secs() + w;
                    if edge.is_none_or(|e| leave < e) {
                        edge = Some(leave);
                    }
                }
            }
        }
        edge.map(SimTime::from_secs)
    }

    /// Records one up→down transition at `now` (abrupt failure or forced
    /// drain shutdown). Called by [`Cluster`](crate::Cluster) from
    /// `fail_node`; survives restore — see [`Node::failures_within`].
    pub(crate) fn record_failure(&mut self, now: SimTime) {
        self.failure_total = self.failure_total.saturating_add(1);
        self.last_failure = Some(now);
        record_timestamped(&mut self.failures, now);
    }

    /// Records one maintenance-drain notice.
    pub(crate) fn record_drain(&mut self) {
        self.drain_total = self.drain_total.saturating_add(1);
    }

    /// Number of up→down transitions within the last `window` seconds —
    /// the failure analogue of [`Node::evictions_within`], feeding the
    /// reliability term of churn-aware placement. The history survives
    /// repair (a flaky machine stays flaky in the score), in deliberate
    /// contrast to the eviction history, which restore clears.
    #[must_use]
    pub fn failures_within(&self, now: SimTime, window: SimDuration) -> usize {
        count_within(&self.failures, now, window)
    }

    /// The last instant `failures_within(now, window)` keeps its current
    /// value under pure aging — the failure twin of
    /// [`Node::eviction_score_valid_until`], same inclusive boundary (a
    /// failure at `t_f` leaves the window when `now > t_f + window`).
    /// `None` when no logged failure sits inside the window.
    #[must_use]
    pub fn failure_score_valid_until(&self, now: SimTime, window: SimDuration) -> Option<SimTime> {
        let oldest = self
            .failures
            .iter()
            .filter(|&&tf| now.since(tf) <= window)
            .min()?;
        Some(SimTime::from_secs(oldest.as_secs() + window))
    }

    /// Lifetime count of up→down transitions (monotonic; unlike the
    /// windowed history this never retires entries).
    #[must_use]
    pub fn failure_count(&self) -> u32 {
        self.failure_total
    }

    /// Lifetime count of maintenance-drain notices received (monotonic).
    #[must_use]
    pub fn drain_count(&self) -> u32 {
        self.drain_total
    }

    /// When the node last went down, if it ever did (exact, independent
    /// of the windowed history's retirement).
    #[must_use]
    pub fn last_failure(&self) -> Option<SimTime> {
        self.last_failure
    }

    /// Seconds since the node last went down (`None` for a node that
    /// never failed) — an O(1) placement-time freshness query.
    #[must_use]
    pub fn time_since_failure(&self, now: SimTime) -> Option<SimDuration> {
        self.last_failure().map(|t| now.since(t))
    }

    /// Exponentially-decayed failure rate: every failure in the retained
    /// history contributes `2^(−age/half_life)`, so a failure loses half
    /// its weight every `half_life_secs`. Unlike the hard
    /// [`Node::failures_within`] window this never forgets abruptly — a
    /// machine that failed yesterday scores worse than one that failed
    /// last week, which scores worse than one that never failed.
    #[must_use]
    pub fn decayed_failure_rate(&self, now: SimTime, half_life_secs: SimDuration) -> f64 {
        let hl = half_life_secs.max(1) as f64;
        self.failures
            .iter()
            .map(|&t| (-(now.since(t) as f64) / hl).exp2())
            .sum()
    }

    /// Rebuilds a node from its decoded JSON form: every field, including
    /// the incrementally accumulated allocation totals, is restored
    /// verbatim rather than recomputed, so a restored node is
    /// bit-identical to the captured one.
    #[must_use]
    pub fn from_snapshot(s: NodeSnapshot) -> Node {
        Node {
            id: s.id,
            model: s.model,
            gpus: s.gpus,
            hp_alloc: s.hp_alloc,
            spot_alloc: s.spot_alloc,
            evictions: s.evictions.into(),
            failures: s.failures.into(),
            failure_total: s.failure_total,
            last_failure: s.last_failure,
            drain_total: s.drain_total,
            up: s.up,
            drain_deadline: s.drain_deadline,
        }
    }
}

/// A decoded [`Node`], ready for [`Node::from_snapshot`]. Decode-only:
/// the encoder writes the live node.
#[derive(Debug, Deserialize)]
pub struct NodeSnapshot {
    id: NodeId,
    model: GpuModel,
    gpus: Vec<Gpu>,
    hp_alloc: Cards,
    spot_alloc: Cards,
    evictions: Vec<SimTime>,
    failures: Vec<SimTime>,
    failure_total: u32,
    last_failure: Option<SimTime>,
    drain_total: u32,
    up: bool,
    drain_deadline: Option<SimTime>,
}

/// Appends `now` to a timestamped event log and retires entries older
/// than any plausible scoring window (7 days) — the shared bound of the
/// eviction and failure histories. Lifetime counters that must never
/// retire ([`Node::failure_count`]) are kept separately by the caller.
fn record_timestamped(log: &mut VecDeque<SimTime>, now: SimTime) {
    log.push_back(now);
    let horizon = 7 * gfs_types::SECONDS_PER_DAY;
    while let Some(&front) = log.front() {
        if now.since(front) > horizon {
            log.pop_front();
        } else {
            break;
        }
    }
}

/// Events in `log` within the last `window` seconds (inclusive boundary).
fn count_within(log: &VecDeque<SimTime>, now: SimTime, window: SimDuration) -> usize {
    log.iter().filter(|&&t| now.since(t) <= window).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId::new(0), GpuModel::A100, 8)
    }

    #[test]
    fn whole_card_place_and_release() {
        let mut n = node();
        let t = TaskId::new(1);
        let a = n.place_pod(t, GpuDemand::whole(3), Priority::Hp).unwrap();
        assert_eq!(n.idle_gpus(), 5);
        assert_eq!(n.hp_allocated(), Cards::whole(3));
        n.release_pod(t, &a, Priority::Hp).unwrap();
        assert_eq!(n.idle_gpus(), 8);
        assert_eq!(n.hp_allocated(), Cards(0));
    }

    #[test]
    fn rejects_oversized_pod() {
        let mut n = node();
        n.place_pod(TaskId::new(1), GpuDemand::whole(6), Priority::Hp)
            .unwrap();
        let err = n.place_pod(TaskId::new(2), GpuDemand::whole(3), Priority::Spot);
        assert!(err.is_err());
        assert!(n.can_fit(GpuDemand::whole(2)));
        assert!(!n.can_fit(GpuDemand::whole(3)));
    }

    #[test]
    fn fractional_best_fit_packs_tightly() {
        let mut n = node();
        let a = n
            .place_pod(
                TaskId::new(1),
                GpuDemand::fraction(0.5).unwrap(),
                Priority::Spot,
            )
            .unwrap();
        let b = n
            .place_pod(
                TaskId::new(2),
                GpuDemand::fraction(0.3).unwrap(),
                Priority::Spot,
            )
            .unwrap();
        // second share lands on the same, already-loaded card
        match (&a, &b) {
            (PodAlloc::Fraction { gpu: g1, .. }, PodAlloc::Fraction { gpu: g2, .. }) => {
                assert_eq!(g1, g2, "best fit should co-locate fractions");
            }
            other => panic!("unexpected allocs {other:?}"),
        }
        assert_eq!(n.idle_gpus(), 7);
        assert_eq!(n.spot_allocated(), Cards(800));
    }

    #[test]
    fn fractional_release_restores_capacity() {
        let mut n = node();
        let f = GpuDemand::fraction(0.25).unwrap();
        let a = n.place_pod(TaskId::new(9), f, Priority::Spot).unwrap();
        n.release_pod(TaskId::new(9), &a, Priority::Spot).unwrap();
        assert_eq!(n.idle_gpus(), 8);
        assert!(n.gpus().iter().all(|g| g.free() == Cards::ONE));
        assert_eq!(n.allocated(), Cards(0));
    }

    #[test]
    fn release_unknown_share_errors() {
        let mut n = node();
        let a = PodAlloc::Whole(vec![0]);
        assert!(n.release_pod(TaskId::new(5), &a, Priority::Hp).is_err());
    }

    #[test]
    fn eviction_window_counts() {
        let mut n = node();
        n.record_eviction(SimTime::from_hours(1));
        n.record_eviction(SimTime::from_hours(10));
        n.record_eviction(SimTime::from_hours(24));
        let now = SimTime::from_hours(25);
        assert_eq!(n.evictions_within(now, gfs_types::HOUR), 1);
        // the window boundary is inclusive: the hour-1 eviction is exactly
        // 24 h old at now = 25 h
        assert_eq!(n.evictions_within(now, 24 * gfs_types::HOUR), 3);
        assert_eq!(n.evictions_within(now, 23 * gfs_types::HOUR), 2);
        assert_eq!(n.evictions_within(now, 48 * gfs_types::HOUR), 3);
    }

    #[test]
    fn eviction_history_is_bounded() {
        let mut n = node();
        for h in 0..1_000 {
            n.record_eviction(SimTime::from_hours(h));
        }
        // entries older than 7 days get retired
        assert!(n.evictions_within(SimTime::from_hours(999), u64::MAX) <= 7 * 24 + 1);
    }

    #[test]
    fn failure_history_counts_and_freshness() {
        let mut n = node();
        assert_eq!(n.failure_count(), 0);
        assert!(n.last_failure().is_none());
        assert!(n.time_since_failure(SimTime::from_hours(1)).is_none());
        n.record_failure(SimTime::from_hours(1));
        n.record_failure(SimTime::from_hours(30));
        assert_eq!(n.failure_count(), 2);
        let now = SimTime::from_hours(31);
        assert_eq!(n.failures_within(now, gfs_types::HOUR * 2), 1);
        assert_eq!(n.failures_within(now, 40 * gfs_types::HOUR), 2);
        assert_eq!(n.last_failure(), Some(SimTime::from_hours(30)));
        assert_eq!(n.time_since_failure(now), Some(gfs_types::HOUR));
        n.record_drain();
        assert_eq!(n.drain_count(), 1);
    }

    #[test]
    fn failure_count_is_valid_through_the_inclusive_window_edge() {
        let mut n = node();
        let (tf, window) = (SimTime::from_secs(1_000), 500);
        assert_eq!(n.failure_score_valid_until(tf, window), None);
        n.record_failure(tf);
        n.record_failure(SimTime::from_secs(1_200));
        // the older failure leaves first, and only *after* tf + window
        let edge = SimTime::from_secs(1_500);
        assert_eq!(n.failure_score_valid_until(tf, window), Some(edge));
        assert_eq!(n.failures_within(edge, window), 2);
        assert_eq!(n.failure_score_valid_until(edge, window), Some(edge));
        let after = SimTime::from_secs(1_501);
        assert_eq!(n.failures_within(after, window), 1);
        assert_eq!(
            n.failure_score_valid_until(after, window),
            Some(SimTime::from_secs(1_700))
        );
        assert_eq!(
            n.failure_score_valid_until(SimTime::from_secs(1_701), window),
            None
        );
    }

    #[test]
    fn failure_history_is_bounded_but_total_is_not() {
        let mut n = node();
        for h in 0..1_000 {
            n.record_failure(SimTime::from_hours(h));
        }
        assert!(n.failures_within(SimTime::from_hours(999), u64::MAX) <= 7 * 24 + 1);
        assert_eq!(
            n.failure_count(),
            1_000,
            "the lifetime counter never retires"
        );
        assert!(n.last_failure().is_some());
    }

    #[test]
    fn allocation_mixes_whole_and_fraction() {
        let mut n = node();
        n.place_pod(TaskId::new(1), GpuDemand::whole(2), Priority::Hp)
            .unwrap();
        n.place_pod(
            TaskId::new(2),
            GpuDemand::fraction(0.5).unwrap(),
            Priority::Spot,
        )
        .unwrap();
        let free: Cards = n.gpus().iter().map(Gpu::free).sum();
        assert_eq!(free, Cards(5_500));
        assert_eq!(n.allocated(), Cards(2_500));
    }
}
