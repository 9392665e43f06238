//! A single machine hosting several GPUs.
//!
//! Nodes track per-card occupancy (supporting both whole-card and
//! fractional allocations), cached per-priority totals, and timestamped
//! eviction and failure histories ([`TimeLog`]) powering the
//! eviction-awareness score (Eq. 15–16), the circuit-breaker and the
//! reliability term of churn-aware placement.

use std::collections::VecDeque;

use gfs_types::{
    Cards, Error, GpuDemand, GpuModel, NodeId, Priority, Result, SimDuration, SimTime, TaskId,
};
use serde::de::DeError;
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
    evictions: TimeLog,
    /// Timestamps of up→down transitions (abrupt failures and forced
    /// drain shutdowns), powering the reliability score of churn-aware
    /// placement. Unlike the eviction history this is *not* cleared on
    /// restore: a machine that keeps failing is exactly what the score
    /// must remember across repairs.
    failures: TimeLog,
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
            evictions: TimeLog::default(),
            failures: TimeLog::default(),
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
        self.evictions.0.clear();
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
        self.evictions.record(now);
    }

    /// The eviction history behind the Eq. 15–16 scores; restore clears
    /// it.
    #[must_use]
    pub fn evictions(&self) -> &TimeLog {
        &self.evictions
    }

    /// Records one up→down transition at `now` (abrupt failure or forced
    /// drain shutdown). Called by [`Cluster`](crate::Cluster) from
    /// `fail_node`; survives restore — see [`Node::failures`].
    pub(crate) fn record_failure(&mut self, now: SimTime) {
        self.failures.record(now);
    }

    /// The up→down transitions behind the reliability term of
    /// churn-aware placement. The history survives repair (a flaky
    /// machine stays flaky in the score), in deliberate contrast to the
    /// eviction history, which restore clears.
    #[must_use]
    pub fn failures(&self) -> &TimeLog {
        &self.failures
    }

    /// Exponentially-decayed failure rate: every failure in the retained
    /// history contributes `2^(−age/half_life)`, so a failure loses half
    /// its weight every `half_life_secs`. Unlike a hard
    /// [`TimeLog::within`] window this never forgets abruptly — a
    /// machine that failed yesterday scores worse than one that failed
    /// last week, which scores worse than one that never failed.
    #[must_use]
    pub fn decayed_failure_rate(&self, now: SimTime, half_life_secs: SimDuration) -> f64 {
        let hl = half_life_secs.max(1) as f64;
        self.failures
            .iter()
            .map(|t| (-(now.since(t) as f64) / hl).exp2())
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
            evictions: s.evictions,
            failures: s.failures,
            up: s.up,
            drain_deadline: s.drain_deadline,
        }
    }
}

/// A decoded [`Node`], ready for [`Node::from_snapshot`]. Decode-only:
/// the encoder writes the live node. Fields the node no longer keeps (the
/// lifetime failure and drain counters of older snapshots) are skipped.
#[derive(Debug, Deserialize)]
pub struct NodeSnapshot {
    id: NodeId,
    model: GpuModel,
    gpus: Vec<Gpu>,
    hp_alloc: Cards,
    spot_alloc: Cards,
    evictions: TimeLog,
    failures: TimeLog,
    up: bool,
    drain_deadline: Option<SimTime>,
}

/// A node's event history: timestamps in time order, each retired once
/// it is older than any plausible scoring window (7 days) relative to the
/// newest. One [`TimeLog::within`] query answers both what a windowed
/// score counts and how long that count holds.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
#[serde(transparent)]
pub struct TimeLog(VecDeque<SimTime>);

impl TimeLog {
    /// Appends `now`, which must not precede the newest entry, and
    /// retires the entries older than 7 days.
    pub(crate) fn record(&mut self, now: SimTime) {
        debug_assert!(
            self.0.back().is_none_or(|&last| last <= now),
            "history recorded out of time order: {now:?} after {:?}",
            self.0.back()
        );
        self.0.push_back(now);
        let horizon = 7 * gfs_types::SECONDS_PER_DAY;
        while self.0.front().is_some_and(|&t| now.since(t) > horizon) {
            self.0.pop_front();
        }
    }

    /// The entries within the last `window` seconds of `now` — those with
    /// `now.since(t) ≤ window`, so the boundary is inclusive and an entry
    /// after `now` counts — and the last instant that count holds under
    /// pure aging: the oldest counted entry plus `window` (saturating),
    /// after which it leaves. `None` when nothing is counted: the count
    /// then holds until the next record. The counted entries are a suffix
    /// of the sorted log, so this is one binary search.
    #[must_use]
    pub fn within(&self, now: SimTime, window: SimDuration) -> (usize, Option<SimTime>) {
        let first = self.0.partition_point(|&t| now.since(t) > window);
        let until = self.0.get(first).map(|t| t.saturating_add(window));
        (self.0.len() - first, until)
    }

    /// The entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.0.iter().copied()
    }
}

/// Snapshots come from outside the program, and [`TimeLog::within`]
/// relies on the time order, so a log out of order does not decode.
impl Deserialize for TimeLog {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> std::result::Result<Self, DeError> {
        let log = Vec::<SimTime>::deserialize_json(p)?;
        if let Some(w) = log.windows(2).find(|w| w[0] > w[1]) {
            return Err(DeError::msg(format!(
                "history out of time order: {:?} before {:?}",
                w[0], w[1]
            )));
        }
        Ok(TimeLog(log.into()))
    }
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
        let count = |w| n.evictions().within(now, w).0;
        assert_eq!(count(gfs_types::HOUR), 1);
        // the window boundary is inclusive: the hour-1 eviction is exactly
        // 24 h old at now = 25 h
        assert_eq!(count(24 * gfs_types::HOUR), 3);
        assert_eq!(count(23 * gfs_types::HOUR), 2);
        assert_eq!(count(48 * gfs_types::HOUR), 3);
    }

    #[test]
    fn eviction_history_is_bounded() {
        let mut n = node();
        for h in 0..1_000 {
            n.record_eviction(SimTime::from_hours(h));
        }
        // entries older than 7 days get retired
        let (count, _) = n.evictions().within(SimTime::from_hours(999), u64::MAX);
        assert!(count <= 7 * 24 + 1);
    }

    #[test]
    fn window_count_holds_through_the_inclusive_edge() {
        let mut log = TimeLog::default();
        let (tf, window) = (SimTime::from_secs(1_000), 500);
        assert_eq!(log.within(tf, window), (0, None));
        log.record(tf);
        log.record(SimTime::from_secs(1_200));
        // the older entry leaves first, and only *after* tf + window
        let edge = SimTime::from_secs(1_500);
        assert_eq!(log.within(tf, window), (2, Some(edge)));
        assert_eq!(log.within(edge, window), (2, Some(edge)));
        let after = SimTime::from_secs(1_501);
        assert_eq!(
            log.within(after, window),
            (1, Some(SimTime::from_secs(1_700)))
        );
        assert_eq!(log.within(SimTime::from_secs(1_701), window), (0, None));
        // a query before the log still counts every entry
        assert_eq!(log.within(SimTime::ZERO, window), (2, Some(edge)));
    }

    #[test]
    fn failure_history_is_bounded() {
        let mut n = node();
        for h in 0..1_000 {
            n.record_failure(SimTime::from_hours(h));
        }
        let (count, _) = n.failures().within(SimTime::from_hours(999), u64::MAX);
        assert!(count <= 7 * 24 + 1);
        assert_eq!(n.failures().within(SimTime::from_hours(999), 0).0, 1);
    }

    #[test]
    fn out_of_order_history_does_not_decode() {
        let parse = |json: &str| TimeLog::deserialize_json(&mut serde::de::Parser::new(json));
        assert_eq!(
            parse("[3,5,5,9]").map(|log| log.iter().collect::<Vec<_>>()),
            Ok([3, 5, 5, 9].map(SimTime::from_secs).to_vec())
        );
        assert!(parse("[3,9,5]").is_err());
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
