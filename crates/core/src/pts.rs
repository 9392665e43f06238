//! Preemptive Task Scheduler (§3.4): the placement engine of GFS.
//!
//! Non-preemptive scheduling (Alg. 1) filters feasible nodes and ranks
//! them by the lexicographic score `<Score1, Score2, Score3>`:
//!
//! 1. **GPU packing** (Eq. 13) — prefer nearly-full nodes;
//! 2. **homogeneous co-location** (Eq. 14) — HP with HP, spot with spot;
//! 3. **eviction awareness** (Eq. 15–16) — spot avoids eviction-prone
//!    nodes (with a circuit breaker), HP seeks them.
//!
//! Preemptive scheduling (Alg. 2) virtually evicts spot tasks per node,
//! spares the highest-waste victims (Eq. 17), and places each HP pod on
//! the node with the lowest preemption cost (Eq. 18–19).
//!
//! Both algorithms run on the placement engine every scheduler shares,
//! and [`Pts::schedule`] is the one decision GFS and bare PTS make: Alg. 1,
//! then Alg. 2 for an HP task Alg. 1 cannot place. Alg. 1's order is
//! written once, as packed words: `Pts::node_key` leads the scores with
//! the [`PlacementPolicy`]'s `<hazard, drain>` and one helper splices in
//! the gang-spread count. The reference scan is one [`gang_nodes_by`] walk
//! on that key, and the `ScoreIndex` caches the same words to answer the
//! same order in O(log n). Alg. 2 is one plan on [`plan_preemption_by`],
//! which owns the gang's virtual-idle ledger.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;

use gfs_cluster::{Cluster, Decision, Node, RunningTask, SpotHolding};
use gfs_sched::placement::{
    gang_nodes_by, plan_preemption_by, plan_preemption_scan_by, DomainUse, PlacementPolicy,
};
use gfs_types::{
    Cards, GfsParams, GpuDemand, GpuModel, NodeId, Priority, SimTime, TaskId, TaskSpec, HOUR,
};

use crate::score_index::{Flavor, Key, ScoreIndex};

/// `<Score1, Score2, Score3>` of one candidate node (Eq. 13–16).
type Scores = (f64, f64, f64);

/// Which degradation (if any) to apply — the Table 10 ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PtsVariant {
    /// Full GFS scoring + waste-aware preemption.
    #[default]
    Full,
    /// `GFS-s`: non-preemptive scoring reduced to GPU packing only.
    SimpleScoring,
    /// `GFS-p`: preemptive module replaced by pseudo-random node/victim
    /// selection.
    RandomPreemption,
    /// `GFS-sp`: both degradations combined.
    Degraded,
}

impl PtsVariant {
    fn scoring_degraded(self) -> bool {
        matches!(self, PtsVariant::SimpleScoring | PtsVariant::Degraded)
    }

    fn preemption_degraded(self) -> bool {
        matches!(self, PtsVariant::RandomPreemption | PtsVariant::Degraded)
    }
}

/// The PTS placement engine.
#[derive(Debug, Clone)]
pub struct Pts {
    params: GfsParams,
    variant: PtsVariant,
    policy: PlacementPolicy,
    /// Cached per-node placement scores (see [`crate::score_index`]),
    /// synced lazily against the cluster's change log. Interior
    /// mutability keeps the long-pinned `&self` scheduling API; a
    /// `Pts` is owned by one scheduler on one simulation thread, so
    /// the dynamic borrow can never be contended.
    index: RefCell<ScoreIndex>,
    /// Passive Alg. 2 work counts ([`Pts::preempt_work`]).
    work: Cell<PreemptWork>,
}

impl Pts {
    /// Creates the engine with policy-less (naive) placement.
    #[must_use]
    pub fn new(params: GfsParams, variant: PtsVariant) -> Self {
        Pts::with_policy(params, variant, PlacementPolicy::naive())
    }

    /// Creates the engine with a churn [`PlacementPolicy`]: the policy's
    /// spread / drain-avoidance / reliability components lead the
    /// lexicographic node score, ahead of `<Score1, Score2, Score3>`, so
    /// a [`PlacementPolicy::naive`] engine decides bit-for-bit like one
    /// built by [`Pts::new`].
    #[must_use]
    pub fn with_policy(params: GfsParams, variant: PtsVariant, policy: PlacementPolicy) -> Self {
        // Alg. 2's victim-count bound rests on it (`Pts::schedule_preemptive`)
        debug_assert!(
            params.beta.is_finite() && params.beta >= 0.0,
            "beta must be finite and non-negative, got {}",
            params.beta
        );
        Pts {
            params,
            variant,
            policy,
            index: RefCell::new(ScoreIndex::default()),
            work: Cell::new(PreemptWork::default()),
        }
    }

    /// The active variant.
    #[must_use]
    pub fn variant(&self) -> PtsVariant {
        self.variant
    }

    /// The active churn policy.
    #[must_use]
    pub fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Full `<Score1, Score2, Score3>` for a candidate node (Eq. 13–16),
    /// or `None` when the circuit breaker blacklists it for a spot task.
    #[must_use]
    pub fn node_scores(
        &self,
        node: &Node,
        priority: Priority,
        now: SimTime,
    ) -> Option<(f64, f64, f64)> {
        self.scores(node, now).0[Flavor::of(priority) as usize]
    }

    /// [`Pts::node_scores`] for an HP and a spot task, and the last
    /// instant the windowed eviction counts behind `Score3` hold (`None`:
    /// until the next mutation). The degraded variants score packing
    /// alone, so nothing of theirs ages.
    fn scores(&self, node: &Node, now: SimTime) -> ([Option<Scores>; 2], Option<SimTime>) {
        let total = f64::from(node.total_gpus()).max(1.0);
        let s1 = 1.0 - f64::from(node.idle_gpus()) / total;
        if self.variant.scoring_degraded() {
            return ([Some((s1, 0.0, 0.0)); 2], None);
        }
        // the weighted node eviction rate ē (Eq. 15) and its penalty
        let p = &self.params;
        let (short, short_until) = node.evictions().within(now, p.eviction_window_short_secs);
        let (long, long_until) = node.evictions().within(now, p.eviction_window_long_secs);
        let t_long_hours = (p.eviction_window_long_secs / HOUR).max(1) as f64;
        let e_bar = p.gamma * short as f64 + (1.0 - p.gamma) * long as f64 / t_long_hours;
        let x = 0.01 * p.penalty_m * e_bar;
        // Eq. 16: HP seeks eviction-prone nodes, spot avoids them, and a
        // spot score of 0 trips the circuit breaker (§3.4.2)
        let hp = (s1, node.hp_allocated().as_f64() / total, x.min(1.0));
        let spot_s3 = (1.0 - x).max(0.0);
        let spot = (spot_s3 > 0.0).then(|| (s1, node.spot_allocated().as_f64() / total, spot_s3));
        let until = short_until.into_iter().chain(long_until).min();
        ([Some(hp), spot], until)
    }

    /// Alg. 1's keys of `node` without the gang-spread term, for an HP and
    /// a spot task: `<hazard, drain, Score1, Score2, Score3>` as words that
    /// order like the scores (module doc of `score_index`), `None` where
    /// [`Pts::node_scores`] excludes the node. With them comes the last
    /// instant both stay current without a cluster mutation: the earliest
    /// moment a windowed eviction or failure count behind them ages out
    /// (`None`: stable until the next mutation). The scan and the score
    /// index both rank by these keys.
    pub(crate) fn node_key(
        &self,
        cluster: &Cluster,
        node: &Node,
        now: SimTime,
    ) -> ([Option<Key>; 2], Option<SimTime>) {
        let (scores, evictions_until) = self.scores(node, now);
        let (hazard, hazard_until) = self.policy.hazard_component(cluster, node, now);
        let draining = -self.policy.drain_component(cluster, node.id());
        let keys = scores.map(|scores| {
            let (s1, s2, s3) = scores?;
            let [hazard, s1, s2, s3] = [hazard, s1, s2, s3].map(|v| {
                debug_assert!(v.is_finite() && v.is_sign_positive(), "key word {v}");
                v.to_bits()
            });
            Some([hazard, u64::MAX - draining as u64, s1, s2, s3])
        });
        // whichever count changes first
        (keys, evictions_until.into_iter().chain(hazard_until).min())
    }

    /// One decision as GFS and bare PTS make it: Alg. 1, then Alg. 2 for
    /// an HP task Alg. 1 cannot place.
    #[must_use]
    pub fn schedule(&self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        match self.schedule_nonpreemptive(task, cluster, now) {
            Some(nodes) => Some(Decision::place(nodes)),
            None if task.priority.is_hp() => self.schedule_preemptive(task, cluster, now),
            None => None,
        }
    }

    /// Non-preemptive scheduling (Alg. 1): one node per pod, or `None`.
    ///
    /// The [`PlacementPolicy`]'s components lead the per-candidate key
    /// lexicographically — reliability, then drain avoidance, then gang
    /// spread, then the paper's `<Score1, Score2, Score3>`; a component the
    /// preset leaves off is constant, so the comparison falls through to
    /// the native scores.
    ///
    /// Whole-card demand is answered from the `ScoreIndex` in O(log n)
    /// instead of scoring every feasible node, for every
    /// [`indexable`](PlacementPolicy::indexable) policy: the cached key is
    /// `Pts::node_key`, gang spread is resolved at query time (module
    /// doc of `score_index`), and debug builds check every indexed
    /// decision against the scan. Two cases keep the scan: fractional
    /// demand, and `hazard_aware`, whose decayed score is continuous in
    /// `now` — no deadline bounds a cached key, and the time-free
    /// factoring of the decayed sum is not bit-equal to the `Σ exp2` the
    /// scan computes.
    #[must_use]
    pub fn schedule_nonpreemptive(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        let g = match task.gpus_per_pod {
            GpuDemand::Whole(g) if self.policy.indexable() => g,
            _ => return self.schedule_nonpreemptive_scan(task, cluster, now),
        };
        let fast = self.schedule_whole_indexed(task, g, cluster, now);
        #[cfg(debug_assertions)]
        self.assert_matches_scan(&fast, task, cluster, now);
        fast
    }

    /// The index's oracle, compiled into every debug build: the scan must
    /// give the same answer.
    #[cfg(debug_assertions)]
    fn assert_matches_scan(
        &self,
        fast: &Option<Vec<NodeId>>,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) {
        let slow = self.schedule_nonpreemptive_scan(task, cluster, now);
        if *fast == slow {
            return;
        }
        let fast_nodes = fast.as_deref().unwrap_or_default();
        let slow_nodes = slow.as_deref().unwrap_or_default();
        let pod = (0..task.pods as usize)
            .find(|&k| fast_nodes.get(k) != slow_nodes.get(k))
            .unwrap_or(0);
        let index = self.index.borrow();
        let describe = |nodes: &[NodeId]| {
            nodes.get(pod).map_or_else(
                || "no node".to_owned(),
                |&id| index.cached_vs_fresh(self, cluster, id, task.priority, now),
            )
        };
        panic!(
            "index/scan divergence at {now:?} on {task:?}\n index {fast:?}\n scan  {slow:?}\n \
             pod {pod}: index chose {}\n pod {pod}: scan chose  {}",
            describe(fast_nodes),
            describe(slow_nodes),
        );
    }

    /// The reference implementation of Alg. 1: one
    /// [`gang_nodes_by`] walk that keys every feasible candidate per pod
    /// with `Pts::node_key` and its gang-spread count and takes the
    /// lexicographic max. O(n) per decision — kept for fractional demand,
    /// for `hazard_aware`, and as the oracle every indexed decision is
    /// checked against in debug builds.
    #[must_use]
    pub fn schedule_nonpreemptive_scan(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        let flavor = Flavor::of(task.priority) as usize;
        gang_nodes_by(cluster, task, |n, used| {
            let key = self.node_key(cluster, n, now).0[flavor]?;
            let in_domain = self.policy.spread_count(cluster, n.id(), used);
            Some(gang_key(key, in_domain))
        })
    }

    /// The indexed whole-card fast path: each pod's node is the winner
    /// of an O(log n) [`ScoreIndex`] query. Gang budgets (a pod may not
    /// overcommit cards its gang-mates already claimed) are handled by
    /// masking exhausted nodes out of the index for the duration of the
    /// call — scheduling never mutates the cluster, so the masked nodes
    /// re-enter exactly the buckets they left.
    fn schedule_whole_indexed(
        &self,
        task: &TaskSpec,
        g: u32,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        let mut index = self.index.borrow_mut();
        index.prepare(self, cluster, now);
        let flavor = Flavor::of(task.priority);
        if task.pods == 1 {
            // most tasks: no budget to track, nothing to mask
            let id = index.query(task.gpu_model, g, flavor)?;
            return Some(vec![NodeId::new(id)]);
        }
        let mut exhausted: Vec<u32> = Vec::new();
        let mut aside: Vec<u32> = Vec::new();
        let mut used_domains = DomainUse::new();
        let mut out = Vec::with_capacity(task.pods as usize);
        for _ in 0..task.pods {
            let mut best = None;
            while let Some(id) = index.query(task.gpu_model, g, flavor) {
                let node = NodeId::new(id);
                let in_domain = self.policy.spread_count(cluster, node, &used_domains);
                let cand = (gang_key(index.key(id, flavor), in_domain), Reverse(id));
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
                if in_domain == 0 {
                    break; // nothing still in the index can beat `best`
                }
                index.mask(id);
                aside.push(id);
            }
            for id in aside.drain(..) {
                index.unmask(cluster, id);
            }
            let Some((_, Reverse(id))) = best else {
                break;
            };
            out.push(NodeId::new(id));
            let claimed = g * out.iter().filter(|n| n.raw() == id).count() as u32;
            if cluster.nodes()[id as usize].idle_gpus() - claimed < g {
                index.mask(id);
                exhausted.push(id);
            }
            used_domains.note(PlacementPolicy::domain_key(cluster, NodeId::new(id)));
        }
        for id in exhausted {
            index.unmask(cluster, id);
        }
        (out.len() == task.pods as usize).then_some(out)
    }

    /// Preemption cost of a node plan (Eq. 19).
    #[must_use]
    pub fn preemption_cost(
        &self,
        cluster: &Cluster,
        victims_waste: f64,
        victim_count: usize,
        now: SimTime,
    ) -> f64 {
        let g = cluster.spot_completed() as f64;
        let f = cluster.spot_evicted() as f64;
        let gpu_time = cluster.capacity(None) * (now.as_secs().max(HOUR)) as f64;
        eviction_impact(g, f, victim_count) + self.params.beta * victims_waste / gpu_time
    }

    /// Exact counts of the Alg. 2 work this engine has done: calls, nodes
    /// visited, nodes that could host a pod and plans built in full. The
    /// counters are passive — no decision reads them — and the debug
    /// oracle's reference walk is not counted, so debug and release
    /// builds count alike.
    #[must_use]
    pub fn preempt_work(&self) -> PreemptWork {
        self.work.get()
    }

    /// Preemptive scheduling (Alg. 2) for an HP task: the chosen node per
    /// pod plus the global victim set, or `None` if infeasible even after
    /// virtually evicting every spot task. Both variants are plans on
    /// [`plan_preemption_by`]: Alg. 2 virtually evicts every spot task on
    /// a node, spares the highest-waste ones while the pod still fits, and
    /// ranks nodes by `(reliability, −cost)` (Eq. 17–19); `GFS-p` evicts
    /// in id-hash order and ranks nodes by hash.
    ///
    /// Both plans read only the capacity index: feasibility is `idle + Σ
    /// held ≥ need` over the node's [`SpotHolding`]s, which also carry
    /// each task's Eq. 17 waste, so no plan looks up the running registry.
    /// `GFS-p`'s rank is the node's own, so a node that cannot beat the
    /// best rank is skipped outright. Alg. 2 bounds the node before it
    /// prices a single victim: a plan that frees the pod evicts at least
    /// `k_min` tasks, the fewest whose holdings — largest first — cover
    /// the shortfall, and
    ///
    /// > `rank = (rel, −cost) ≤ (rel, −impact(k_min))`
    ///
    /// where `impact(k) = (f+k)/max(g+f+k, 1)` is the eviction-impact term
    /// of Eq. 19. The node is skipped when that bound is `≤` the best rank
    /// so far, because a node wins only with a strictly greater rank.
    /// The bound holds in floating point, not only over the reals:
    ///
    /// - `impact` is non-decreasing in `k` over the reals for `g, f ≥ 0`;
    ///   its operands are exact integers and division rounds correctly, so
    ///   the computed `impact(k) ≥ impact(k_min)` for every `k ≥ k_min`;
    /// - `β` is finite and `≥ 0` ([`GfsParams::validate`]) and the GPU-time
    ///   denominator is positive on any node that can be a candidate, so the
    ///   waste term `β·waste/gpu_time` is `≥ 0` whenever the computed waste
    ///   is, and adding it cannot round the cost below `impact(k)`;
    /// - with whole-card holdings every spot's waste `g·(t − t_check)` is
    ///   an integer of GPU-seconds, so the sum in sorted order and the
    ///   subtraction of the spared tasks are exact (below 2⁵³) and the
    ///   waste is the exact, non-negative waste of the victims. A validated
    ///   task with a fractional demand is a single pod holding 1–999
    ///   milli-cards, so a node with any holding that is not a whole number
    ///   of cards skips the bound and is always planned in full.
    ///
    /// Debug builds check every answer against
    /// [`Pts::schedule_preemptive_scan`], the reference walk.
    ///
    /// # Panics
    ///
    /// Debug-panics if called with a spot task (constraint 12c/12d).
    #[must_use]
    pub fn schedule_preemptive(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Decision> {
        debug_assert!(task.priority.is_hp(), "only HP tasks may preempt");
        let need = task.gpus_per_pod.cards();
        let mut work = self.work.get();
        work.calls += 1;
        // idle plus every evictable card, when that can host the pod
        let mut reclaimable = |idle: Cards, spots: &[SpotHolding]| {
            work.nodes_visited += 1;
            let total = idle + spots.iter().map(|h| h.cards).sum();
            if total < need {
                return None;
            }
            work.feasible += 1;
            Some(total)
        };
        let fast = if self.variant.preemption_degraded() {
            let mut order: Vec<SpotHolding> = Vec::new();
            plan_preemption_by(
                cluster,
                task,
                |c, victims| {
                    reclaimable(c.idle, c.spots)?;
                    // the rank is the node's alone: no plan can change it
                    let rank = Reverse(random_rank(task, c.node));
                    if c.best.is_some_and(|b| rank <= *b) {
                        return None;
                    }
                    work.plans_built += 1;
                    order.clear();
                    order.extend_from_slice(c.spots);
                    order.sort_by_key(|h| random_rank_of_victim(h.task, c.pod));
                    let mut idle = c.idle;
                    for h in &order {
                        if idle >= need {
                            break;
                        }
                        idle += h.cards;
                        victims.push(h.task);
                    }
                    Some(rank)
                },
                |_, _| false,
            )
        } else {
            let g = cluster.spot_completed() as f64;
            let f = cluster.spot_evicted() as f64;
            let mut sizes: Vec<Cards> = Vec::new();
            let mut order: Vec<(f64, TaskId, Cards)> = Vec::new();
            plan_preemption_by(
                cluster,
                task,
                |c, victims| {
                    let mut r = reclaimable(c.idle, c.spots)?;
                    // a flaky target loses to a dependable one before cost
                    // is consulted (Eq. 18 extended); the reliability is a
                    // constant 1.0 except under the decayed-reliability
                    // policy
                    let rel = self.policy.preemption_reliability(cluster, c.node, now);
                    if let Some(best) = c.best {
                        let bound = min_victims(c.idle, need, c.spots, &mut sizes)
                            .map(|k| (rel, -eviction_impact(g, f, k)));
                        if bound.is_some_and(|b| b <= *best) {
                            return None;
                        }
                    }
                    work.plans_built += 1;
                    // Alg. 2 lines 8–12: start from "evict everyone", then
                    // spare the highest-waste tasks while the pod still fits
                    order.clear();
                    order.extend(c.spots.iter().map(|h| (h.waste(now), h.task, h.cards)));
                    order.sort_by(|a, b| {
                        b.0.partial_cmp(&a.0)
                            .expect("waste is finite")
                            .then(a.1.cmp(&b.1))
                    });
                    let mut waste: f64 = order.iter().map(|&(w, ..)| w).sum();
                    for &(w, id, local) in &order {
                        if r >= need + local {
                            r -= local;
                            waste -= w;
                        } else {
                            victims.push(id);
                        }
                    }
                    let cost = self.preemption_cost(cluster, waste, victims.len(), now);
                    Some((rel, -cost))
                },
                // a zero-victim plan carries the global minimum cost (Eq.
                // 19 is monotone in victim count and waste) and later ties
                // lose to its lower id, so when its node also has the
                // greatest reliability, 1.0, nothing later can strictly win
                |victims, &(rel, _)| victims.is_empty() && rel == 1.0,
            )
        };
        self.work.set(work);
        #[cfg(debug_assertions)]
        assert_eq!(
            fast,
            self.schedule_preemptive_scan(task, cluster, now),
            "Alg. 2 walk diverged from the reference walk at {now:?} on {task:?}"
        );
        fast
    }

    /// The reference implementation of [`Pts::schedule_preemptive`], on
    /// [`plan_preemption_scan_by`]: every candidate is planned in full
    /// from the running registry, the waste is recomputed inside the sort
    /// comparator and the spared victims are `retain`ed away. Kept as the
    /// oracle every debug-build decision is checked against.
    #[must_use]
    pub fn schedule_preemptive_scan(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Decision> {
        let need = task.gpus_per_pod.cards();
        let reclaimable = |idle: Cards, spots: &[(&RunningTask, Cards)]| {
            let total = idle + spots.iter().map(|&(_, local)| local).sum();
            (total >= need).then_some(total)
        };
        if self.variant.preemption_degraded() {
            let plan = |n: &Node, pod: u32, mut idle, mut spots: Vec<(&RunningTask, Cards)>| {
                reclaimable(idle, &spots)?;
                spots.sort_by_key(|(rt, _)| random_rank_of_victim(rt.spec.id, pod));
                let mut victims = Vec::new();
                for (rt, local) in spots {
                    if idle >= need {
                        break;
                    }
                    idle += local;
                    victims.push(rt.spec.id);
                }
                Some((victims, Reverse(random_rank(task, n))))
            };
            return plan_preemption_scan_by(cluster, task, plan, |_, _| false);
        }
        let plan = |n: &Node, _, idle, mut spots: Vec<(&RunningTask, Cards)>| {
            let mut r = reclaimable(idle, &spots)?;
            spots.sort_by(|(a, _), (b, _)| {
                b.waste(now)
                    .partial_cmp(&a.waste(now))
                    .expect("waste is finite")
                    .then(a.spec.id.cmp(&b.spec.id))
            });
            let mut victims: Vec<TaskId> = spots.iter().map(|(rt, _)| rt.spec.id).collect();
            let mut waste: f64 = spots.iter().map(|(rt, _)| rt.waste(now)).sum();
            for &(rt, local) in &spots {
                if r >= need + local {
                    r -= local;
                    waste -= rt.waste(now);
                    victims.retain(|v| *v != rt.spec.id);
                }
            }
            let cost = self.preemption_cost(cluster, waste, victims.len(), now);
            let rel = self.policy.preemption_reliability(cluster, n, now);
            Some((victims, (rel, -cost)))
        };
        plan_preemption_scan_by(cluster, task, plan, |victims, &(rel, _)| {
            victims.is_empty() && rel == 1.0
        })
    }

    /// The refusal class of `task` (see
    /// [`Scheduler::refusal_class`](gfs_cluster::Scheduler::refusal_class))
    /// for schedulers built on this engine: `(priority, gpu_model,
    /// gpus_per_pod, pods)` packed *exactly* into 64 bits — everything
    /// Alg. 1, Alg. 2 and the SQA gate read to decide whether a task can
    /// be placed, and nothing that merely ranks nodes or orders the
    /// queue. Refusal is then monotone inside a pass:
    /// [`Pts::task_order`] sorts by total GPUs, then pods, so only tasks
    /// of the same demand shape run between two members of one class,
    /// and placing such a task only takes idle cards, only raises the
    /// spot allocation the quota gate compares against, and never adds
    /// to a node's idle-plus-spot total that Alg. 2 can reclaim; `now`,
    /// the quota and the eviction windows behind the circuit breaker are
    /// constant until something is evicted.
    ///
    /// The [`PlacementPolicy`] does not enter the key: its components
    /// only *rank* candidates (the hazard component floors at 0 but never
    /// excludes a node; preemption reliability only orders targets), so
    /// feasibility — and with it the monotonicity argument — is the naive
    /// one under every policy.
    ///
    /// `None` for the shapes the packing has no room for: whole demands
    /// of 2²⁸ cards or more, fractional gangs.
    #[must_use]
    pub fn refusal_class(&self, task: &TaskSpec) -> Option<u64> {
        // bit 63 priority | 62–61 model | 60 fractional | 59–0 shape
        const _: () = assert!(GpuModel::ALL.len() <= 4, "model must fit two bits");
        let head = u64::from(task.priority.is_hp()) << 63 | (task.gpu_model as u64) << 61;
        match task.gpus_per_pod {
            GpuDemand::Whole(g) if g < 1 << 28 => {
                Some(head | u64::from(g) << 32 | u64::from(task.pods))
            }
            GpuDemand::Fraction(f) if task.pods == 1 && f.0 < 1 << 60 => Some(head | 1 << 60 | f.0),
            _ => None,
        }
    }

    /// Queue ordering of §3.4.2 as a comparator: larger GPU requests
    /// first, then more pods, then earlier submissions.
    #[must_use]
    pub fn task_order(a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        let total = |t: &TaskSpec| t.gpus_per_pod.cards() * t.pods;
        total(b)
            .cmp(&total(a))
            .then(b.pods.cmp(&a.pods))
            .then(a.submit_at.cmp(&b.submit_at))
            .then(a.id.cmp(&b.id))
    }
}

/// Alg. 1's full candidate order, written once for the scan and the
/// indexed gang loop: the gang-spread count (`in_domain`, fewer is better)
/// sits between the `<hazard, drain>` prefix of a [`Pts::node_key`] and
/// its `<Score1, Score2, Score3>`. Reliability outranks spread: avoiding
/// flaky hardware beats separating pods, so anti-affinity chooses *among*
/// the reliable candidates and never overrides them into a failure-prone
/// rack.
fn gang_key(key: Key, in_domain: u32) -> ([u64; 2], Reverse<u32>, [u64; 3]) {
    let [hazard, drain, s1, s2, s3] = key;
    ([hazard, drain], Reverse(in_domain), [s1, s2, s3])
}

/// Exact counts of one [`Pts`]'s Alg. 2 work (see [`Pts::preempt_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreemptWork {
    /// Calls to [`Pts::schedule_preemptive`].
    pub calls: u64,
    /// Candidate nodes offered to a plan, summed over every pod.
    pub nodes_visited: u64,
    /// Visited nodes whose idle and spot cards can host the pod: the
    /// nodes the reference walk plans in full.
    pub feasible: u64,
    /// Plans built in full: feasible nodes the victim-count bound (and,
    /// under `GFS-p`, the node's own rank) did not rule out.
    pub plans_built: u64,
}

/// The eviction-impact term of Eq. 19 for a plan of `k` victims, given
/// the `g` completed and `f` evicted spot tasks so far.
fn eviction_impact(g: f64, f: f64, k: usize) -> f64 {
    let k = k as f64;
    (f + k) / (g + f + k).max(1.0)
}

/// The fewest spot tasks whose holdings, largest first, cover what a pod
/// of `need` cards lacks on a node with `idle` idle cards — a lower bound
/// on the victims of any plan that frees the pod there — or `None` when a
/// holding is not a whole number of cards (see
/// [`Pts::schedule_preemptive`] for why the bound then stands aside).
/// `sizes` is scratch space.
fn min_victims(
    idle: Cards,
    need: Cards,
    spots: &[SpotHolding],
    sizes: &mut Vec<Cards>,
) -> Option<usize> {
    sizes.clear();
    for h in spots {
        if h.cards.0 % Cards::ONE.0 != 0 {
            return None;
        }
        sizes.push(h.cards);
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut freed = idle;
    let k = sizes.iter().take_while(|&&held| {
        let short = freed < need;
        freed += held;
        short
    });
    Some(k.count())
}

/// `GFS-p`'s pseudo-random rank of a target node for `task`.
fn random_rank(task: &TaskSpec, node: &Node) -> u64 {
    fib_hash(u64::from(node.id().raw()) ^ task.id.raw())
}

/// `GFS-p`'s pseudo-random eviction order of spot task `id` for pod `pod`.
fn random_rank_of_victim(id: TaskId, pod: u32) -> u64 {
    fib_hash(id.raw()) ^ u64::from(pod)
}

/// Fibonacci hashing: a fixed odd multiplier scatters ids.
fn fib_hash(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{CheckpointPlan, GpuModel};

    fn pts() -> Pts {
        Pts::new(GfsParams::default(), PtsVariant::Full)
    }

    fn task(id: u64, priority: Priority, pods: u32, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .pods(pods)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(100_000)
            .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
            .build()
            .unwrap()
    }

    #[test]
    fn refusal_class_packs_the_demand_shape_exactly() {
        let p = pts();
        let class = |t: &TaskSpec| p.refusal_class(t);
        let base = task(1, Priority::Hp, 2, 4);
        let key = class(&base).expect("whole gangs are classed");
        // what ranks or orders is left out ...
        let mut twin = task(99, Priority::Hp, 2, 4);
        twin.duration_secs = 7;
        twin.submit_at = SimTime::from_secs(500);
        assert_eq!(class(&twin), Some(key));
        // ... and every field that decides feasibility tells classes apart
        let mut other_model = base.clone();
        other_model.gpu_model = GpuModel::H800;
        let mut half = task(1, Priority::Hp, 1, 1);
        half.gpus_per_pod = GpuDemand::fraction(0.5).unwrap();
        let mut quarter = half.clone();
        quarter.gpus_per_pod = GpuDemand::fraction(0.25).unwrap();
        let mut tiny = half.clone();
        tiny.gpus_per_pod = GpuDemand::Fraction(Cards(1));
        let distinct = [
            base.clone(),
            task(1, Priority::Spot, 2, 4),
            task(1, Priority::Hp, 3, 4),
            task(1, Priority::Hp, 2, 8),
            task(1, Priority::Hp, 4, 2),
            task(1, Priority::Hp, 1, 1),
            other_model,
            half.clone(),
            quarter,
            tiny,
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(class(a).unwrap(), class(b).unwrap(), "{a:?} vs {b:?}");
            }
        }
        // shapes the packing has no room for stay unclassed
        let mut fractional_gang = half.clone();
        fractional_gang.pods = 2;
        assert_eq!(class(&fractional_gang), None);
        assert_eq!(class(&task(1, Priority::Hp, 1, 1 << 28)), None);
        // a churn policy only ranks nodes: same feasibility, same class
        let churn = Pts::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            PlacementPolicy::churn_aware(),
        );
        assert_eq!(churn.refusal_class(&base), Some(key));
    }

    #[test]
    fn packing_prefers_fuller_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Hp, 1, 4),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let nodes = pts()
            .schedule_nonpreemptive(&task(2, Priority::Hp, 1, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            nodes,
            vec![NodeId::new(1)],
            "Score1 packs onto the loaded node"
        );
    }

    #[test]
    fn colocation_separates_priorities() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        // equal fill so Score1 ties: node0 runs HP, node1 runs spot
        c.start_task(
            task(1, Priority::Hp, 1, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            task(2, Priority::Spot, 1, 4),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let p = pts();
        let hp_nodes = p
            .schedule_nonpreemptive(&task(3, Priority::Hp, 1, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(hp_nodes, vec![NodeId::new(0)], "HP co-locates with HP");
        let spot_nodes = p
            .schedule_nonpreemptive(&task(4, Priority::Spot, 1, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            spot_nodes,
            vec![NodeId::new(1)],
            "spot co-locates with spot"
        );
    }

    #[test]
    fn eviction_awareness_steers_spot_away() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let now = SimTime::from_hours(1);
        // node 0 suffers heavy recent evictions (through the public
        // run-then-evict flow) — enough to trip the circuit breaker
        for i in 0..50 {
            let t = task(100 + i, Priority::Spot, 1, 1);
            c.start_task(t, &[NodeId::new(0)], now, 0).unwrap();
            c.evict_task(TaskId::new(100 + i), now).unwrap();
        }
        let p = pts();
        // spot is circuit-broken on node 0
        assert!(p.node_scores(&c.nodes()[0], Priority::Spot, now).is_none());
        let nodes = p
            .schedule_nonpreemptive(&task(5, Priority::Spot, 1, 2), &c, now)
            .unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)]);
        // HP prefers the eviction-prone node (asymmetric score)
        let hp_s3 = |n: &Node| p.node_scores(n, Priority::Hp, now).unwrap().2;
        assert_eq!(hp_s3(&c.nodes()[0]), 1.0, "saturated by 50 evictions");
        assert!(hp_s3(&c.nodes()[0]) > hp_s3(&c.nodes()[1]));
    }

    #[test]
    fn nonpreemptive_fails_when_full() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 1, 8),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        assert!(pts()
            .schedule_nonpreemptive(&task(2, Priority::Hp, 1, 4), &c, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn preemption_spares_high_waste_victims() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        // old task: huge waste since last checkpoint at 1800-boundary
        c.start_task(
            task(1, Priority::Spot, 1, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        // young task: little waste
        c.start_task(
            task(2, Priority::Spot, 1, 4),
            &[NodeId::new(0)],
            SimTime::from_secs(3_500),
            0,
        )
        .unwrap();
        let now = SimTime::from_secs(3_599); // old: 1799s since checkpoint; young: 99s
        let d = pts()
            .schedule_preemptive(&task(3, Priority::Hp, 1, 4), &c, now)
            .unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(0)]);
        assert_eq!(
            d.preemptions,
            vec![TaskId::new(2)],
            "the young (low-waste) task is evicted"
        );
    }

    #[test]
    fn preemption_prefers_free_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 1, 8),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let d = pts()
            .schedule_preemptive(&task(2, Priority::Hp, 1, 4), &c, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(1)]);
        assert!(
            !d.is_preemptive(),
            "no eviction needed: zero-victim plan wins"
        );
    }

    #[test]
    fn preemptive_gang_across_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 1, 8),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            task(2, Priority::Spot, 1, 8),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let gang = task(3, Priority::Hp, 2, 8);
        let d = pts()
            .schedule_preemptive(&gang, &c, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(d.pod_nodes.len(), 2);
        assert_eq!(d.preemptions.len(), 2, "both spot tasks must go");
    }

    #[test]
    fn preemptive_infeasible_returns_none() {
        let c = Cluster::homogeneous(1, GpuModel::A100, 8);
        assert!(pts()
            .schedule_preemptive(&task(1, Priority::Hp, 1, 16), &c, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn degraded_scoring_uses_packing_only() {
        let p = Pts::new(GfsParams::default(), PtsVariant::SimpleScoring);
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Hp, 1, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            task(2, Priority::Spot, 1, 4),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        // co-location would pick node 1 for spot; packing-only ties → lowest id
        let nodes = p
            .schedule_nonpreemptive(&task(3, Priority::Spot, 1, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            nodes,
            vec![NodeId::new(0)],
            "tie broken by node id, no co-location"
        );
    }

    #[test]
    fn random_preemption_is_deterministic_but_not_cost_driven() {
        let p = Pts::new(GfsParams::default(), PtsVariant::RandomPreemption);
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 1, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            task(2, Priority::Spot, 1, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let a = p.schedule_preemptive(&task(3, Priority::Hp, 1, 4), &c, SimTime::from_secs(50));
        let b = p.schedule_preemptive(&task(3, Priority::Hp, 1, 4), &c, SimTime::from_secs(50));
        assert_eq!(a, b, "hash-based choice is reproducible");
        assert_eq!(a.unwrap().preemptions.len(), 1);
    }

    #[test]
    fn preemption_avoids_flaky_nodes_only_under_hazard_policy() {
        // two equally-costed preemption targets; node 0 is flaky
        let build = || {
            let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
            c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
            c.restore_node(NodeId::new(0), SimTime::from_hours(2))
                .unwrap();
            for (id, node) in [(1, 0), (2, 1)] {
                c.start_task(
                    task(id, Priority::Spot, 1, 8),
                    &[NodeId::new(node)],
                    SimTime::from_hours(3),
                    0,
                )
                .unwrap();
            }
            c
        };
        let now = SimTime::from_hours(4);
        let hp = task(9, Priority::Hp, 1, 8);
        // churn_aware is pinned: cost ties break on visit order → node 0
        let legacy = Pts::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            PlacementPolicy::churn_aware(),
        );
        let d = legacy.schedule_preemptive(&hp, &build(), now).unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(0)]);
        // the hazard policy discounts the flaky node before cost
        let hazard = Pts::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            PlacementPolicy::hazard_aware(),
        );
        let d = hazard.schedule_preemptive(&hp, &build(), now).unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(1)], "flaky target loses");
        assert_eq!(d.preemptions, vec![TaskId::new(2)]);
    }

    #[test]
    fn decayed_reliability_keeps_the_scan() {
        // both nodes failed once inside the 48 h window, node 1 longer ago
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        for (node, hour) in [(1, 1), (0, 10)] {
            c.fail_node(NodeId::new(node), SimTime::from_hours(hour))
                .unwrap();
            c.restore_node(NodeId::new(node), SimTime::from_hours(hour + 1))
                .unwrap();
        }
        let now = SimTime::from_hours(20);
        let probe = task(1, Priority::Hp, 1, 2);
        let engine = |policy| Pts::with_policy(GfsParams::default(), PtsVariant::Full, policy);
        // the hard window counts one failure each: a tie, through the index
        let churn = engine(PlacementPolicy::churn_aware());
        let nodes = churn.schedule_nonpreemptive(&probe, &c, now).unwrap();
        assert_eq!(nodes, vec![NodeId::new(0)]);
        assert!(churn.index.borrow().is_bound());
        // the decayed rate is continuous in `now`: the older failure
        // weighs less, and no cached key could say so
        let hazard = engine(PlacementPolicy::hazard_aware());
        let nodes = hazard.schedule_nonpreemptive(&probe, &c, now).unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)]);
        assert!(!hazard.index.borrow().is_bound());
    }

    #[test]
    fn queue_sorted_by_size_pods_submit() {
        let mut q = [
            task(1, Priority::Hp, 1, 1),
            task(2, Priority::Hp, 1, 8),
            task(3, Priority::Hp, 2, 4),
            {
                let mut t = task(4, Priority::Hp, 1, 8);
                t.submit_at = SimTime::from_secs(10);
                t
            },
        ];
        q.sort_by(Pts::task_order);
        let ids: Vec<u64> = q.iter().map(|t| t.id.raw()).collect();
        // 3: 8 GPUs 2 pods; 2 & 4: 8 GPUs 1 pod (2 submitted earlier); 1: 1 GPU
        assert_eq!(ids, vec![3, 2, 4, 1]);
    }

    #[test]
    fn preemption_cost_monotone_in_victims_and_waste() {
        let p = pts();
        let c = Cluster::homogeneous(1, GpuModel::A100, 8);
        let now = SimTime::from_hours(2);
        let base = p.preemption_cost(&c, 0.0, 0, now);
        let one = p.preemption_cost(&c, 0.0, 1, now);
        let wasteful = p.preemption_cost(&c, 1e6, 1, now);
        assert!(one > base);
        assert!(wasteful > one);
    }
}
