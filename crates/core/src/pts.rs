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

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::HashMap;

use gfs_cluster::{Cluster, Node, RunningTask};
use gfs_sched::placement::{DomainUse, PlacementPolicy};
use gfs_types::{
    GfsParams, GpuDemand, GpuModel, NodeId, Priority, SimDuration, SimTime, TaskId, TaskSpec, HOUR,
};

use crate::score_index::{Flavor, ScoreIndex};

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
        Pts {
            params,
            variant,
            policy,
            index: RefCell::new(ScoreIndex::default()),
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

    /// Weighted node eviction rate `ē` (Eq. 15).
    #[must_use]
    pub fn node_eviction_rate(&self, node: &Node, now: SimTime) -> f64 {
        let short = node.evictions_within(now, self.params.eviction_window_short_secs) as f64;
        let long = node.evictions_within(now, self.params.eviction_window_long_secs) as f64;
        let t_long_hours = (self.params.eviction_window_long_secs / HOUR).max(1) as f64;
        self.params.gamma * short + (1.0 - self.params.gamma) * long / t_long_hours
    }

    /// Eviction-awareness score (Eq. 16). Returns the score; a spot score
    /// of exactly 0 triggers the circuit breaker (node excluded).
    #[must_use]
    pub fn score3(&self, node: &Node, priority: Priority, now: SimTime) -> f64 {
        let e_bar = self.node_eviction_rate(node, now);
        let x = 0.01 * self.params.penalty_m * e_bar;
        match priority {
            Priority::Hp => x.min(1.0),
            Priority::Spot => (1.0 - x).max(0.0),
        }
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
        let total = f64::from(node.total_gpus()).max(1.0);
        let s1 = 1.0 - f64::from(node.idle_gpus()) / total;
        if self.variant.scoring_degraded() {
            return Some((s1, 0.0, 0.0));
        }
        let s2 = match priority {
            Priority::Hp => node.hp_allocated() / total,
            Priority::Spot => node.spot_allocated() / total,
        };
        let s3 = self.score3(node, priority, now);
        if priority.is_spot() && s3 <= 0.0 {
            return None; // circuit breaker (§3.4.2)
        }
        Some((s1, s2, s3))
    }

    /// Whether cached node scores can only change through a cluster
    /// mutation: the degraded variants score packing alone, so nothing
    /// in the key decays with simulated time.
    pub(crate) fn scoring_time_invariant(&self) -> bool {
        self.variant.scoring_degraded()
    }

    /// The eviction-count windows `Score3` is computed over, for
    /// deadline-based cache invalidation.
    pub(crate) fn eviction_windows(&self) -> [SimDuration; 2] {
        [
            self.params.eviction_window_short_secs,
            self.params.eviction_window_long_secs,
        ]
    }

    /// Non-preemptive scheduling (Alg. 1): one node per pod, or `None`.
    ///
    /// With a non-naive [`PlacementPolicy`] the policy's components lead
    /// the per-candidate key lexicographically — reliability, then drain
    /// avoidance, then gang spread, then the paper's
    /// `<Score1, Score2, Score3>`; disabled components are constant, so
    /// the comparison falls through to the native scores.
    ///
    /// Whole-card demand is answered from the [`ScoreIndex`] in O(log n)
    /// instead of scoring every feasible node, for every policy that is
    /// piecewise constant in time — `naive` (the paper's configuration),
    /// `domain_spread`, `reliability_scored`, `churn_aware`: reliability
    /// and drain avoidance extend the cached key, gang spread is resolved
    /// at query time (module doc of [`crate::score_index`]). The index
    /// reproduces the scan's total order exactly, and debug builds check
    /// every indexed decision against the scan. Two cases keep the scan:
    /// fractional demand, and `decayed_reliability` (`hazard_aware`),
    /// whose score is continuous in `now` — no deadline bounds a cached
    /// key, and the time-free factoring of the decayed sum is not
    /// bit-equal to the `Σ exp2` the scan computes.
    #[must_use]
    pub fn schedule_nonpreemptive(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        let g = match task.gpus_per_pod {
            GpuDemand::Whole(g) if !self.policy.decayed_reliability => g,
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

    /// The reference implementation of Alg. 1: scores every feasible
    /// candidate per pod and takes the lexicographic max. O(n) per
    /// decision — kept for fractional demand, for `decayed_reliability`
    /// policies, and as the oracle every indexed decision is checked
    /// against in debug builds.
    #[must_use]
    pub fn schedule_nonpreemptive_scan(
        &self,
        task: &TaskSpec,
        cluster: &Cluster,
        now: SimTime,
    ) -> Option<Vec<NodeId>> {
        // Alg. 1 line 1 ("filter feasible nodes") through the capacity
        // index instead of a full scan; the lexicographic max is a total
        // order (scores, then lower id), so the result is scan-identical.
        let candidates: Vec<u32> = match task.gpus_per_pod {
            GpuDemand::Whole(g) => cluster.whole_fit_candidates(task.gpu_model, g),
            GpuDemand::Fraction(f) => cluster.fraction_fit_candidates(task.gpu_model, f),
        };
        let mut budget: HashMap<NodeId, u32> = HashMap::new();
        let mut used_domains = DomainUse::new();
        let mut out = Vec::with_capacity(task.pods as usize);
        for _ in 0..task.pods {
            let candidate = candidates
                .iter()
                .map(|&id| (NodeId::new(id), &cluster.nodes()[id as usize]))
                .filter(|(id, n)| match task.gpus_per_pod {
                    GpuDemand::Whole(g) => {
                        budget.get(id).copied().unwrap_or_else(|| n.idle_gpus()) >= g
                    }
                    GpuDemand::Fraction(f) => {
                        n.gpus().iter().any(|gpu| gpu.free_fraction() >= f - 1e-12)
                    }
                })
                .filter_map(|(id, n)| {
                    let (s1, s2, s3) = self.node_scores(n, task.priority, now)?;
                    // reliability outranks spread: avoiding flaky hardware
                    // beats separating pods — anti-affinity then chooses
                    // *among* the reliable candidates, never overrides them
                    // into a failure-prone rack
                    let key = (
                        self.policy.hazard_component(cluster, n, now),
                        self.policy.drain_component(cluster, id),
                        self.policy.spread_component(cluster, id, &used_domains),
                        s1,
                        s2,
                        s3,
                    );
                    Some((id, key))
                })
                .max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("scores are finite")
                        .then(b.0.cmp(&a.0))
                })
                .map(|(id, _)| id)?;
            if let GpuDemand::Whole(g) = task.gpus_per_pod {
                let entry = budget
                    .entry(candidate)
                    .or_insert_with(|| cluster.nodes()[candidate.index()].idle_gpus());
                *entry -= g;
            }
            if self.policy.spread_domains {
                used_domains.note(PlacementPolicy::domain_key(cluster, candidate));
            }
            out.push(candidate);
        }
        Some(out)
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
            // the scan's full key: the gang-spread term sits between the
            // cached <hazard, drain> prefix and <S1, S2, S3>
            let mut best = None;
            while let Some(id) = index.query(task.gpu_model, g, flavor) {
                // stays 0 unless the policy spreads: nothing is noted below
                let in_domain =
                    used_domains.count(PlacementPolicy::domain_key(cluster, NodeId::new(id)));
                let [hazard, drain, s1, s2, s3] = index.key(id, flavor);
                let cand = (
                    [hazard, drain],
                    Reverse(in_domain),
                    [s1, s2, s3],
                    Reverse(id),
                );
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
            let Some((.., Reverse(id))) = best else {
                break;
            };
            out.push(NodeId::new(id));
            let claimed = g * out.iter().filter(|n| n.raw() == id).count() as u32;
            if cluster.nodes()[id as usize].idle_gpus() - claimed < g {
                index.mask(id);
                exhausted.push(id);
            }
            if self.policy.spread_domains {
                used_domains.note(PlacementPolicy::domain_key(cluster, NodeId::new(id)));
            }
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
        let k = victim_count as f64;
        let eviction_impact = (f + k) / (g + f + k).max(1.0);
        let gpu_time = cluster.capacity(None) * (now.as_secs().max(HOUR)) as f64;
        eviction_impact + self.params.beta * victims_waste / gpu_time
    }

    /// Preemptive scheduling (Alg. 2) for an HP task: returns the chosen
    /// node per pod plus the global victim set, or `None` if infeasible
    /// even after virtually evicting every spot task.
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
    ) -> Option<(Vec<NodeId>, Vec<TaskId>)> {
        debug_assert!(task.priority.is_hp(), "only HP tasks may preempt");
        let need = task.gpus_per_pod.cards();
        // Alg. 2 only ever succeeds on nodes that already fit the pod or
        // host evictable spot tasks; the index yields exactly those,
        // ascending by id (the former full-scan visit order).
        let candidates = cluster.preemption_candidates(task.gpu_model, need.ceil() as u32);
        let mut virt_idle: HashMap<NodeId, f64> = HashMap::new();
        let mut evicted: Vec<TaskId> = Vec::new();
        let mut pod_nodes = Vec::with_capacity(task.pods as usize);

        for pod in 0..task.pods {
            // (node, victims, reliability, cost): reliability leads the
            // comparison but is a constant 1.0 except under the gated
            // decayed-reliability policy, so legacy preemptive decisions
            // reduce to the pure cost comparison they were pinned on
            let mut best: Option<(NodeId, Vec<TaskId>, f64, f64)> = None;
            for n in candidates.iter().map(|&id| &cluster.nodes()[id as usize]) {
                let idle = virt_idle
                    .get(&n.id())
                    .copied()
                    .unwrap_or_else(|| f64::from(n.idle_gpus()));
                let spots: Vec<&RunningTask> = cluster
                    .spot_tasks_on(n.id())
                    .into_iter()
                    .filter(|rt| !evicted.contains(&rt.spec.id))
                    .collect();
                let local_gpus = |rt: &RunningTask| -> f64 {
                    rt.placements
                        .iter()
                        .filter(|p| p.node == n.id())
                        .map(|p| p.alloc.cards())
                        .sum()
                };
                let total_reclaimable: f64 =
                    idle + spots.iter().map(|rt| local_gpus(rt)).sum::<f64>();
                if total_reclaimable + 1e-9 < need {
                    continue; // even full eviction cannot host this pod
                }
                let (victims, waste) = if self.variant.preemption_degraded() {
                    // GFS-p: victims in pseudo-random (id-hash) order
                    let mut order: Vec<&RunningTask> = spots.clone();
                    order.sort_by_key(|rt| {
                        rt.spec.id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(pod)
                    });
                    let mut r = idle;
                    let mut vs = Vec::new();
                    let mut w = 0.0;
                    for rt in order {
                        if r + 1e-9 >= need {
                            break;
                        }
                        r += local_gpus(rt);
                        w += rt.waste(now);
                        vs.push(rt.spec.id);
                    }
                    (vs, w)
                } else {
                    // Alg. 2 lines 8–12: start from "evict everyone", then
                    // spare the highest-waste tasks while the pod still fits
                    let mut order: Vec<&RunningTask> = spots.clone();
                    order.sort_by(|a, b| {
                        b.waste(now)
                            .partial_cmp(&a.waste(now))
                            .expect("waste is finite")
                            .then(a.spec.id.cmp(&b.spec.id))
                    });
                    let mut r = total_reclaimable;
                    let mut victims: Vec<TaskId> = order.iter().map(|rt| rt.spec.id).collect();
                    let mut waste: f64 = order.iter().map(|rt| rt.waste(now)).sum();
                    for rt in &order {
                        let local = local_gpus(rt);
                        if r - local + 1e-9 >= need {
                            r -= local;
                            waste -= rt.waste(now);
                            victims.retain(|v| *v != rt.spec.id);
                        }
                    }
                    (victims, waste)
                };
                let cost = self.preemption_cost(cluster, waste, victims.len(), now);
                let rel = self.policy.preemption_reliability(cluster, n, now);
                let better = match &best {
                    None => true,
                    Some((b, _, br, c)) => {
                        if self.variant.preemption_degraded() {
                            // pseudo-random node pick: hash order instead of cost
                            let h = |id: NodeId| {
                                (u64::from(id.raw()) ^ task.id.raw())
                                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            };
                            h(n.id()) < h(*b)
                        } else {
                            // a flaky target loses to a dependable one
                            // before cost is consulted (Eq. 18 extended)
                            (rel, -cost) > (*br, -*c)
                        }
                    }
                };
                if better {
                    let decided = victims.is_empty();
                    best = Some((n.id(), victims, rel, cost));
                    // a zero-victim plan carries the global minimum cost
                    // (Eq. 19 is monotone in victim count and waste) and
                    // later zero-victim ties lose to this lower id, so —
                    // when cost alone decides — no candidate can still
                    // strictly win: stop scanning
                    if decided
                        && !self.variant.preemption_degraded()
                        && !self.policy.decayed_reliability
                    {
                        break;
                    }
                }
            }
            let (node, victims, _, _) = best?;
            // absent entries mean "actual idle" now that the map is lazy
            let actual_idle =
                |c: &Cluster, id: NodeId| f64::from(c.nodes()[id.index()].idle_gpus());
            for v in &victims {
                if let Some(rt) = cluster.running_task(*v) {
                    for p in &rt.placements {
                        *virt_idle
                            .entry(p.node)
                            .or_insert_with(|| actual_idle(cluster, p.node)) += p.alloc.cards();
                    }
                }
                evicted.push(*v);
            }
            *virt_idle
                .entry(node)
                .or_insert_with(|| actual_idle(cluster, node)) -= need;
            pod_nodes.push(node);
        }
        Some((pod_nodes, evicted))
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
    /// of 2²⁸ cards or more, fractional gangs, fractions below 2⁻²⁵⁵.
    #[must_use]
    pub fn refusal_class(&self, task: &TaskSpec) -> Option<u64> {
        // bit 63 priority | 62–61 model | 60 fractional | 59–0 shape
        const _: () = assert!(GpuModel::ALL.len() <= 4, "model must fit two bits");
        let head = u64::from(task.priority.is_hp()) << 63 | (task.gpu_model as u64) << 61;
        match task.gpus_per_pod {
            GpuDemand::Whole(g) if g < 1 << 28 => {
                Some(head | u64::from(g) << 32 | u64::from(task.pods))
            }
            GpuDemand::Fraction(f) if task.pods == 1 => {
                // f in [2^-255, 1): sign and top exponent bit clear, the
                // next two exponent bits set — the low 60 bits identify f
                let bits = f.to_bits();
                (bits >> 60 == 0b0011).then_some(head | 1 << 60 | (bits & ((1 << 60) - 1)))
            }
            _ => None,
        }
    }

    /// Queue ordering of §3.4.2 as a comparator: larger GPU requests
    /// first, then more pods, then earlier submissions.
    #[must_use]
    pub fn task_order(a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        b.total_gpus()
            .partial_cmp(&a.total_gpus())
            .expect("GPU counts are finite")
            .then(b.pods.cmp(&a.pods))
            .then(a.submit_at.cmp(&b.submit_at))
            .then(a.id.cmp(&b.id))
    }

    /// Sorts a queue by [`Pts::task_order`].
    pub fn sort_queue(queue: &mut [TaskSpec]) {
        queue.sort_by(Pts::task_order);
    }
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
        let mut tiny = half;
        tiny.gpus_per_pod = GpuDemand::Fraction(f64::MIN_POSITIVE);
        assert_eq!(class(&tiny), None);
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
        let e0 = p.node_eviction_rate(&c.nodes()[0], now);
        assert!(e0 >= 50.0 * 0.8, "short-window count dominates: {e0}");
        // spot is circuit-broken on node 0
        assert!(p.node_scores(&c.nodes()[0], Priority::Spot, now).is_none());
        let nodes = p
            .schedule_nonpreemptive(&task(5, Priority::Spot, 1, 2), &c, now)
            .unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)]);
        // HP prefers the eviction-prone node (asymmetric score)
        let hp_s3_n0 = p.score3(&c.nodes()[0], Priority::Hp, now);
        let hp_s3_n1 = p.score3(&c.nodes()[1], Priority::Hp, now);
        assert!(hp_s3_n0 > hp_s3_n1);
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
        let (nodes, victims) = pts()
            .schedule_preemptive(&task(3, Priority::Hp, 1, 4), &c, now)
            .unwrap();
        assert_eq!(nodes, vec![NodeId::new(0)]);
        assert_eq!(
            victims,
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
        let (nodes, victims) = pts()
            .schedule_preemptive(&task(2, Priority::Hp, 1, 4), &c, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)]);
        assert!(
            victims.is_empty(),
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
        let (nodes, victims) = pts()
            .schedule_preemptive(&gang, &c, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(victims.len(), 2, "both spot tasks must go");
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
        assert!(a.unwrap().1.len() == 1);
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
        let (nodes, _) = legacy.schedule_preemptive(&hp, &build(), now).unwrap();
        assert_eq!(nodes, vec![NodeId::new(0)]);
        // the hazard policy discounts the flaky node before cost
        let hazard = Pts::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            PlacementPolicy::hazard_aware(),
        );
        let (nodes, victims) = hazard.schedule_preemptive(&hp, &build(), now).unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)], "flaky target loses");
        assert_eq!(victims, vec![TaskId::new(2)]);
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
        let mut q = vec![
            task(1, Priority::Hp, 1, 1),
            task(2, Priority::Hp, 1, 8),
            task(3, Priority::Hp, 2, 4),
            {
                let mut t = task(4, Priority::Hp, 1, 8);
                t.submit_at = SimTime::from_secs(10);
                t
            },
        ];
        Pts::sort_queue(&mut q);
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
