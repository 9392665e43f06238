//! The placement engine every scheduler shares, and the churn-aware
//! [`PlacementPolicy`] layer the PTS/GFS schedulers consult.
//!
//! Two loops serve the four baselines and PTS alike. [`gang_nodes_by`]
//! places a gang pod by pod under a virtual idle-card budget, taking the
//! best-keyed feasible node each time; the PTS reference scan (Alg. 1)
//! is this walk with its `<hazard, drain, spread, S1, S2, S3>` key.
//! [`plan_preemption_by`] plans an HP gang against a virtual-idle ledger
//! of evicted victims, asking a per-node plan for victims and a rank;
//! the baselines' greedy [`plan_preemption`], Alg. 2 and `GFS-p` are
//! three such plans.

use std::collections::HashMap;

use gfs_cluster::{Cluster, Decision, DrainDecision, Node, RunningTask};
use gfs_types::{Cards, GpuDemand, NodeId, SimDuration, SimTime, TaskId, TaskSpec, HOUR};

/// A placement-time churn policy: how a scheduler anticipates failures,
/// drains and blast radii when choosing nodes, on top of (not instead of)
/// its own scoring.
///
/// The policy contributes up to three *lexicographically leading* score
/// components, in this priority order; a disabled component is constant
/// across candidates and falls through to the scheduler's native scores,
/// so [`PlacementPolicy::naive`] reproduces policy-less placement
/// decision for decision (the golden-report pins rely on this):
///
/// 1. **Reliability** ([`PlacementPolicy::reliability`]) — a node-failure
///    analogue of the PTS eviction-awareness score (Eq. 15–16): the
///    windowed failure history discounts failure-prone candidates the way
///    ē discounts eviction-prone ones. The history survives repair (a
///    flaky machine stays flaky), in contrast to the eviction history.
/// 2. **Drain avoidance** ([`PlacementPolicy::drain_aware`]) — discount
///    nodes whose failure domain currently contains a draining node:
///    maintenance waves walk through racks, so a rack with one node in
///    maintenance is where the next notices land. Also switches
///    [`PlacementPolicy::drain_decision`] to the capacity-aware
///    variant.
/// 3. **Domain spread** ([`PlacementPolicy::spread_domains`]) — gang
///    anti-affinity over the cluster's declared
///    [`FailureDomain`](gfs_types::FailureDomain)s: each pod prefers the
///    candidate whose domain hosts the fewest pods of the gang placed so
///    far. Best-effort: when capacity is tight the gang still lands,
///    co-located, because the spread term only *orders* feasible
///    candidates — and reliability outranks it, so anti-affinity chooses
///    among dependable racks rather than overriding into flaky ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPolicy {
    /// Spread gang pods across failure domains (anti-affinity).
    pub spread_domains: bool,
    /// Discount nodes by their windowed failure history.
    pub reliability: bool,
    /// Avoid domains with in-progress drains; harvest checkpoints on a
    /// draining node when the cluster has no room to migrate into.
    pub drain_aware: bool,
    /// Window of the reliability term's failure count.
    pub failure_window_secs: SimDuration,
    /// Replace the hard-window failure count with an exponentially
    /// decayed rate (`2^(−age/half_life)` per failure), pooled across the
    /// node's failure domain: a machine that failed yesterday scores
    /// worse than one that failed last week, with no cliff at the window
    /// edge, and a rack whose neighbours keep dying is suspect even when
    /// this particular machine has not failed yet. Only meaningful when
    /// [`PlacementPolicy::reliability`] is on. Also (and only) under this
    /// flag the preemptive path applies the same discount when ranking
    /// preemption target nodes.
    pub decayed_reliability: bool,
}

/// Penalty per failure, in percent (mirrors the Eq. 16 `m`-penalty shape:
/// score `= 1 − 0.01·m·f̄`, floored at 0).
const FAILURE_PENALTY: f64 = 25.0;
/// Half-life of the decayed failure rate.
const FAILURE_HALF_LIFE_SECS: SimDuration = 24 * HOUR;
/// Weight of the domain-mates' mean decayed rate relative to the node's
/// own rate when pooling.
const POOL_WEIGHT: f64 = 0.5;

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy::naive()
    }
}

impl PlacementPolicy {
    /// Policy-less placement: every component off. Schedulers built with
    /// this behave bit-for-bit like their pre-policy versions.
    #[must_use]
    pub fn naive() -> Self {
        PlacementPolicy {
            spread_domains: false,
            reliability: false,
            drain_aware: false,
            failure_window_secs: 48 * HOUR,
            decayed_reliability: false,
        }
    }

    /// Gang anti-affinity over failure domains only.
    #[must_use]
    pub fn domain_spread() -> Self {
        PlacementPolicy {
            spread_domains: true,
            ..PlacementPolicy::naive()
        }
    }

    /// Failure-history discounting only.
    #[must_use]
    pub fn reliability_scored() -> Self {
        PlacementPolicy {
            reliability: true,
            ..PlacementPolicy::naive()
        }
    }

    /// The full churn-aware policy: spread + reliability + drain
    /// awareness.
    #[must_use]
    pub fn churn_aware() -> Self {
        PlacementPolicy {
            spread_domains: true,
            reliability: true,
            drain_aware: true,
            ..PlacementPolicy::naive()
        }
    }

    /// The churn-aware policy with the decayed, domain-pooled reliability
    /// score: [`PlacementPolicy::churn_aware`] plus
    /// [`PlacementPolicy::decayed_reliability`]. Kept as a separate variant
    /// so [`PlacementPolicy::churn_aware`] decisions stay bit-for-bit
    /// pinned.
    #[must_use]
    pub fn hazard_aware() -> Self {
        PlacementPolicy {
            decayed_reliability: true,
            ..PlacementPolicy::churn_aware()
        }
    }

    /// The anti-affinity key of a node: its declared failure domain, or a
    /// per-node pseudo-domain when the cluster has no topology (spreading
    /// then degenerates to spreading across nodes).
    #[must_use]
    pub fn domain_key(cluster: &Cluster, node: NodeId) -> u64 {
        match cluster.domain_of(node) {
            Some(d) => u64::from(d),
            None => (1 << 32) | u64::from(node.raw()),
        }
    }

    /// The gang-spread score component: minus the number of already-placed
    /// pods of this gang in the node's domain (0 when spreading is off, so
    /// the component is neutral).
    #[must_use]
    pub fn spread_component(&self, cluster: &Cluster, node: NodeId, used: &DomainUse) -> f64 {
        if !self.spread_domains {
            return 0.0;
        }
        -f64::from(used.count(PlacementPolicy::domain_key(cluster, node)))
    }

    /// The drain-avoidance score component: minus the number of nodes
    /// currently draining in the candidate's domain (0 when off, or when
    /// the node belongs to no declared domain).
    #[must_use]
    pub fn drain_component(&self, cluster: &Cluster, node: NodeId) -> f64 {
        if !self.drain_aware {
            return 0.0;
        }
        match cluster.domain_of(node) {
            Some(d) => -f64::from(cluster.draining_in_domain(d)),
            None => 0.0,
        }
    }

    /// The reliability score component in `[0, 1]` (1.0 when the term is
    /// off): `max(0, 1 − 0.01·m_f·f̄)` with `f̄` the node's failure count
    /// inside [`PlacementPolicy::failure_window_secs`] — Eq. 15–16
    /// transplanted from evictions to hardware failures.
    #[must_use]
    pub fn reliability_component(&self, node: &Node, now: SimTime) -> f64 {
        if !self.reliability {
            return 1.0;
        }
        let f = node.failures_within(now, self.failure_window_secs) as f64;
        (1.0 - 0.01 * FAILURE_PENALTY * f).max(0.0)
    }

    /// The node's effective failure pressure under the decayed model: its
    /// own exponentially-decayed rate (24 h half-life) plus half the mean
    /// decayed rate of its failure-domain mates. A node outside any
    /// declared domain contributes only its own rate.
    #[must_use]
    pub fn pooled_failure_rate(cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
        let own = node.decayed_failure_rate(now, FAILURE_HALF_LIFE_SECS);
        let Some(d) = cluster.domain_of(node.id()) else {
            return own;
        };
        let (sum, mates) = cluster
            .nodes()
            .iter()
            .filter(|m| m.id() != node.id() && cluster.domain_of(m.id()) == Some(d))
            .fold((0.0, 0u32), |(s, k), m| {
                (
                    s + m.decayed_failure_rate(now, FAILURE_HALF_LIFE_SECS),
                    k + 1,
                )
            });
        if mates == 0 {
            own
        } else {
            own + POOL_WEIGHT * sum / f64::from(mates)
        }
    }

    /// The reliability score component with the decayed/pooled extension:
    /// identical to [`PlacementPolicy::reliability_component`] unless
    /// [`PlacementPolicy::decayed_reliability`] is set, in which case the
    /// hard-window failure count is replaced by
    /// [`PlacementPolicy::pooled_failure_rate`]. This is the one entry
    /// point placement scoring calls, so legacy variants keep their
    /// pinned decisions bit for bit.
    #[must_use]
    pub fn hazard_component(&self, cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
        if !self.reliability {
            return 1.0;
        }
        if !self.decayed_reliability {
            return self.reliability_component(node, now);
        }
        let rate = PlacementPolicy::pooled_failure_rate(cluster, node, now);
        (1.0 - 0.01 * FAILURE_PENALTY * rate).max(0.0)
    }

    /// The discount the *preemptive* path applies when ranking candidate
    /// target nodes: active only under
    /// [`PlacementPolicy::decayed_reliability`] (the legacy variants'
    /// preemptive decisions are pinned), constant 1.0 otherwise.
    #[must_use]
    pub fn preemption_reliability(&self, cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
        if !self.decayed_reliability {
            return 1.0;
        }
        self.hazard_component(cluster, node, now)
    }

    /// The capacity-aware drain response, the one implementation of
    /// [`Scheduler::drain_decision`](gfs_cluster::Scheduler::drain_decision)
    /// every policy-carrying scheduler delegates to: migrate a can't-finish
    /// gang at the notice — early in the window — *unless* the cluster
    /// has no room of the gang's model to receive it, in which case the
    /// gang stays and keeps checkpointing until the forced deadline (an
    /// early migration into a full cluster forfeits the window's progress
    /// and buys nothing). "Room" counts the idle cards *plus* whatever
    /// the gang itself would free on schedulable nodes by leaving — a
    /// gang half on the draining node and half on an otherwise-busy
    /// healthy one can still re-place into its own vacated cards. With
    /// `drain_aware` off this is exactly the engine's historical rule.
    ///
    /// The check is a best-effort heuristic against the pre-migration
    /// cluster snapshot: when several gangs leave one drain notice at the
    /// same instant they do not see each other's vacated or claimed
    /// cards (idle counts are whole-card, so fractional reuse is judged
    /// conservatively). A wrong guess costs only the difference between
    /// a queue wait and a harvested window — both requeue paths remain
    /// correct.
    #[must_use]
    pub fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        if task.remaining(now) <= notice {
            return DrainDecision::Stay; // finishes in place
        }
        if self.drain_aware {
            let spec = &task.spec;
            let idle = Cards::whole(cluster.idle_gpus(Some(spec.gpu_model)));
            // cards this gang holds on *schedulable* nodes come back the
            // moment it migrates; cards on the draining (or any down)
            // node do not
            let freed: Cards = task
                .placements
                .iter()
                .filter(|p| {
                    cluster
                        .node(p.node)
                        .is_ok_and(gfs_cluster::Node::is_schedulable)
                })
                .map(|p| p.alloc.cards())
                .sum();
            if idle + freed < spec.gpus_per_pod.cards() * spec.pods {
                return DrainDecision::Stay; // nowhere to go: harvest checkpoints instead
            }
        }
        DrainDecision::Migrate
    }
}

/// Running tally of gang pods per anti-affinity domain key, threaded
/// through a gang's pod-by-pod selection.
#[derive(Debug, Default)]
pub struct DomainUse {
    counts: HashMap<u64, u32>,
}

impl DomainUse {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        DomainUse::default()
    }

    /// Pods already assigned to `key`'s domain.
    #[must_use]
    pub fn count(&self, key: u64) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Records one more pod in `key`'s domain.
    pub fn note(&mut self, key: u64) {
        *self.counts.entry(key).or_insert(0) += 1;
    }
}

/// Picks one node per pod of `task`, choosing for each pod the node with
/// the greatest key that still fits (ties broken by the lower node id).
///
/// `key` sees each candidate with the gang's pods placed so far, tallied
/// per anti-affinity domain, and returns `None` to exclude it.
/// Whole-card demands consume a virtual idle-GPU budget so gangs spread
/// correctly; fractional demands are single-pod by construction.
pub fn gang_nodes_by<K, F>(cluster: &Cluster, task: &TaskSpec, key: F) -> Option<Vec<NodeId>>
where
    K: PartialOrd,
    F: Fn(&Node, &DomainUse) -> Option<K>,
{
    // Feasible nodes come from the capacity index (O(answer)), ascending
    // by id, not a scan over every node. A candidate wins only with a
    // strictly greater key, so a tie keeps the lower id.
    let candidates: Vec<u32> = match task.gpus_per_pod {
        GpuDemand::Whole(need) => cluster.whole_fit_candidates(task.gpu_model, need),
        GpuDemand::Fraction(f) => cluster.fraction_fit_candidates(task.gpu_model, f),
    };
    // virtual idle budget, tracked only for nodes the gang actually picks.
    // Keyed lookups only (`get`/`entry`), never iterated — the det-iter
    // lint's canonical clean pattern: hash order can't reach a decision.
    let mut budget: HashMap<NodeId, u32> = HashMap::new();
    let mut used = DomainUse::new();
    let mut out = Vec::with_capacity(task.pods as usize);
    for _ in 0..task.pods {
        let mut best: Option<(NodeId, K)> = None;
        for n in candidates.iter().map(|&id| &cluster.nodes()[id as usize]) {
            let fits = match task.gpus_per_pod {
                GpuDemand::Whole(need) => {
                    budget
                        .get(&n.id())
                        .copied()
                        .unwrap_or_else(|| n.idle_gpus())
                        >= need
                }
                GpuDemand::Fraction(_) => n.can_fit(task.gpus_per_pod),
            };
            if !fits {
                continue;
            }
            let Some(k) = key(n, &used) else { continue };
            if best.as_ref().is_none_or(|(_, b)| k > *b) {
                best = Some((n.id(), k));
            }
        }
        let (chosen, _) = best?;
        if let GpuDemand::Whole(need) = task.gpus_per_pod {
            let entry = budget
                .entry(chosen)
                .or_insert_with(|| cluster.nodes()[chosen.index()].idle_gpus());
            *entry -= need;
        }
        used.note(PlacementPolicy::domain_key(cluster, chosen));
        out.push(chosen);
    }
    Some(out)
}

/// First-fit: the first node (by id) with room for each pod — every key
/// ties, so the lowest id wins.
pub fn first_fit_nodes(cluster: &Cluster, task: &TaskSpec) -> Option<Vec<NodeId>> {
    gang_nodes_by(cluster, task, |_, _| Some(()))
}

/// Best-fit: prefer nodes with the fewest idle GPUs that still fit.
///
/// Whole-card demands take the direct bucket walk: the capacity index
/// already orders nodes by (idle ascending, id ascending), which is
/// exactly the best-fit total order, so the first node passing the gang
/// budget *is* the scan's argmax — no collect-then-score pass.
pub fn best_fit_nodes(cluster: &Cluster, task: &TaskSpec) -> Option<Vec<NodeId>> {
    let GpuDemand::Whole(need) = task.gpus_per_pod else {
        return gang_nodes_by(cluster, task, |n, _| Some(-(f64::from(n.idle_gpus()))));
    };
    let mut budget: HashMap<NodeId, u32> = HashMap::new();
    let mut out = Vec::with_capacity(task.pods as usize);
    for _ in 0..task.pods {
        let raw = cluster.best_fit_walk(task.gpu_model, need, |id| {
            let node = NodeId::new(id);
            budget
                .get(&node)
                .copied()
                .unwrap_or_else(|| cluster.nodes()[id as usize].idle_gpus())
                >= need
        })?;
        let node = NodeId::new(raw);
        let entry = budget
            .entry(node)
            .or_insert_with(|| cluster.nodes()[node.index()].idle_gpus());
        *entry -= need;
        out.push(node);
    }
    Some(out)
}

/// The skeleton of every preemptive placement: walks the pods of an HP
/// `task` one at a time and, for each, asks `plan` what each candidate
/// node would cost, taking the node with the greatest rank (ties keep the
/// lower node id).
///
/// `plan` receives the node, the pod's index, the node's idle cards net of
/// the gang's earlier pods and evictions, and its spot tasks not yet
/// evicted — ascending by id, each with the cards it holds on this node.
/// It returns the victims that make the pod fit plus their rank, or
/// `None` when the node cannot host the pod. A plan for which `decided`
/// holds, once taken, ends the walk for that pod: nothing later can
/// strictly beat it.
///
/// Returns `None` when some pod fits nowhere. Victims are deduplicated
/// across pods: a gang victim spanning nodes frees capacity everywhere it
/// runs.
pub fn plan_preemption_by<R, P, D>(
    cluster: &Cluster,
    task: &TaskSpec,
    plan: P,
    decided: D,
) -> Option<Decision>
where
    R: PartialOrd,
    P: Fn(&Node, u32, Cards, Vec<(&RunningTask, Cards)>) -> Option<(Vec<TaskId>, R)>,
    D: Fn(&[TaskId], &R) -> bool,
{
    let need = task.gpus_per_pod.cards();
    // Only nodes that already fit or host an evictable spot pod can ever
    // satisfy a pod; the index enumerates exactly those, ascending by id.
    let candidates = cluster.preemption_candidates(task.gpu_model, need.ceil_cards());
    // virtual idle capacity per node, updated as we plan evictions; an
    // absent entry means the node's actual idle count. Keyed lookups only
    // (`get`/`entry`), never iterated, so hash order never decides.
    let mut virt_idle: HashMap<NodeId, Cards> = HashMap::new();
    let actual_idle = |id: NodeId| Cards::whole(cluster.nodes()[id.index()].idle_gpus());
    let mut evicted: Vec<TaskId> = Vec::new();
    let mut pod_nodes = Vec::with_capacity(task.pods as usize);
    for pod in 0..task.pods {
        let mut best: Option<(NodeId, Vec<TaskId>, R)> = None;
        for n in candidates.iter().map(|&id| &cluster.nodes()[id as usize]) {
            let idle = virt_idle
                .get(&n.id())
                .copied()
                .unwrap_or_else(|| actual_idle(n.id()));
            let spots = cluster
                .spot_tasks_on(n.id())
                .into_iter()
                .filter(|rt| !evicted.contains(&rt.spec.id))
                .map(|rt| {
                    let local = rt.placements.iter().filter(|p| p.node == n.id());
                    (rt, local.map(|p| p.alloc.cards()).sum())
                })
                .collect();
            let Some((victims, rank)) = plan(n, pod, idle, spots) else {
                continue;
            };
            if best.as_ref().is_none_or(|(.., b)| rank > *b) {
                let stop = decided(&victims, &rank);
                best = Some((n.id(), victims, rank));
                if stop {
                    break;
                }
            }
        }
        let (node, victims, _) = best?;
        for v in &victims {
            // credit every node the victim occupies
            if let Some(rt) = cluster.running_task(*v) {
                for p in &rt.placements {
                    *virt_idle
                        .entry(p.node)
                        .or_insert_with(|| actual_idle(p.node)) += p.alloc.cards();
                }
            }
            evicted.push(*v);
        }
        *virt_idle.entry(node).or_insert_with(|| actual_idle(node)) -= need;
        pod_nodes.push(node);
    }
    Some(Decision {
        pod_nodes,
        preemptions: evicted,
    })
}

/// The baselines' greedy preemption: on each node, evict spot tasks in
/// `victim_order` (smaller key first) until the pod fits, and take the
/// node whose victims waste the least work. A plan wasting nothing is the
/// global minimum and ends the walk.
pub fn plan_preemption<K: Ord, F>(
    cluster: &Cluster,
    task: &TaskSpec,
    now: SimTime,
    victim_order: F,
) -> Option<Decision>
where
    F: Fn(&RunningTask, SimTime) -> K,
{
    let need = task.gpus_per_pod.cards();
    plan_preemption_by(
        cluster,
        task,
        |_, _, mut idle, mut spots| {
            spots.sort_by_key(|(rt, _)| victim_order(rt, now));
            let mut victims = Vec::new();
            let mut waste = 0.0;
            for (rt, local) in spots {
                if idle >= need {
                    break;
                }
                idle += local;
                waste += rt.waste(now);
                victims.push(rt.spec.id);
            }
            (idle >= need).then_some((victims, -waste))
        },
        |_, rank| *rank >= 0.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuModel, Priority, SimTime};

    fn task(id: u64, pods: u32, gpus: u32, priority: Priority) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .pods(pods)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(3_600)
            .build()
            .unwrap()
    }

    #[test]
    fn first_fit_prefers_low_ids() {
        let c = Cluster::homogeneous(3, GpuModel::A100, 8);
        let nodes = first_fit_nodes(&c, &task(1, 2, 4, Priority::Hp)).unwrap();
        assert_eq!(nodes, vec![NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn best_fit_packs_loaded_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, 1, 6, Priority::Hp),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let nodes = best_fit_nodes(&c, &task(2, 1, 2, Priority::Hp)).unwrap();
        assert_eq!(nodes, vec![NodeId::new(1)], "node 1 has fewer idle GPUs");
    }

    #[test]
    fn gang_respects_budget() {
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        // 3 pods × 8 GPUs cannot fit on 2 nodes
        assert!(first_fit_nodes(&c, &task(1, 3, 8, Priority::Hp)).is_none());
        // 2 pods × 8 spread over both nodes
        let nodes = first_fit_nodes(&c, &task(2, 2, 8, Priority::Hp)).unwrap();
        assert_eq!(nodes, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn model_filter_applies() {
        let c = Cluster::homogeneous(2, GpuModel::A10, 8);
        assert!(
            first_fit_nodes(&c, &task(1, 1, 1, Priority::Hp)).is_none(),
            "task wants A100"
        );
    }

    #[test]
    fn plan_preemption_evicts_cheapest() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        let old_spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(4))
            .duration_secs(100_000)
            .build()
            .unwrap();
        let young_spot = TaskSpec::builder(2)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(4))
            .duration_secs(100_000)
            .build()
            .unwrap();
        c.start_task(old_spot, &[NodeId::new(0)], SimTime::ZERO, 0)
            .unwrap();
        c.start_task(young_spot, &[NodeId::new(0)], SimTime::from_secs(9_000), 0)
            .unwrap();
        let now = SimTime::from_secs(10_000);
        // prefer evicting the youngest (least waste): order key = waste
        let d = plan_preemption(&c, &task(3, 1, 4, Priority::Hp), now, |rt, t| {
            rt.waste(t) as u64
        })
        .unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(0)]);
        assert_eq!(
            d.preemptions,
            vec![TaskId::new(2)],
            "young task wastes less"
        );
    }

    #[test]
    fn plan_preemption_prefers_idle_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(100_000)
            .build()
            .unwrap();
        c.start_task(spot, &[NodeId::new(0)], SimTime::ZERO, 0)
            .unwrap();
        let d = plan_preemption(
            &c,
            &task(2, 1, 8, Priority::Hp),
            SimTime::from_secs(100),
            |rt, t| rt.waste(t) as u64,
        )
        .unwrap();
        assert_eq!(
            d.pod_nodes,
            vec![NodeId::new(1)],
            "idle node wins (zero waste)"
        );
        assert!(!d.is_preemptive());
    }

    #[test]
    fn plan_preemption_none_when_infeasible() {
        let c = Cluster::homogeneous(1, GpuModel::A100, 8);
        assert!(
            plan_preemption(&c, &task(1, 1, 16, Priority::Hp), SimTime::ZERO, |rt, t| {
                rt.waste(t) as u64
            })
            .is_none()
        );
    }

    #[test]
    fn naive_policy_components_are_neutral() {
        let c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let p = PlacementPolicy::naive();
        let mut used = DomainUse::new();
        used.note(PlacementPolicy::domain_key(&c, NodeId::new(0)));
        assert_eq!(p.spread_component(&c, NodeId::new(0), &used), 0.0);
        assert_eq!(p.drain_component(&c, NodeId::new(0)), 0.0);
        assert_eq!(
            p.reliability_component(&c.nodes()[0], SimTime::from_hours(1)),
            1.0
        );
        assert_ne!(PlacementPolicy::churn_aware(), p);
    }

    #[test]
    fn spread_counts_pods_per_domain_with_per_node_fallback() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        let p = PlacementPolicy::domain_spread();
        // no topology: every node is its own pseudo-domain
        let k0 = PlacementPolicy::domain_key(&c, NodeId::new(0));
        let k1 = PlacementPolicy::domain_key(&c, NodeId::new(1));
        assert_ne!(k0, k1);
        c.set_failure_domains(&gfs_types::FailureDomain::racks(4, 2));
        let k0 = PlacementPolicy::domain_key(&c, NodeId::new(0));
        assert_eq!(
            k0,
            PlacementPolicy::domain_key(&c, NodeId::new(1)),
            "same rack"
        );
        let mut used = DomainUse::new();
        used.note(k0);
        used.note(k0);
        assert_eq!(p.spread_component(&c, NodeId::new(1), &used), -2.0);
        assert_eq!(
            p.spread_component(&c, NodeId::new(2), &used),
            0.0,
            "other rack untouched"
        );
    }

    #[test]
    fn reliability_discounts_failure_prone_nodes() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let p = PlacementPolicy::reliability_scored();
        let now = SimTime::from_hours(3);
        let flaky = p.reliability_component(&c.nodes()[0], now);
        let stable = p.reliability_component(&c.nodes()[1], now);
        assert!(flaky < stable, "{flaky} vs {stable}");
        assert_eq!(stable, 1.0);
        assert!(
            (flaky - 0.75).abs() < 1e-9,
            "one failure at the default penalty"
        );
        // enough failures floor the score at 0 (never negative)
        for h in [5u64, 7, 9, 11] {
            c.fail_node(NodeId::new(0), SimTime::from_hours(h)).unwrap();
            c.restore_node(NodeId::new(0), SimTime::from_hours(h + 1))
                .unwrap();
        }
        assert_eq!(
            p.reliability_component(&c.nodes()[0], SimTime::from_hours(12)),
            0.0
        );
    }

    #[test]
    fn hazard_component_matches_windowed_score_unless_decayed() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let now = SimTime::from_hours(3);
        // every legacy variant routes through the windowed component
        for p in [
            PlacementPolicy::naive(),
            PlacementPolicy::reliability_scored(),
            PlacementPolicy::churn_aware(),
        ] {
            assert_eq!(
                p.hazard_component(&c, &c.nodes()[0], now),
                p.reliability_component(&c.nodes()[0], now)
            );
        }
        // the decayed score is time-graded, not a step function
        let p = PlacementPolicy::hazard_aware();
        let fresh = p.hazard_component(&c, &c.nodes()[0], SimTime::from_hours(2));
        let stale = p.hazard_component(&c, &c.nodes()[0], SimTime::from_hours(50));
        assert!(fresh < stale, "{fresh} vs {stale}: old failures fade");
        assert!(stale < 1.0, "but never vanish abruptly");
        assert_eq!(p.hazard_component(&c, &c.nodes()[1], now), 1.0);
    }

    #[test]
    fn pooling_taints_domain_mates() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        c.set_failure_domains(&gfs_types::FailureDomain::racks(4, 2));
        c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let p = PlacementPolicy::hazard_aware();
        let now = SimTime::from_hours(3);
        // node 1 never failed, but shares the rack with flaky node 0
        let mate = PlacementPolicy::pooled_failure_rate(&c, &c.nodes()[1], now);
        let other = PlacementPolicy::pooled_failure_rate(&c, &c.nodes()[2], now);
        assert!(mate > 0.0, "rack-mate inherits pooled suspicion");
        assert_eq!(other, 0.0, "other rack untouched");
        assert!(
            p.hazard_component(&c, &c.nodes()[1], now) < p.hazard_component(&c, &c.nodes()[2], now)
        );
        // the failed node itself is worse than its innocent mate
        assert!(PlacementPolicy::pooled_failure_rate(&c, &c.nodes()[0], now) > mate);
        // without a topology pooling is inert
        let flat = Cluster::homogeneous(2, GpuModel::A100, 8);
        assert_eq!(
            PlacementPolicy::pooled_failure_rate(&flat, &flat.nodes()[0], now),
            flat.nodes()[0].decayed_failure_rate(now, FAILURE_HALF_LIFE_SECS)
        );
    }

    #[test]
    fn preemption_reliability_is_gated() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let now = SimTime::from_hours(3);
        // churn_aware's preemptive cells are pinned: constant discount
        let legacy = PlacementPolicy::churn_aware();
        assert_eq!(legacy.preemption_reliability(&c, &c.nodes()[0], now), 1.0);
        let p = PlacementPolicy::hazard_aware();
        assert!(p.preemption_reliability(&c, &c.nodes()[0], now) < 1.0);
        assert_ne!(p, PlacementPolicy::naive());
    }

    #[test]
    fn drain_component_flags_racks_mid_maintenance() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        c.set_failure_domains(&gfs_types::FailureDomain::racks(4, 2));
        c.drain_node(NodeId::new(0), SimTime::from_hours(1))
            .unwrap();
        let p = PlacementPolicy::churn_aware();
        assert_eq!(
            p.drain_component(&c, NodeId::new(1)),
            -1.0,
            "rack-mate of the drain"
        );
        assert_eq!(
            p.drain_component(&c, NodeId::new(2)),
            0.0,
            "other rack clean"
        );
    }

    #[test]
    fn drain_aware_migration_harvests_when_cluster_is_full() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        let naive = PlacementPolicy::naive();
        let aware = PlacementPolicy::churn_aware();
        // a long gang on node 0 (3 600 s of work, far over any notice)
        c.start_task(
            task(1, 1, 8, Priority::Hp),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let rt = |c: &Cluster, id: u64| c.running_task(TaskId::new(id)).unwrap().clone();
        let gang = rt(&c, 1);
        // room on node 1: both migrate the can't-finish gang at the notice
        for p in [&naive, &aware] {
            assert_eq!(
                p.drain_decision(&gang, 600, &c, SimTime::ZERO),
                DrainDecision::Migrate
            );
        }
        // neither touches a gang that finishes inside the window
        let end = SimTime::from_secs(3_600 - 100);
        for p in [&naive, &aware] {
            assert_eq!(p.drain_decision(&gang, 600, &c, end), DrainDecision::Stay);
        }
        // fill node 1 and drain node 0: the gang's own cards sit on the
        // draining node, so they never count as receivable — the
        // drain-aware policy stays and harvests
        c.start_task(
            task(8, 1, 8, Priority::Hp),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.drain_node(NodeId::new(0), SimTime::from_secs(600))
            .unwrap();
        let gang = rt(&c, 1);
        assert_eq!(
            naive.drain_decision(&gang, 600, &c, SimTime::ZERO),
            DrainDecision::Migrate,
            "naive migrates regardless"
        );
        assert_eq!(
            aware.drain_decision(&gang, 600, &c, SimTime::ZERO),
            DrainDecision::Stay
        );
        // …but a gang whose cards sit on a *schedulable* node counts them:
        // migrating task 8 frees node 1, so it can re-place into its own
        // vacated cards
        let gang_elsewhere = rt(&c, 8);
        assert_eq!(
            aware.drain_decision(&gang_elsewhere, 600, &c, SimTime::ZERO),
            DrainDecision::Migrate
        );
    }
}
