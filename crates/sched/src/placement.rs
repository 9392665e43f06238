//! The placement engine every scheduler shares, and the churn-aware
//! [`PlacementPolicy`] the PTS/GFS schedulers consult.
//!
//! Two loops serve the four baselines and PTS alike. [`gang_nodes_by`]
//! places a gang pod by pod under a virtual idle-card budget, taking the
//! best-keyed feasible node each time; the PTS reference scan (Alg. 1)
//! is this walk with its `<hazard, drain, spread, S1, S2, S3>` key.
//! [`plan_preemption_by`] plans an HP gang against a virtual-idle ledger
//! of evicted victims, asking a per-node plan for victims and a rank;
//! the baselines' greedy [`plan_preemption`], Alg. 2 and `GFS-p` are
//! three such plans. It reads each node's spot tasks from the capacity
//! index; [`plan_preemption_scan_by`] is the same walk over the running
//! registry, kept as the oracle debug builds check every plan against.
//!
//! A [`PlacementPolicy`] is one of five presets and has nothing else to
//! set. Every question about it — its score components, whether a key
//! cached from them stays exact and until when, how a drained gang
//! responds — is answered in this module, so no other module branches on
//! the preset.

use std::collections::HashMap;

use gfs_cluster::{Cluster, Decision, DrainDecision, Node, RunningTask, SpotHolding};
use gfs_types::{Cards, GpuDemand, NodeId, SimDuration, SimTime, TaskId, TaskSpec, HOUR};

/// A placement-time churn policy: how a scheduler anticipates failures,
/// drains and blast radii when choosing nodes, on top of (not instead of)
/// its own scoring.
///
/// The policy contributes up to three *lexicographically leading* score
/// components, in this priority order; a component a preset leaves off
/// is constant across candidates and falls through to the scheduler's
/// native scores, so [`PlacementPolicy::naive`] reproduces policy-less
/// placement decision for decision (the golden-report pins rely on this):
///
/// 1. **Reliability** ([`PlacementPolicy::hazard_component`]) — a
///    node-failure analogue of the PTS eviction-awareness score
///    (Eq. 15–16): the failure history discounts failure-prone candidates
///    the way ē discounts eviction-prone ones. The history survives repair
///    (a flaky machine stays flaky), in contrast to the eviction history.
/// 2. **Drain avoidance** ([`PlacementPolicy::drain_component`]) —
///    discount nodes whose failure domain currently contains a draining
///    node: maintenance waves walk through racks, so a rack with one node
///    in maintenance is where the next notices land. The same presets
///    take the capacity-aware [`PlacementPolicy::drain_decision`].
/// 3. **Domain spread** ([`PlacementPolicy::spread_count`]) — gang
///    anti-affinity over the cluster's declared
///    [`FailureDomain`](gfs_types::FailureDomain)s: each pod prefers the
///    candidate whose domain hosts the fewest pods of the gang placed so
///    far. Best-effort: when capacity is tight the gang still lands,
///    co-located, because the spread term only *orders* feasible
///    candidates — and reliability outranks it, so anti-affinity chooses
///    among dependable racks rather than overriding into flaky ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPolicy(Preset);

/// The presets, one per constructor of [`PlacementPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Preset {
    Naive,
    DomainSpread,
    ReliabilityScored,
    ChurnAware,
    HazardAware,
}

/// Penalty per failure, in percent (mirrors the Eq. 16 `m`-penalty shape:
/// score `= 1 − 0.01·m·f̄`, floored at 0).
const FAILURE_PENALTY: f64 = 25.0;
/// Half-life of the decayed failure rate.
const FAILURE_HALF_LIFE_SECS: SimDuration = 24 * HOUR;
/// Weight of the domain-mates' mean decayed rate relative to the node's
/// own rate when pooling.
const POOL_WEIGHT: f64 = 0.5;

impl PlacementPolicy {
    /// Window of the windowed reliability score's failure count.
    pub const FAILURE_WINDOW_SECS: SimDuration = 48 * HOUR;

    /// Policy-less placement: every component off. Schedulers built with
    /// this behave bit-for-bit like their pre-policy versions.
    #[must_use]
    pub fn naive() -> Self {
        PlacementPolicy(Preset::Naive)
    }

    /// Gang anti-affinity over failure domains only.
    #[must_use]
    pub fn domain_spread() -> Self {
        PlacementPolicy(Preset::DomainSpread)
    }

    /// Failure-history discounting only: the failure count inside
    /// [`PlacementPolicy::FAILURE_WINDOW_SECS`].
    #[must_use]
    pub fn reliability_scored() -> Self {
        PlacementPolicy(Preset::ReliabilityScored)
    }

    /// The full churn-aware policy: spread + reliability + drain
    /// awareness.
    #[must_use]
    pub fn churn_aware() -> Self {
        PlacementPolicy(Preset::ChurnAware)
    }

    /// [`PlacementPolicy::churn_aware`] with a decayed, domain-pooled
    /// failure rate in place of the windowed count: each failure weighs
    /// `2^(−age/24 h)`, and the node's failure domain adds half its mates'
    /// mean rate, so a machine that failed yesterday scores worse than one
    /// that failed last week, with no cliff at a window edge, and a rack
    /// whose neighbours keep dying is suspect before this machine fails.
    /// Only this preset also discounts preemption targets
    /// ([`PlacementPolicy::preemption_reliability`]). A preset of its own
    /// so [`PlacementPolicy::churn_aware`] decisions stay pinned.
    #[must_use]
    pub fn hazard_aware() -> Self {
        PlacementPolicy(Preset::HazardAware)
    }

    /// Whether the policy's components are piecewise constant in time, so
    /// a cached key stays exact until a cluster mutation or the lifetime
    /// [`PlacementPolicy::hazard_component`] returns. Only the decayed rate
    /// of [`PlacementPolicy::hazard_aware`] is continuous in `now`.
    #[must_use]
    pub fn indexable(&self) -> bool {
        self.0 != Preset::HazardAware
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

    /// The gang-spread count: the already-placed pods of this gang in the
    /// node's domain (0 when the preset does not spread). Fewer is better.
    #[must_use]
    pub fn spread_count(&self, cluster: &Cluster, node: NodeId, used: &DomainUse) -> u32 {
        match self.0 {
            Preset::Naive | Preset::ReliabilityScored => 0,
            Preset::DomainSpread | Preset::ChurnAware | Preset::HazardAware => {
                used.count(PlacementPolicy::domain_key(cluster, node))
            }
        }
    }

    /// The gang-spread score component: minus
    /// [`PlacementPolicy::spread_count`].
    #[must_use]
    pub fn spread_component(&self, cluster: &Cluster, node: NodeId, used: &DomainUse) -> f64 {
        -f64::from(self.spread_count(cluster, node, used))
    }

    /// The drain-avoidance score component: minus the number of nodes
    /// currently draining in the candidate's domain (0 when the preset is
    /// not drain-aware, or when the node belongs to no declared domain).
    #[must_use]
    pub fn drain_component(&self, cluster: &Cluster, node: NodeId) -> f64 {
        match cluster.domain_of(node) {
            Some(d) if self.drain_aware() => -f64::from(cluster.draining_in_domain(d)),
            _ => 0.0,
        }
    }

    /// Whether drains shape the key and the drain response.
    fn drain_aware(&self) -> bool {
        matches!(self.0, Preset::ChurnAware | Preset::HazardAware)
    }

    /// The reliability score component in `[0, 1]`: `max(0, 1 − 0.01·m_f·f̄)`
    /// — Eq. 15–16 transplanted from evictions to hardware failures. `f̄`
    /// is the node's failure count inside
    /// [`PlacementPolicy::FAILURE_WINDOW_SECS`], or under
    /// [`PlacementPolicy::hazard_aware`] its decayed, domain-pooled
    /// failure rate; 1.0 when the preset scores no reliability.
    ///
    /// With the value comes the last instant it holds under pure aging:
    /// when the oldest counted failure leaves the window, `now` itself for
    /// the decayed rate, which moves every second, and `None` when nothing
    /// ages out before the next mutation.
    #[must_use]
    pub fn hazard_component(
        &self,
        cluster: &Cluster,
        node: &Node,
        now: SimTime,
    ) -> (f64, Option<SimTime>) {
        let (failures, until) = match self.0 {
            Preset::Naive | Preset::DomainSpread => return (1.0, None),
            Preset::ReliabilityScored | Preset::ChurnAware => {
                let (count, until) = node
                    .failures()
                    .within(now, PlacementPolicy::FAILURE_WINDOW_SECS);
                (count as f64, until)
            }
            Preset::HazardAware => (pooled_failure_rate(cluster, node, now), Some(now)),
        };
        ((1.0 - 0.01 * FAILURE_PENALTY * failures).max(0.0), until)
    }

    /// The discount the *preemptive* path applies when ranking candidate
    /// target nodes, in `[0, 1]`: the hazard component under
    /// [`PlacementPolicy::hazard_aware`] (the other presets' preemptive
    /// decisions are pinned), constant 1.0 otherwise.
    #[must_use]
    pub fn preemption_reliability(&self, cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
        if self.0 != Preset::HazardAware {
            return 1.0;
        }
        self.hazard_component(cluster, node, now).0
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
    /// healthy one can still re-place into its own vacated cards. Under a
    /// preset that is not drain-aware this is exactly the engine's
    /// historical rule.
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
        if self.drain_aware() {
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

/// The node's effective failure pressure under the decayed model: its
/// own exponentially-decayed rate (24 h half-life) plus half the mean
/// decayed rate of its failure-domain mates. A node outside any declared
/// domain contributes only its own rate.
fn pooled_failure_rate(cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
    let own = node.decayed_failure_rate(now, FAILURE_HALF_LIFE_SECS);
    let Some(d) = cluster.domain_of(node.id()) else {
        return own;
    };
    // the mates in ascending id order, as the all-node fold met them, so
    // the sum keeps its bits
    let (sum, mates) = cluster
        .domain_members(d)
        .iter()
        .filter(|&&m| m != node.id())
        .map(|&m| &cluster.nodes()[m.index()])
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

/// What [`plan_preemption_by`] shows a plan about one candidate node for
/// one pod of the gang.
#[derive(Debug)]
pub struct Candidate<'a, R> {
    /// The candidate node.
    pub node: &'a Node,
    /// The pod's index in the gang.
    pub pod: u32,
    /// The node's idle cards net of the gang's earlier pods and evictions.
    pub idle: Cards,
    /// The node's spot tasks not yet evicted, ascending by id, each with
    /// the cards it holds here — straight from the capacity index.
    pub spots: &'a [SpotHolding],
    /// The rank of the best plan so far for this pod. A node only wins
    /// with a strictly greater rank, so a plan that can prove it cannot
    /// beat this may return `None` without building itself.
    pub best: Option<&'a R>,
}

/// The skeleton of every preemptive placement: walks the pods of an HP
/// `task` one at a time and, for each, asks `plan` what each candidate
/// node would cost, taking the node with the greatest rank (ties keep the
/// lower node id).
///
/// `plan` sees a [`Candidate`] and pushes the victims that make the pod
/// fit onto the (cleared) buffer it is handed, returning their rank, or
/// returns `None` when the node cannot host the pod or cannot beat
/// [`Candidate::best`]. A plan for which `decided` holds, once taken,
/// ends the walk for that pod: nothing later can strictly beat it. The
/// walk allocates nothing per node: the spot lists are the index's own
/// (filtered into one reused buffer once the gang has evicted), and the
/// victim buffers are swapped, not rebuilt.
///
/// Returns `None` when some pod fits nowhere. Victims are deduplicated
/// across pods: a gang victim spanning nodes frees capacity everywhere it
/// runs. [`plan_preemption_scan_by`] is the reference walk this one is
/// checked against.
pub fn plan_preemption_by<R, P, D>(
    cluster: &Cluster,
    task: &TaskSpec,
    mut plan: P,
    decided: D,
) -> Option<Decision>
where
    R: PartialOrd,
    P: FnMut(&Candidate<'_, R>, &mut Vec<TaskId>) -> Option<R>,
    D: Fn(&[TaskId], &R) -> bool,
{
    let need = task.gpus_per_pod.cards();
    // Only nodes that already fit or host an evictable spot pod can ever
    // satisfy a pod; the index enumerates exactly those, ascending by id.
    let candidates = cluster.preemption_candidates(task.gpu_model, need.ceil_cards());
    // The idle cards the capacity index keeps for a node: its whole idle
    // cards while schedulable, 0 while down or draining — what
    // `Node::idle_gpus` counts, without walking the node's cards.
    let actual_idle = |id: NodeId| {
        let key = cluster.node_placement_key(id.raw());
        Cards::whole(key.map_or(0, |(_, idle)| idle))
    };
    // virtual idle cards of the nodes the gang's earlier pods and
    // evictions touched (any other node has its actual idle count); a
    // gang touches a handful of nodes, so a list beats a hash map
    let mut ledger: Vec<(NodeId, Cards)> = Vec::new();
    let idle_of = |ledger: &[(NodeId, Cards)], id: NodeId| {
        let entry = ledger.iter().find(|&&(n, _)| n == id);
        entry.map_or_else(|| actual_idle(id), |&(_, idle)| idle)
    };
    let set_idle = |ledger: &mut Vec<(NodeId, Cards)>, id: NodeId, idle: Cards| {
        if let Some(entry) = ledger.iter_mut().find(|(n, _)| *n == id) {
            entry.1 = idle;
        } else {
            ledger.push((id, idle));
        }
    };
    let mut evicted: Vec<TaskId> = Vec::new();
    let mut pod_nodes = Vec::with_capacity(task.pods as usize);
    let (mut live, mut victims, mut best_victims) = (Vec::new(), Vec::new(), Vec::new());
    for pod in 0..task.pods {
        let mut best: Option<(NodeId, R)> = None;
        for n in candidates.iter().map(|&id| &cluster.nodes()[id as usize]) {
            let idle = idle_of(&ledger, n.id());
            let mut spots = cluster.spot_holdings(n.id());
            if !evicted.is_empty() {
                live.clear();
                live.extend(spots.iter().filter(|h| !evicted.contains(&h.task)));
                spots = &live;
            }
            victims.clear();
            let offer = Candidate {
                node: n,
                pod,
                idle,
                spots,
                best: best.as_ref().map(|(_, rank)| rank),
            };
            let Some(rank) = plan(&offer, &mut victims) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, b)| rank > *b) {
                let stop = decided(&victims, &rank);
                best = Some((n.id(), rank));
                std::mem::swap(&mut victims, &mut best_victims);
                if stop {
                    break;
                }
            }
        }
        let (node, _) = best?;
        for v in &best_victims {
            // credit every node the victim occupies
            if let Some(rt) = cluster.running_task(*v) {
                for p in &rt.placements {
                    let idle = idle_of(&ledger, p.node) + p.alloc.cards();
                    set_idle(&mut ledger, p.node, idle);
                }
            }
            evicted.push(*v);
        }
        let idle = idle_of(&ledger, node) - need;
        set_idle(&mut ledger, node, idle);
        pod_nodes.push(node);
    }
    Some(Decision {
        pod_nodes,
        preemptions: evicted,
    })
}

/// The reference walk behind [`plan_preemption_by`], kept as its oracle:
/// the same pod-by-pod walk over the same candidates, but each node's
/// spot tasks are looked up in the running registry and their holdings
/// re-derived from their placements, and `plan` receives them as an
/// owned list of `(task, cards held here)` and returns its victims with
/// their rank. O(candidates × local spots) registry lookups and two
/// allocations per node.
pub fn plan_preemption_scan_by<R, P, D>(
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
    let candidates = cluster.preemption_candidates(task.gpu_model, need.ceil_cards());
    // keyed lookups only (`get`/`entry`), never iterated, so hash order
    // never decides
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
///
/// A node whose idle and spot cards together fall short is ruled out from
/// the index alone; elsewhere each spot task is looked up once and keyed
/// once. Debug builds check every answer against
/// [`plan_preemption_scan`].
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
    let mut order: Vec<(K, &RunningTask, Cards)> = Vec::new();
    let fast = plan_preemption_by(
        cluster,
        task,
        |c, victims| {
            // the greedy loop below fits exactly when everything does
            if c.idle + c.spots.iter().map(|h| h.cards).sum() < need {
                return None;
            }
            order.clear();
            order.extend(c.spots.iter().map(|h| {
                let rt = cluster
                    .running_task(h.task)
                    .expect("indexed spot is running");
                (victim_order(rt, now), rt, h.cards)
            }));
            order.sort_by(|a, b| a.0.cmp(&b.0));
            let (mut idle, mut waste) = (c.idle, 0.0);
            for &(_, rt, local) in &order {
                if idle >= need {
                    break;
                }
                idle += local;
                waste += rt.waste(now);
                victims.push(rt.spec.id);
            }
            Some(-waste)
        },
        |_, rank| *rank >= 0.0,
    );
    #[cfg(debug_assertions)]
    assert_eq!(
        fast,
        plan_preemption_scan(cluster, task, now, &victim_order),
        "preemption walk diverged from the reference walk at {now:?} on {task:?}"
    );
    fast
}

/// The reference form of [`plan_preemption`], on
/// [`plan_preemption_scan_by`]: the oracle debug builds check it against.
pub fn plan_preemption_scan<K: Ord, F>(
    cluster: &Cluster,
    task: &TaskSpec,
    now: SimTime,
    victim_order: F,
) -> Option<Decision>
where
    F: Fn(&RunningTask, SimTime) -> K,
{
    let need = task.gpus_per_pod.cards();
    plan_preemption_scan_by(
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
            p.hazard_component(&c, &c.nodes()[0], SimTime::from_hours(1)),
            (1.0, None)
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
        let (flaky, until) = p.hazard_component(&c, &c.nodes()[0], now);
        let stable = p.hazard_component(&c, &c.nodes()[1], now);
        assert_eq!(stable, (1.0, None));
        assert!(
            (flaky - 0.75).abs() < 1e-9,
            "one failure at the default penalty"
        );
        // the score holds until that failure leaves the 48 h window
        let edge = SimTime::from_hours(1) + PlacementPolicy::FAILURE_WINDOW_SECS;
        assert_eq!(until, Some(edge));
        assert_eq!(
            p.hazard_component(&c, &c.nodes()[0], edge),
            (flaky, Some(edge))
        );
        assert_eq!(p.hazard_component(&c, &c.nodes()[0], edge + 1), (1.0, None));
        assert_eq!(
            PlacementPolicy::naive().hazard_component(&c, &c.nodes()[0], now),
            (1.0, None)
        );
        // enough failures floor the score at 0 (never negative)
        for h in [5u64, 7, 9, 11] {
            c.fail_node(NodeId::new(0), SimTime::from_hours(h)).unwrap();
            c.restore_node(NodeId::new(0), SimTime::from_hours(h + 1))
                .unwrap();
        }
        assert_eq!(
            p.hazard_component(&c, &c.nodes()[0], SimTime::from_hours(12))
                .0,
            0.0
        );
    }

    #[test]
    fn hazard_component_is_windowed_unless_decayed() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.fail_node(NodeId::new(0), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_hours(2))
            .unwrap();
        let now = SimTime::from_hours(3);
        // the presets without reliability score nothing, the windowed
        // ones count the one failure
        for (p, score) in [
            (PlacementPolicy::naive(), 1.0),
            (PlacementPolicy::domain_spread(), 1.0),
            (PlacementPolicy::reliability_scored(), 0.75),
            (PlacementPolicy::churn_aware(), 0.75),
        ] {
            assert_eq!(p.hazard_component(&c, &c.nodes()[0], now).0, score);
            assert!(p.indexable());
        }
        // the decayed score is time-graded, not a step function
        let p = PlacementPolicy::hazard_aware();
        let at = |h| p.hazard_component(&c, &c.nodes()[0], SimTime::from_hours(h));
        let (fresh, until) = at(2);
        let (stale, _) = at(50);
        assert!(fresh < stale, "{fresh} vs {stale}: old failures fade");
        assert!(stale < 1.0, "but never vanish abruptly");
        assert_eq!(until, Some(SimTime::from_hours(2)), "it holds at now only");
        assert_eq!(p.hazard_component(&c, &c.nodes()[1], now).0, 1.0);
        assert!(!p.indexable(), "continuous in time: no cached key holds");
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
        let mate = pooled_failure_rate(&c, &c.nodes()[1], now);
        let other = pooled_failure_rate(&c, &c.nodes()[2], now);
        assert!(mate > 0.0, "rack-mate inherits pooled suspicion");
        assert_eq!(other, 0.0, "other rack untouched");
        assert!(
            p.hazard_component(&c, &c.nodes()[1], now).0
                < p.hazard_component(&c, &c.nodes()[2], now).0
        );
        // the failed node itself is worse than its innocent mate
        assert!(pooled_failure_rate(&c, &c.nodes()[0], now) > mate);
        // without a topology pooling is inert
        let flat = Cluster::homogeneous(2, GpuModel::A100, 8);
        assert_eq!(
            pooled_failure_rate(&flat, &flat.nodes()[0], now),
            flat.nodes()[0].decayed_failure_rate(now, FAILURE_HALF_LIFE_SECS)
        );
    }

    /// The pooled rate as it was computed before domains kept member
    /// lists: a fold over every node of the cluster, in ascending id order.
    fn pooled_failure_rate_all_nodes(cluster: &Cluster, node: &Node, now: SimTime) -> f64 {
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

    #[test]
    fn pooled_rate_over_members_matches_the_all_node_fold() {
        use gfs_types::{FailureDomain, SplitMix64};
        let mut rng = SplitMix64::new(0x9001);
        let mut draw = |n: u64| rng.next_u64() % n;
        for case in 0..40 {
            let nodes = 2 + draw(30) as u32;
            let mut c = Cluster::homogeneous(nodes, GpuModel::A100, 8);
            // racks over all but a few trailing nodes, which stay outside
            // every domain, and one extra domain over every third node:
            // a node listed twice keeps its rack
            let outside = draw(u64::from(nodes)) as u32;
            let mut domains = FailureDomain::racks(nodes - outside, 1 + draw(6) as u32);
            domains.push(FailureDomain::new((0..nodes).step_by(3).map(NodeId::new)));
            if draw(2) == 0 {
                c.add_node(GpuModel::A100, 8); // minted before: in no domain
            }
            c.set_failure_domains(&domains);
            c.add_node(GpuModel::A100, 8); // minted after: in no domain
            let n = c.nodes().len() as u64;
            let mut t = 0;
            for _ in 0..draw(50) {
                t += 1 + draw(6 * HOUR);
                let id = NodeId::new(draw(n) as u32);
                c.fail_node(id, SimTime::from_secs(t)).unwrap();
                t += 1 + draw(HOUR);
                c.restore_node(id, SimTime::from_secs(t)).unwrap();
            }
            for now in [t, t + draw(3 * 24 * HOUR)].map(SimTime::from_secs) {
                for node in c.nodes() {
                    assert_eq!(
                        pooled_failure_rate(&c, node, now).to_bits(),
                        pooled_failure_rate_all_nodes(&c, node, now).to_bits(),
                        "case {case}: node {} at {now:?}",
                        node.id()
                    );
                }
            }
        }
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
