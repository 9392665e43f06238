//! Cluster state: the set of nodes plus the registry of running tasks and
//! the incrementally-maintained [`CapacityIndex`] that keeps placement
//! queries off the O(nodes × gpus) scan path.

use std::collections::BTreeMap;
use std::sync::Arc;

use gfs_types::{
    Cards, Error, FailureDomain, GpuDemand, GpuModel, NodeId, Priority, Result, SimDuration,
    SimTime, TaskId, TaskSpec,
};
use serde::{Deserialize, Serialize};

use crate::changelog::ChangeLog;
use crate::index::{eq17_waste, CapacityIndex, SpotHolding};
use crate::node::{Node, NodeSnapshot, PodAlloc};

/// Where one pod of a running task lives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PodPlacement {
    /// Hosting node.
    pub node: NodeId,
    /// Concrete cards/fraction on that node.
    pub alloc: PodAlloc,
}

/// A task currently occupying GPUs.
#[derive(Debug, Clone)]
pub struct RunningTask {
    /// The immutable task description (shared with the simulator's task
    /// table, so starting a task never deep-copies the spec).
    pub spec: Arc<TaskSpec>,
    /// One placement per pod.
    pub placements: Vec<PodPlacement>,
    /// When this run segment started executing.
    pub started_at: SimTime,
    /// Work (seconds) preserved from earlier run segments.
    pub carried_progress: SimDuration,
}

impl RunningTask {
    /// Seconds executed in the current run segment.
    #[must_use]
    pub fn executed(&self, now: SimTime) -> SimDuration {
        now.since(self.started_at)
    }

    /// Total work progress including earlier segments.
    #[must_use]
    pub fn progress(&self, now: SimTime) -> SimDuration {
        self.carried_progress + self.executed(now)
    }

    /// Remaining work after `now`.
    #[must_use]
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.spec.duration_secs.saturating_sub(self.progress(now))
    }

    /// Seconds of work that would be lost if preempted at `now`
    /// (the `t − t_check` term of Eq. 17).
    #[must_use]
    pub fn wasted_seconds(&self, now: SimTime) -> SimDuration {
        self.spec
            .checkpoint
            .wasted_work(self.carried_progress, self.executed(now))
    }

    /// The full waste of Eq. 17: `ϑ = g · (t − t_check)` in GPU-seconds.
    #[must_use]
    pub fn waste(&self, now: SimTime) -> f64 {
        let spec = &self.spec;
        eq17_waste(
            spec.total_gpus(),
            spec.checkpoint,
            self.carried_progress,
            self.started_at,
            now,
        )
    }

    /// Progress that survives a preemption at `now`.
    #[must_use]
    pub fn preserved_progress(&self, now: SimTime) -> SimDuration {
        self.spec
            .checkpoint
            .preserved_progress(self.carried_progress, self.executed(now))
    }
}

/// A task drained off a failed node: the run that was killed plus the
/// progress that survived per its checkpoint plan. The simulator requeues
/// it through the normal `Requeue` path.
#[derive(Debug, Clone)]
pub struct Displaced {
    /// The killed run (spec, placements, timing).
    pub task: RunningTask,
    /// Checkpointed work (seconds) to carry into the next run segment.
    pub preserved: SimDuration,
}

/// Capacity totals of the cluster or of one GPU model, maintained
/// incrementally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct Totals {
    /// Cards on all nodes, down ones included.
    cap_static: Cards,
    /// Cards on *in-service* nodes.
    cap: Cards,
    /// Fully idle cards.
    idle: u32,
    /// HP allocation.
    hp: Cards,
    /// Spot allocation.
    spot: Cards,
}

/// The full cluster: nodes plus running-task registry plus spot outcome
/// counters (`G` successes / `F` evictions of Eq. 18).
///
/// Cluster-wide *and per-model* totals (capacity, idle cards, HP/spot
/// allocation) are maintained incrementally as pods are placed and
/// released and as nodes fail and recover, so the whole-cluster accessors
/// the SQA queries every quota tick — and the per-model queries
/// heterogeneous pools need — are O(1) instead of O(nodes × gpus).
///
/// Capacity accessors report *schedulable* capacity: a failed node's
/// cards leave [`Cluster::capacity`]/[`Cluster::idle_gpus`] the moment
/// [`Cluster::fail_node`] drains it, a draining node's the moment
/// [`Cluster::drain_node`] marks it (its pods keep running but nothing
/// new can land), and both return on [`Cluster::restore_node`].
/// [`Cluster::add_node`] extends every total with a freshly minted node.
/// [`Cluster::static_capacity`] keeps the as-built (plus scaled-out)
/// total for availability accounting.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    nodes: Vec<Node>,
    running: BTreeMap<TaskId, RunningTask>,
    index: CapacityIndex,
    spot_completed: u64,
    spot_evicted: u64,
    /// Historical count of tasks displaced by node failures.
    displaced_total: u64,
    /// Historical count of tasks gracefully migrated off draining nodes.
    migrated_total: u64,
    /// Nodes currently out of service.
    down_nodes: usize,
    /// Nodes currently draining (still up, accepting no placements).
    draining_nodes: usize,
    /// Cluster-wide totals.
    totals: Totals,
    /// Per-model totals (same invariants as the cluster-wide ones).
    model_totals: BTreeMap<GpuModel, Totals>,
    /// Failure-domain membership per node index (`None` for nodes outside
    /// every declared domain, and for all nodes when no topology was
    /// declared). Grown with `add_node`.
    node_domain: Vec<Option<u32>>,
    /// Per declared failure domain, its member nodes in ascending id
    /// order — the nodes whose `node_domain` names it. Derived from
    /// `node_domain`, so not serialized.
    domain_members: Vec<Vec<NodeId>>,
    /// Nodes currently draining, per declared failure domain — the O(1)
    /// query behind drain-aware placement ("is this rack mid-maintenance?").
    domain_draining: Vec<u32>,
    /// Node ids touched by score-relevant mutations, for epoch-invalidated
    /// read-side caches ([`ChangeLog`]). Not serialized: snapshot restore
    /// mints a fresh log and caches rebuild.
    changes: ChangeLog,
}

impl Cluster {
    /// Creates a cluster from explicit nodes.
    #[must_use]
    pub fn new(nodes: Vec<Node>) -> Self {
        let index = CapacityIndex::build(&nodes);
        let mut totals = Totals::default();
        let mut model_totals: BTreeMap<GpuModel, Totals> = BTreeMap::new();
        for n in &nodes {
            for t in [&mut totals, model_totals.entry(n.model()).or_default()] {
                t.cap_static += Cards::whole(n.total_gpus());
                t.cap += Cards::whole(n.total_gpus());
                t.idle += n.idle_gpus();
                t.hp += n.hp_allocated();
                t.spot += n.spot_allocated();
            }
        }
        Cluster {
            nodes,
            running: BTreeMap::new(),
            index,
            spot_completed: 0,
            spot_evicted: 0,
            displaced_total: 0,
            migrated_total: 0,
            down_nodes: 0,
            draining_nodes: 0,
            totals,
            model_totals,
            node_domain: Vec::new(),
            domain_members: Vec::new(),
            domain_draining: Vec::new(),
            changes: ChangeLog::default(),
        }
    }

    /// Creates a homogeneous cluster: `node_count` nodes of `model` with
    /// `gpus_per_node` cards each (e.g. the 287-node A100 pool of §4.1).
    #[must_use]
    pub fn homogeneous(node_count: u32, model: GpuModel, gpus_per_node: u32) -> Self {
        Cluster::new(
            (0..node_count)
                .map(|i| Node::new(NodeId::new(i), model, gpus_per_node))
                .collect(),
        )
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for an unknown id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .filter(|n| n.id() == id)
            .ok_or_else(|| Error::NotFound(format!("{id}")))
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        self.nodes
            .get_mut(id.index())
            .filter(|n| n.id() == id)
            .ok_or_else(|| Error::NotFound(format!("{id}")))
    }

    /// In-service GPU cards (optionally restricted to one model) — O(1),
    /// down nodes excluded.
    #[must_use]
    pub fn capacity(&self, model: Option<GpuModel>) -> f64 {
        self.total(model, |t| t.cap).as_f64()
    }

    /// As-built GPU cards (optionally per model), down nodes included —
    /// the denominator of availability accounting.
    #[must_use]
    pub fn static_capacity(&self, model: Option<GpuModel>) -> f64 {
        self.total(model, |t| t.cap_static).as_f64()
    }

    /// One total, cluster-wide or of one model.
    fn total<T: Default>(&self, model: Option<GpuModel>, of: impl Fn(&Totals) -> T) -> T {
        match model {
            None => of(&self.totals),
            Some(m) => self.model_totals.get(&m).map_or_else(T::default, of),
        }
    }

    /// The cluster-wide totals and `model`'s, to update together.
    fn totals_mut(&mut self, model: GpuModel) -> [&mut Totals; 2] {
        [
            &mut self.totals,
            self.model_totals.entry(model).or_default(),
        ]
    }

    /// Nodes currently in service.
    #[must_use]
    pub fn up_node_count(&self) -> usize {
        self.nodes.len() - self.down_nodes
    }

    /// Nodes currently out of service.
    #[must_use]
    pub fn down_node_count(&self) -> usize {
        self.down_nodes
    }

    /// Nodes currently draining for maintenance (up, but accepting no new
    /// placements).
    #[must_use]
    pub fn draining_node_count(&self) -> usize {
        self.draining_nodes
    }

    /// Nodes that can accept new placements: in service and not draining.
    #[must_use]
    pub fn schedulable_node_count(&self) -> usize {
        self.nodes.len() - self.down_nodes - self.draining_nodes
    }

    /// Count of completely idle cards (optionally per model) — the `S₀`
    /// of Eq. 10. O(1), down nodes excluded.
    #[must_use]
    pub fn idle_gpus(&self, model: Option<GpuModel>) -> u32 {
        self.total(model, |t| t.idle)
    }

    /// Cards allocated to HP tasks (optionally per model) — O(1).
    #[must_use]
    pub fn hp_allocated(&self, model: Option<GpuModel>) -> f64 {
        self.total(model, |t| t.hp).as_f64()
    }

    /// Cards allocated to spot tasks (optionally per model) — the `Sₐ`
    /// of Eq. 10. O(1).
    #[must_use]
    pub fn spot_allocated(&self, model: Option<GpuModel>) -> f64 {
        self.total(model, |t| t.spot).as_f64()
    }

    /// Overall allocation rate in `[0, 1]` (optionally per model).
    #[must_use]
    pub fn allocation_rate(&self, model: Option<GpuModel>) -> f64 {
        let cap = self.capacity(model);
        if cap == 0.0 {
            0.0
        } else {
            (self.hp_allocated(model) + self.spot_allocated(model)) / cap
        }
    }

    /// Registry of running tasks.
    pub fn running(&self) -> impl Iterator<Item = &RunningTask> {
        self.running.values()
    }

    /// Number of running tasks.
    #[must_use]
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Looks up one running task.
    #[must_use]
    pub fn running_task(&self, id: TaskId) -> Option<&RunningTask> {
        self.running.get(&id)
    }

    /// Spot tasks with at least one pod on `node`, ascending by task id.
    ///
    /// Served from the capacity index: O(spot tasks on the node) instead of
    /// a scan over the whole running registry.
    #[must_use]
    pub fn spot_tasks_on(&self, node: NodeId) -> Vec<&RunningTask> {
        self.index
            .spot_holdings(node)
            .iter()
            .map(|h| &self.running[&h.task])
            .collect()
    }

    /// Spot tasks with at least one pod on `node`, ascending by task id,
    /// each with the cards it holds on `node` and its Eq. 17 waste — the
    /// index's own list, with no registry lookup and no allocation.
    #[must_use]
    pub fn spot_holdings(&self, node: NodeId) -> &[SpotHolding] {
        self.index.spot_holdings(node)
    }

    /// Whether `node` hosts at least one spot pod (index lookup).
    #[must_use]
    pub fn has_spot_on(&self, node: NodeId) -> bool {
        self.index.has_spot_on(node)
    }

    /// Number of nodes whose every card is idle (maintained incrementally).
    #[must_use]
    pub fn fully_idle_nodes(&self) -> usize {
        self.index.fully_idle_nodes()
    }

    /// Ascending node ids of `model` nodes with at least `need` whole idle
    /// cards — an O(answer) indexed query replacing full-cluster scans.
    #[must_use]
    pub fn whole_fit_candidates(&self, model: GpuModel, need: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.index.whole_fit_candidates(model, need, &mut out);
        out
    }

    /// Ascending node ids of `model` nodes that fit a `frac` share of one
    /// card — exactly the nodes a brute-force [`Node::can_fit`] scan
    /// accepts.
    #[must_use]
    pub fn fraction_fit_candidates(&self, model: GpuModel, frac: Cards) -> Vec<u32> {
        let mut out = Vec::new();
        self.index.fraction_fit_candidates(model, frac, &mut out);
        debug_assert!(
            out.iter()
                .all(|&id| self.nodes[id as usize].can_fit(GpuDemand::Fraction(frac))),
            "fraction-fit candidate that does not fit"
        );
        out
    }

    /// Ascending node ids worth visiting when planning preemption of
    /// `need` cards on `model` nodes: nodes that already fit plus nodes
    /// hosting at least one spot pod. Other nodes cannot become feasible
    /// by evicting spot tasks.
    #[must_use]
    pub fn preemption_candidates(&self, model: GpuModel, need: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.index.preemption_candidates(model, need, &mut out);
        out
    }

    /// Walks `model` nodes best-fit-first (smallest sufficient idle count,
    /// ascending node id inside a bucket) until `accept` returns `true`,
    /// and returns that node — O(nodes skipped + 1). See
    /// [`CapacityIndex::best_fit_walk`].
    pub fn best_fit_walk(
        &self,
        model: GpuModel,
        need: u32,
        accept: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        self.index.best_fit_walk(model, need, accept)
    }

    /// The capacity-index placement key of node `id`: `(model, idle
    /// cards)` while schedulable, `None` while down or draining. See
    /// [`CapacityIndex::node_placement_key`].
    #[must_use]
    pub fn node_placement_key(&self, id: u32) -> Option<(GpuModel, u32)> {
        self.index.node_placement_key(id)
    }

    /// The mutation log feeding epoch-invalidated placement caches: every
    /// score-relevant node change (occupancy, eviction records,
    /// fail/drain/restore, scale-out) is recorded here. Readers keep a
    /// [`ChangeLog::cursor`] and replay only what changed.
    #[must_use]
    pub fn change_log(&self) -> &ChangeLog {
        &self.changes
    }

    /// Historical count of spot tasks that ran to completion (`G`).
    #[must_use]
    pub fn spot_completed(&self) -> u64 {
        self.spot_completed
    }

    /// Historical count of spot eviction events (`F`).
    #[must_use]
    pub fn spot_evicted(&self) -> u64 {
        self.spot_evicted
    }

    /// Historical count of tasks displaced by node failures (kept apart
    /// from `F`: displacement is hardware churn, not preemption).
    #[must_use]
    pub fn displaced(&self) -> u64 {
        self.displaced_total
    }

    /// Historical count of tasks gracefully migrated off draining nodes
    /// (kept apart from both `F` and the forced-displacement count: a
    /// migration honours the drain notice instead of losing the node).
    #[must_use]
    pub fn migrated(&self) -> u64 {
        self.migrated_total
    }

    /// Declares the cluster's failure-domain topology (racks, pods — the
    /// blast radii of correlated failures). Nodes listed in no domain, and
    /// every node when this is never called, report
    /// [`Cluster::domain_of`]` == None`. A node listed twice keeps its
    /// first domain; unknown node ids are ignored (shape-shared
    /// topologies degrade gracefully, like shape-shared dynamics plans).
    ///
    /// Mints a fresh [`ChangeLog`] instance: every node's domain (and so
    /// any cached score keyed on it) may have changed, which is a rebuild
    /// for readers, exactly as for a clone.
    pub fn set_failure_domains(&mut self, domains: &[FailureDomain]) {
        self.changes = ChangeLog::default();
        self.node_domain = vec![None; self.nodes.len()];
        self.domain_draining = vec![0; domains.len()];
        for (d, domain) in domains.iter().enumerate() {
            for &node in &domain.nodes {
                if let Some(slot) = self.node_domain.get_mut(node.index()) {
                    slot.get_or_insert(d as u32);
                }
            }
        }
        self.domain_members = members_of(&self.node_domain, domains.len());
        // a topology declared mid-run must pick up in-progress drains
        for n in &self.nodes {
            if n.is_draining() {
                if let Some(Some(d)) = self.node_domain.get(n.id().index()) {
                    self.domain_draining[*d as usize] += 1;
                }
            }
        }
    }

    /// The failure domain `id` belongs to, as an index into the declared
    /// topology — O(1). `None` when the node is outside every domain or
    /// no topology was declared.
    #[must_use]
    pub fn domain_of(&self, id: NodeId) -> Option<u32> {
        self.node_domain.get(id.index()).copied().flatten()
    }

    /// The nodes of failure domain `domain`, ascending by id: exactly
    /// those whose [`Cluster::domain_of`] is `Some(domain)`. Empty for an
    /// undeclared domain.
    #[must_use]
    pub fn domain_members(&self, domain: u32) -> &[NodeId] {
        self.domain_members
            .get(domain as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Number of declared failure domains (0 without a topology).
    #[must_use]
    pub fn failure_domain_count(&self) -> usize {
        self.domain_draining.len()
    }

    /// Nodes currently draining inside failure domain `domain` — O(1),
    /// maintained incrementally through drain/restore/fail. Drain-aware
    /// placement uses this to steer gangs away from a rack that is
    /// mid-maintenance (its remaining nodes are usually next in the wave).
    #[must_use]
    pub fn draining_in_domain(&self, domain: u32) -> u32 {
        self.domain_draining
            .get(domain as usize)
            .copied()
            .unwrap_or(0)
    }

    fn change_domain_draining(&mut self, id: NodeId, delta: i32) {
        if let Some(Some(d)) = self.node_domain.get(id.index()) {
            let slot = &mut self.domain_draining[*d as usize];
            *slot = slot
                .checked_add_signed(delta)
                .expect("drain counts balance");
        }
    }

    /// Places `spec` with one pod per entry of `pod_nodes`, atomically
    /// (gang semantics): on any failure every already-placed pod is rolled
    /// back and an error returned.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidTask`] if the node list length differs from the pod
    /// count or the task is already running; [`Error::Capacity`] if any pod
    /// does not fit.
    pub fn start_task(
        &mut self,
        spec: impl Into<Arc<TaskSpec>>,
        pod_nodes: &[NodeId],
        now: SimTime,
        carried_progress: SimDuration,
    ) -> Result<()> {
        let spec: Arc<TaskSpec> = spec.into();
        if pod_nodes.len() != spec.pods as usize {
            return Err(Error::InvalidTask(format!(
                "{}: {} pod nodes for {} pods",
                spec.id,
                pod_nodes.len(),
                spec.pods
            )));
        }
        if self.running.contains_key(&spec.id) {
            return Err(Error::InvalidTask(format!(
                "{} is already running",
                spec.id
            )));
        }
        let mut placements: Vec<PodPlacement> = Vec::with_capacity(pod_nodes.len());
        for &nid in pod_nodes {
            let demand = spec.gpus_per_pod;
            let priority = spec.priority;
            let task = spec.id;
            let result = self.node_mut(nid).and_then(|n| {
                let before = (n.idle_gpus(), n.hp_allocated(), n.spot_allocated());
                n.place_pod(task, demand, priority)
                    .map(|alloc| (before, alloc))
            });
            match result {
                Ok((before, alloc)) => {
                    placements.push(PodPlacement { node: nid, alloc });
                    self.apply_node_delta(nid, before);
                }
                Err(e) => {
                    // roll back the partial gang; the failing node itself
                    // was never mutated
                    for p in &placements {
                        self.free_pod(task, p, priority);
                    }
                    return Err(e);
                }
            }
            let node = &self.nodes[nid.index()];
            self.index.refresh(node);
            self.changes.note(nid.raw());
        }
        if spec.priority.is_spot() {
            for p in &placements {
                let pod = SpotHolding::new(&spec, p.alloc.cards(), now, carried_progress);
                self.index.add_spot(p.node, pod);
            }
        }
        self.running.insert(
            spec.id,
            RunningTask {
                spec,
                placements,
                started_at: now,
                carried_progress,
            },
        );
        Ok(())
    }

    /// Completes a running task, releasing its GPUs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if the task is not running.
    pub fn finish_task(&mut self, id: TaskId, _now: SimTime) -> Result<RunningTask> {
        let rt = self
            .running
            .remove(&id)
            .ok_or_else(|| Error::NotFound(format!("{id} not running")))?;
        self.release_placements(&rt);
        if rt.spec.priority.is_spot() {
            self.spot_completed += 1;
        }
        Ok(rt)
    }

    /// Evicts a running spot task at `now`: releases its GPUs, records the
    /// eviction on each hosting node, bumps `F`, and returns the task with
    /// the progress that survived (per its checkpoint plan).
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the task is not running;
    /// [`Error::InvalidTask`] when attempting to evict an HP task
    /// (constraint 12c/12d).
    pub fn evict_task(&mut self, id: TaskId, now: SimTime) -> Result<(RunningTask, SimDuration)> {
        let is_hp = self
            .running
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("{id} not running")))?
            .spec
            .priority
            .is_hp();
        if is_hp {
            return Err(Error::InvalidTask(format!(
                "{id} is HP and cannot be evicted"
            )));
        }
        let rt = self.running.remove(&id).expect("presence checked above");
        self.release_placements(&rt);
        let mut seen = Vec::new();
        for p in &rt.placements {
            if !seen.contains(&p.node) {
                seen.push(p.node);
                self.node_mut(p.node)
                    .expect("hosting node exists")
                    .record_eviction(now);
                // eviction-window scores changed even though occupancy was
                // already re-noted by the release above
                self.changes.note(p.node.raw());
            }
        }
        self.spot_evicted += 1;
        let preserved = rt.preserved_progress(now);
        Ok((rt, preserved))
    }

    fn release_placements(&mut self, rt: &RunningTask) {
        for p in &rt.placements {
            self.free_pod(rt.spec.id, p, rt.spec.priority);
            if rt.spec.priority.is_spot() {
                self.index.remove_spot(p.node, rt.spec.id);
            }
        }
    }

    /// Frees one placed pod: the node's cards, the capacity totals, its
    /// capacity-index keys and the change log. The one per-pod release
    /// path of every exit (finish, evict, migrate, displacement) and of a
    /// gang's rollback.
    fn free_pod(&mut self, task: TaskId, p: &PodPlacement, priority: Priority) {
        let n = &self.nodes[p.node.index()];
        let before = (n.idle_gpus(), n.hp_allocated(), n.spot_allocated());
        self.nodes[p.node.index()]
            .release_pod(task, &p.alloc, priority)
            .expect("placed pods are consistent");
        self.apply_node_delta(p.node, before);
        self.index.refresh(&self.nodes[p.node.index()]);
        self.changes.note(p.node.raw());
    }

    /// Folds one node's state change into the cluster-wide and per-model
    /// totals, given a `(idle, hp, spot)` snapshot taken before the
    /// mutation. Card amounts are integers, so the totals are exact by
    /// construction and always equal a fresh scan.
    fn apply_node_delta(&mut self, id: NodeId, before: (u32, Cards, Cards)) {
        let n = &self.nodes[id.index()];
        let (idle, hp, spot) = (n.idle_gpus(), n.hp_allocated(), n.spot_allocated());
        let model = n.model();
        for t in self.totals_mut(model) {
            t.idle = t.idle + idle - before.0;
            t.hp = t.hp + hp - before.1;
            t.spot = t.spot + spot - before.2;
        }
    }

    /// Returns `id`'s cards and capacity-index keys to the placement
    /// structures — the single re-index path shared by
    /// [`Cluster::restore_node`] (repair finished / drain cancelled) and
    /// [`Cluster::add_node`] (fresh machine). The node must already be
    /// schedulable; totals are credited from its *actual* card state, so
    /// a drain-cancelled node with pods still running re-enters with only
    /// its genuinely free cards.
    fn bring_into_service(&mut self, id: NodeId) {
        let node = &self.nodes[id.index()];
        debug_assert!(node.is_schedulable(), "re-index of an out-of-service node");
        let cards = Cards::whole(node.total_gpus());
        let idle = node.idle_gpus();
        let model = node.model();
        for t in self.totals_mut(model) {
            t.idle += idle;
            t.cap += cards;
        }
        self.index.restore_node(&self.nodes[id.index()]);
        self.changes.note(id.raw());
    }

    /// The inverse of `bring_into_service`, for a node that is still
    /// schedulable: its cards and capacity-index keys leave.
    fn take_out_of_service(&mut self, id: NodeId) {
        let node = &self.nodes[id.index()];
        debug_assert!(node.is_schedulable(), "removal of an out-of-service node");
        let (idle, cards, model) = (node.idle_gpus(), node.total_gpus(), node.model());
        for t in self.totals_mut(model) {
            t.idle -= idle;
            t.cap -= Cards::whole(cards);
        }
        self.index.remove_node(&self.nodes[id.index()]);
        self.changes.note(id.raw());
    }

    /// Starts a maintenance drain of `id`, to be forced down at
    /// `deadline`: the node accepts no new placements from this moment
    /// (its capacity-index keys vanish and its cards leave the
    /// in-service capacity totals), while running pods keep executing —
    /// they may finish inside the notice window, be migrated by the
    /// simulator, or be forcibly displaced at the deadline
    /// ([`Cluster::fail_node`] accounting).
    ///
    /// Note that allocation totals keep counting the draining node's
    /// running pods, so `allocation_rate` can transiently exceed 1 during
    /// a drain window — allocated work on capacity that is on its way
    /// out.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for an unknown id; [`Error::InvalidTask`] when
    /// the node is down or already draining.
    pub fn drain_node(&mut self, id: NodeId, deadline: SimTime) -> Result<()> {
        let node = self.node(id)?;
        if !node.is_up() {
            return Err(Error::InvalidTask(format!("{id} is down and cannot drain")));
        }
        if node.is_draining() {
            return Err(Error::InvalidTask(format!("{id} is already draining")));
        }
        // placement keys vanish; the spot locality list stays (the node
        // still hosts its pods until they finish or the deadline hits)
        self.take_out_of_service(id);
        self.nodes[id.index()].set_draining(Some(deadline));
        self.draining_nodes += 1;
        self.change_domain_draining(id, 1);
        Ok(())
    }

    /// Adds a fresh node of `model` with `gpus_per_node` cards, minting
    /// the next sequential [`NodeId`] (scale-out / autoscaling). The new
    /// node joins every capacity total and placement query immediately.
    pub fn add_node(&mut self, model: GpuModel, gpus_per_node: u32) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, model, gpus_per_node));
        if !self.node_domain.is_empty() {
            // a minted node belongs to no declared blast radius
            self.node_domain.push(None);
        }
        let cards = Cards::whole(gpus_per_node);
        for t in self.totals_mut(model) {
            t.cap_static += cards;
        }
        self.bring_into_service(id);
        id
    }

    /// Gracefully migrates a running task off its nodes (drain-notice
    /// path): releases its GPUs everywhere and returns the task with the
    /// progress its checkpoint plan preserved, ready to requeue. Unlike
    /// [`Cluster::evict_task`] this records no eviction (no `F` bump, no
    /// per-node eviction history — honouring a maintenance notice is not
    /// preemption pressure), and unlike a failure the gang leaves on its
    /// own terms before the node goes down.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the task is not running.
    pub fn migrate_task(&mut self, id: TaskId, now: SimTime) -> Result<(RunningTask, SimDuration)> {
        let rt = self
            .running
            .remove(&id)
            .ok_or_else(|| Error::NotFound(format!("{id} not running")))?;
        self.release_placements(&rt);
        let preserved = rt.preserved_progress(now);
        self.migrated_total += 1;
        Ok((rt, preserved))
    }

    /// Takes `id` out of service at `now`: every task with at least one
    /// pod on it is drained through the shared release path (the same
    /// bookkeeping evictions and rollbacks use), the node's capacity-index
    /// buckets vanish atomically, and its cards leave every capacity
    /// total. Both HP and spot tasks die — hardware does not honour
    /// priorities.
    ///
    /// The drained tasks are returned in ascending task-id order with the
    /// progress their checkpoint plans preserved, ready to requeue.
    /// Displacements are *not* recorded as evictions: `F` (Eq. 18), the
    /// per-node eviction history (Eq. 15) and the SQA feedback loop
    /// (Eq. 11) model preemption behaviour, and hardware churn polluting
    /// them would mis-tune spot admission.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for an unknown id; [`Error::InvalidTask`] when
    /// the node is already down.
    pub fn fail_node(&mut self, id: NodeId, now: SimTime) -> Result<Vec<Displaced>> {
        if !self.node(id)?.is_up() {
            return Err(Error::InvalidTask(format!("{id} is already down")));
        }
        // a draining node's cards and placement keys already left the
        // totals/index when the drain started; don't remove them twice
        let was_draining = self.nodes[id.index()].is_draining();
        // gang semantics in reverse: a task with any pod on the failed
        // node loses its whole gang, everywhere it runs
        let victims: Vec<TaskId> = self
            .running
            .iter()
            .filter(|(_, rt)| rt.placements.iter().any(|p| p.node == id))
            .map(|(tid, _)| *tid)
            .collect();
        let mut displaced = Vec::with_capacity(victims.len());
        for tid in victims {
            let rt = self
                .running
                .remove(&tid)
                .expect("collected from the registry");
            self.release_placements(&rt);
            let preserved = rt.preserved_progress(now);
            self.displaced_total += 1;
            displaced.push(Displaced {
                task: rt,
                preserved,
            });
        }
        // the node is now empty: its index keys and cards leave with it,
        // unless they already did when its drain started
        if was_draining {
            self.draining_nodes -= 1;
            self.change_domain_draining(id, -1);
            self.changes.note(id.raw());
        } else {
            self.take_out_of_service(id);
        }
        let node = &mut self.nodes[id.index()];
        node.set_up(false);
        node.set_draining(None);
        node.record_failure(now);
        self.down_nodes += 1;
        Ok(displaced)
    }

    /// Returns `id` to service. For a *down* node: all cards idle,
    /// capacity totals and index buckets restored, eviction history
    /// cleared (a machine back from repair must not inherit pre-failure
    /// eviction pressure in the Eq. 15–16 scores). For a *draining* node
    /// the drain is cancelled: its running pods were never disturbed, its
    /// still-free cards return to the totals, and its eviction history is
    /// kept — nothing was repaired.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] for an unknown id; [`Error::InvalidTask`] when
    /// the node is already in full service.
    pub fn restore_node(&mut self, id: NodeId, _now: SimTime) -> Result<()> {
        let node = self.node(id)?;
        if node.is_up() && !node.is_draining() {
            return Err(Error::InvalidTask(format!("{id} is already up")));
        }
        let node = &mut self.nodes[id.index()];
        if node.is_up() {
            // cancel the in-progress drain; pods kept running throughout
            node.set_draining(None);
            self.draining_nodes -= 1;
            self.change_domain_draining(id, -1);
        } else {
            node.set_up(true);
            node.clear_eviction_history();
            self.down_nodes -= 1;
        }
        self.bring_into_service(id);
        Ok(())
    }

    /// Appends the cluster's full state to `out` as canonical JSON — the
    /// one cluster snapshot encoder: every node (card occupancy,
    /// failure/drain history, up/draining flags), the running-task
    /// registry, the spot/displacement/migration counters and every
    /// incrementally-accumulated capacity total, verbatim, never
    /// recomputed, so restore is bit-identical. It streams off the
    /// live state (no node-array clone, no per-task spec deep copies), so
    /// checkpoint cost is linear in the bytes written. Fields appear in
    /// [`ClusterSnapshot`]'s declaration order, which is what the decoder
    /// reads back. The [`CapacityIndex`] is *not* written: it is a pure
    /// acceleration structure and [`Cluster::from_snapshot`] rebuilds it
    /// to a behaviorally identical state.
    pub fn snapshot_json_into(&self, out: &mut String) {
        out.push_str("{\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            n.serialize_json(out);
        }
        out.push_str("],\"running\":[");
        for (i, rt) in self.running.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"spec\":");
            rt.spec.serialize_json(out);
            out.push_str(",\"placements\":");
            rt.placements.serialize_json(out);
            out.push_str(",\"started_at\":");
            rt.started_at.serialize_json(out);
            out.push_str(",\"carried_progress\":");
            rt.carried_progress.serialize_json(out);
            out.push('}');
        }
        out.push_str("],\"spot_completed\":");
        self.spot_completed.serialize_json(out);
        out.push_str(",\"spot_evicted\":");
        self.spot_evicted.serialize_json(out);
        out.push_str(",\"displaced_total\":");
        self.displaced_total.serialize_json(out);
        out.push_str(",\"migrated_total\":");
        self.migrated_total.serialize_json(out);
        out.push_str(",\"down_nodes\":");
        self.down_nodes.serialize_json(out);
        out.push_str(",\"draining_nodes\":");
        self.draining_nodes.serialize_json(out);
        let t = &self.totals;
        out.push_str(",\"cap_total\":");
        t.cap.serialize_json(out);
        out.push_str(",\"cap_static\":");
        t.cap_static.serialize_json(out);
        out.push_str(",\"idle_total\":");
        t.idle.serialize_json(out);
        out.push_str(",\"hp_total\":");
        t.hp.serialize_json(out);
        out.push_str(",\"spot_total\":");
        t.spot.serialize_json(out);
        out.push_str(",\"model_totals\":[");
        for (i, (m, t)) in self.model_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            m.serialize_json(out);
            out.push(',');
            t.serialize_json(out);
            out.push(']');
        }
        out.push_str("],\"node_domain\":");
        self.node_domain.serialize_json(out);
        out.push_str(",\"domain_draining\":");
        self.domain_draining.serialize_json(out);
        out.push('}');
    }

    /// Rebuilds a cluster from a [`ClusterSnapshot`]. All persisted
    /// fields are restored verbatim; the capacity index is rebuilt from
    /// the restored nodes (full build, then removal of unschedulable
    /// nodes, then re-registration of every running spot placement),
    /// which reproduces the live index's observable behaviour exactly.
    #[must_use]
    // gfs-lint: allow(changelog-coverage, "constructor returns a fresh ChangeLog instance; instance minting already forces every ScoreIndex reader to full-rebuild")
    pub fn from_snapshot(s: ClusterSnapshot) -> Cluster {
        let nodes: Vec<Node> = s.nodes.into_iter().map(Node::from_snapshot).collect();
        let mut index = CapacityIndex::build(&nodes);
        for n in &nodes {
            if !n.is_schedulable() {
                index.remove_node(n);
            }
        }
        let mut running = BTreeMap::new();
        for e in s.running {
            let spec = Arc::new(e.spec);
            if spec.priority.is_spot() {
                for p in &e.placements {
                    let pod =
                        SpotHolding::new(&spec, p.alloc.cards(), e.started_at, e.carried_progress);
                    index.add_spot(p.node, pod);
                }
            }
            running.insert(
                spec.id,
                RunningTask {
                    spec,
                    placements: e.placements,
                    started_at: e.started_at,
                    carried_progress: e.carried_progress,
                },
            );
        }
        Cluster {
            nodes,
            running,
            index,
            spot_completed: s.spot_completed,
            spot_evicted: s.spot_evicted,
            displaced_total: s.displaced_total,
            migrated_total: s.migrated_total,
            down_nodes: s.down_nodes,
            draining_nodes: s.draining_nodes,
            totals: Totals {
                cap_static: s.cap_static,
                cap: s.cap_total,
                idle: s.idle_total,
                hp: s.hp_total,
                spot: s.spot_total,
            },
            model_totals: s.model_totals.into_iter().collect(),
            domain_members: members_of(&s.node_domain, s.domain_draining.len()),
            node_domain: s.node_domain,
            domain_draining: s.domain_draining,
            changes: ChangeLog::default(),
        }
    }
}

/// Each of `domains` domains' member nodes, ascending, from the per-node
/// membership `node_domain`.
fn members_of(node_domain: &[Option<u32>], domains: usize) -> Vec<Vec<NodeId>> {
    let mut members = vec![Vec::new(); domains];
    for (i, d) in node_domain.iter().enumerate() {
        if let Some(list) = d.and_then(|d| members.get_mut(d as usize)) {
            list.push(NodeId::new(i as u32));
        }
    }
    members
}

/// A parsed [`Cluster::snapshot_json_into`] document, ready for
/// [`Cluster::from_snapshot`]. Decode-only: the encoder streams off the
/// live cluster.
#[derive(Debug, Deserialize)]
pub struct ClusterSnapshot {
    nodes: Vec<NodeSnapshot>,
    running: Vec<RunningEntry>,
    spot_completed: u64,
    spot_evicted: u64,
    displaced_total: u64,
    migrated_total: u64,
    down_nodes: usize,
    draining_nodes: usize,
    cap_total: Cards,
    cap_static: Cards,
    idle_total: u32,
    hp_total: Cards,
    spot_total: Cards,
    model_totals: Vec<(GpuModel, Totals)>,
    node_domain: Vec<Option<u32>>,
    domain_draining: Vec<u32>,
}

/// One running task inside a [`ClusterSnapshot`]: the spec is stored by
/// value (the `Arc` sharing with the simulator's task table is an
/// in-memory optimisation, not state).
#[derive(Debug, Deserialize)]
struct RunningEntry {
    spec: TaskSpec,
    placements: Vec<PodPlacement>,
    started_at: SimTime,
    carried_progress: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{CheckpointPlan, GpuDemand, Priority, HOUR};

    fn spec(id: u64, priority: Priority, pods: u32, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .pods(pods)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(7_200)
            .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
            .build()
            .unwrap()
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(4, GpuModel::A100, 8)
    }

    #[test]
    fn capacity_accounting() {
        let c = cluster();
        assert_eq!(c.capacity(None), 32.0);
        assert_eq!(c.idle_gpus(None), 32);
        assert_eq!(c.capacity(Some(GpuModel::H800)), 0.0);
        assert_eq!(c.allocation_rate(None), 0.0);
    }

    #[test]
    fn start_finish_round_trip() {
        let mut c = cluster();
        let s = spec(1, Priority::Hp, 2, 4);
        c.start_task(s, &[NodeId::new(0), NodeId::new(1)], SimTime::ZERO, 0)
            .unwrap();
        assert_eq!(c.hp_allocated(None), 8.0);
        assert_eq!(c.running_count(), 1);
        let rt = c
            .finish_task(TaskId::new(1), SimTime::from_hours(2))
            .unwrap();
        assert_eq!(rt.spec.id, TaskId::new(1));
        assert_eq!(c.hp_allocated(None), 0.0);
        assert_eq!(c.running_count(), 0);
    }

    #[test]
    fn gang_placement_rolls_back_atomically() {
        let mut c = cluster();
        // fill node 1 completely
        c.start_task(
            spec(1, Priority::Hp, 1, 8),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        // gang asking for node0 + node1 must fail and leave node0 untouched
        let r = c.start_task(
            spec(2, Priority::Hp, 2, 8),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        );
        assert!(r.is_err());
        assert_eq!(
            c.node(NodeId::new(0)).unwrap().idle_gpus(),
            8,
            "rollback freed node 0"
        );
        assert_eq!(c.running_count(), 1);
    }

    #[test]
    fn eviction_counts_and_preserves_checkpoint() {
        let mut c = cluster();
        let s = spec(3, Priority::Spot, 1, 4);
        c.start_task(s, &[NodeId::new(2)], SimTime::ZERO, 0)
            .unwrap();
        let now = SimTime::from_secs(4_000); // two checkpoints at 1800/3600
        let (rt, preserved) = c.evict_task(TaskId::new(3), now).unwrap();
        assert_eq!(preserved, 3_600);
        assert_eq!(rt.wasted_seconds(now), 400);
        assert!((rt.waste(now) - 4.0 * 400.0).abs() < 1e-9);
        assert_eq!(c.spot_evicted(), 1);
        assert_eq!(
            c.node(NodeId::new(2))
                .unwrap()
                .evictions()
                .within(now, 3_600 * 2)
                .0,
            1
        );
    }

    #[test]
    fn hp_tasks_cannot_be_evicted() {
        let mut c = cluster();
        c.start_task(
            spec(4, Priority::Hp, 1, 1),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        assert!(c.evict_task(TaskId::new(4), SimTime::ZERO).is_err());
        assert_eq!(
            c.running_count(),
            1,
            "task must survive the failed eviction"
        );
    }

    #[test]
    fn spot_tasks_on_filters_by_node() {
        let mut c = cluster();
        c.start_task(
            spec(5, Priority::Spot, 1, 2),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(6, Priority::Spot, 1, 2),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(7, Priority::Hp, 1, 2),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let on0 = c.spot_tasks_on(NodeId::new(0));
        assert_eq!(on0.len(), 1);
        assert_eq!(on0[0].spec.id, TaskId::new(5));
    }

    #[test]
    fn remaining_work_shrinks_with_time() {
        let mut c = cluster();
        c.start_task(
            spec(8, Priority::Spot, 1, 1),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let rt = c.running_task(TaskId::new(8)).unwrap();
        assert_eq!(rt.remaining(SimTime::from_secs(7_200)), 0);
        assert_eq!(rt.remaining(SimTime::from_secs(3_600)), 3_600);
        assert_eq!(rt.progress(SimTime::from_secs(100)), 100);
    }

    #[test]
    fn duplicate_start_rejected() {
        let mut c = cluster();
        c.start_task(
            spec(9, Priority::Hp, 1, 1),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let again = spec(9, Priority::Hp, 1, 1);
        assert!(c
            .start_task(again, &[NodeId::new(1)], SimTime::ZERO, 0)
            .is_err());
    }

    /// The O(1) cluster totals must track brute-force node scans through
    /// placements, finishes, evictions and failed (rolled-back) gangs.
    #[test]
    fn cached_totals_match_scans() {
        let assert_consistent = |c: &Cluster| {
            let idle: u32 = c.nodes().iter().map(Node::idle_gpus).sum();
            let hp: Cards = c.nodes().iter().map(Node::hp_allocated).sum();
            let spot: Cards = c.nodes().iter().map(Node::spot_allocated).sum();
            let cap: f64 = c.nodes().iter().map(|n| f64::from(n.total_gpus())).sum();
            assert_eq!(c.idle_gpus(None), idle);
            assert_eq!(c.hp_allocated(None), hp.as_f64());
            assert_eq!(c.spot_allocated(None), spot.as_f64());
            assert_eq!(c.capacity(None), cap);
        };
        let mut c = cluster();
        assert_consistent(&c);
        c.start_task(
            spec(1, Priority::Hp, 2, 4),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        assert_consistent(&c);
        c.start_task(
            spec(2, Priority::Spot, 1, 2),
            &[NodeId::new(2)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        assert_consistent(&c);
        // fractional placement
        let frac = TaskSpec::builder(3)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::fraction(0.25).unwrap())
            .duration_secs(1_000)
            .build()
            .unwrap();
        c.start_task(frac, &[NodeId::new(3)], SimTime::ZERO, 0)
            .unwrap();
        assert_consistent(&c);
        // failed gang rolls back cleanly
        assert!(c
            .start_task(
                spec(4, Priority::Hp, 2, 8),
                &[NodeId::new(0), NodeId::new(1)],
                SimTime::ZERO,
                0
            )
            .is_err());
        assert_consistent(&c);
        c.evict_task(TaskId::new(2), SimTime::from_secs(100))
            .unwrap();
        assert_consistent(&c);
        c.finish_task(TaskId::new(1), SimTime::from_hours(2))
            .unwrap();
        assert_consistent(&c);
        assert_eq!(c.idle_gpus(None), 31, "only the fractional card is busy");
    }

    #[test]
    fn fail_node_drains_hp_and_spot_and_removes_capacity() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Hp, 2, 4),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(2, Priority::Spot, 1, 2),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(3, Priority::Spot, 1, 8),
            &[NodeId::new(2)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let displaced = c
            .fail_node(NodeId::new(1), SimTime::from_secs(2_000))
            .unwrap();
        // the gang on nodes 0+1 dies entirely, plus the spot task on node 1
        let ids: Vec<u64> = displaced.iter().map(|d| d.task.spec.id.raw()).collect();
        assert_eq!(ids, vec![1, 2], "ascending task-id order");
        // checkpoint plan (1800 s interval): one checkpoint survived
        assert_eq!(displaced[0].preserved, 1_800);
        assert_eq!(c.running_count(), 1, "node 2 task untouched");
        assert!(!c.node(NodeId::new(1)).unwrap().is_up());
        assert_eq!(c.capacity(None), 24.0, "8 cards left service");
        assert_eq!(c.static_capacity(None), 32.0, "as-built total unchanged");
        assert_eq!(c.capacity(Some(GpuModel::A100)), 24.0);
        assert_eq!(
            c.idle_gpus(None),
            16,
            "nodes 0,3 idle; node 2 full; node 1 gone"
        );
        assert_eq!(c.hp_allocated(None), 0.0, "gang released everywhere");
        assert_eq!(c.spot_allocated(None), 8.0);
        assert_eq!(c.up_node_count(), 3);
        assert_eq!(c.displaced(), 2);
        assert_eq!(c.spot_evicted(), 0, "displacement is not preemption");
        // the down node is invisible to every placement query
        assert!(!c.whole_fit_candidates(GpuModel::A100, 1).contains(&1));
        assert!(
            c.fail_node(NodeId::new(1), SimTime::ZERO).is_err(),
            "double fail rejected"
        );
    }

    #[test]
    fn restore_node_brings_capacity_and_buckets_back() {
        let mut c = cluster();
        c.fail_node(NodeId::new(2), SimTime::ZERO).unwrap();
        assert!(
            c.restore_node(NodeId::new(0), SimTime::ZERO).is_err(),
            "already up"
        );
        c.restore_node(NodeId::new(2), SimTime::from_hours(2))
            .unwrap();
        assert_eq!(c.capacity(None), 32.0);
        assert_eq!(c.idle_gpus(None), 32);
        assert_eq!(c.down_node_count(), 0);
        assert!(c.whole_fit_candidates(GpuModel::A100, 8).contains(&2));
        // and it accepts pods again
        c.start_task(
            spec(9, Priority::Hp, 1, 8),
            &[NodeId::new(2)],
            SimTime::from_hours(2),
            0,
        )
        .unwrap();
        assert_eq!(c.hp_allocated(None), 8.0);
    }

    #[test]
    fn restore_clears_eviction_history() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Spot, 1, 2),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.evict_task(TaskId::new(1), SimTime::from_secs(100))
            .unwrap();
        assert_eq!(
            c.node(NodeId::new(0))
                .unwrap()
                .evictions()
                .within(SimTime::from_secs(200), HOUR)
                .0,
            1
        );
        c.fail_node(NodeId::new(0), SimTime::from_secs(300))
            .unwrap();
        c.restore_node(NodeId::new(0), SimTime::from_secs(400))
            .unwrap();
        assert_eq!(
            c.node(NodeId::new(0))
                .unwrap()
                .evictions()
                .within(SimTime::from_secs(500), HOUR)
                .0,
            0,
            "a machine back from repair starts with a clean history"
        );
    }

    #[test]
    fn start_task_on_down_node_rolls_back() {
        let mut c = cluster();
        c.fail_node(NodeId::new(1), SimTime::ZERO).unwrap();
        let r = c.start_task(
            spec(5, Priority::Hp, 2, 2),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        );
        assert!(r.is_err());
        assert_eq!(
            c.idle_gpus(None),
            24,
            "node 0 rolled back, node 1 still down"
        );
        assert_eq!(c.running_count(), 0);
    }

    #[test]
    fn per_model_totals_track_heterogeneous_pools() {
        let mut nodes: Vec<Node> = (0..2)
            .map(|i| Node::new(NodeId::new(i), GpuModel::A100, 8))
            .collect();
        nodes.push(Node::new(NodeId::new(2), GpuModel::H800, 8));
        let mut c = Cluster::new(nodes);
        assert_eq!(c.capacity(Some(GpuModel::A100)), 16.0);
        assert_eq!(c.capacity(Some(GpuModel::H800)), 8.0);
        let h800 = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(4))
            .gpu_model(GpuModel::H800)
            .duration_secs(1_000)
            .build()
            .unwrap();
        c.start_task(h800, &[NodeId::new(2)], SimTime::ZERO, 0)
            .unwrap();
        assert_eq!(c.spot_allocated(Some(GpuModel::H800)), 4.0);
        assert_eq!(c.spot_allocated(Some(GpuModel::A100)), 0.0);
        assert_eq!(c.idle_gpus(Some(GpuModel::H800)), 4);
        c.fail_node(NodeId::new(2), SimTime::from_secs(10)).unwrap();
        assert_eq!(c.capacity(Some(GpuModel::H800)), 0.0);
        assert_eq!(c.static_capacity(Some(GpuModel::H800)), 8.0);
        assert_eq!(c.spot_allocated(Some(GpuModel::H800)), 0.0);
        assert_eq!(
            c.capacity(Some(GpuModel::A100)),
            16.0,
            "other pools untouched"
        );
    }

    #[test]
    fn drain_node_blocks_placements_but_keeps_pods_running() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Hp, 1, 4),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(2, Priority::Spot, 1, 2),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.drain_node(NodeId::new(1), SimTime::from_secs(3_600))
            .unwrap();
        let n1 = c.node(NodeId::new(1)).unwrap();
        assert!(n1.is_up() && n1.is_draining());
        assert_eq!(n1.drain_deadline(), Some(SimTime::from_secs(3_600)));
        // pods keep running, but the node is invisible to placement
        assert_eq!(c.running_count(), 2);
        assert_eq!(c.hp_allocated(None), 4.0, "running pods stay allocated");
        assert_eq!(c.capacity(None), 24.0, "draining cards left the totals");
        assert_eq!(
            c.idle_gpus(None),
            24,
            "node 1's two free cards left with it"
        );
        assert!(!c.whole_fit_candidates(GpuModel::A100, 1).contains(&1));
        assert!(
            !c.preemption_candidates(GpuModel::A100, 8).contains(&1),
            "spot pods on a draining node are not preemption targets"
        );
        assert_eq!(c.schedulable_node_count(), 3);
        assert_eq!(c.draining_node_count(), 1);
        assert_eq!(c.up_node_count(), 4, "draining nodes are still in service");
        // no new placements land
        assert!(c
            .start_task(
                spec(9, Priority::Hp, 1, 1),
                &[NodeId::new(1)],
                SimTime::ZERO,
                0
            )
            .is_err());
        // double drain and drain-of-down rejected
        assert!(c
            .drain_node(NodeId::new(1), SimTime::from_secs(9_999))
            .is_err());
        c.fail_node(NodeId::new(0), SimTime::ZERO).unwrap();
        assert!(c
            .drain_node(NodeId::new(0), SimTime::from_secs(9_999))
            .is_err());
    }

    #[test]
    fn forced_shutdown_of_draining_node_matches_fail_accounting() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Spot, 1, 4),
            &[NodeId::new(2)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.drain_node(NodeId::new(2), SimTime::from_secs(1_800))
            .unwrap();
        // deadline hits with the pod still running: fail_node semantics
        let displaced = c
            .fail_node(NodeId::new(2), SimTime::from_secs(1_800))
            .unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(c.displaced(), 1);
        assert_eq!(c.spot_evicted(), 0, "forced displacement is not preemption");
        assert_eq!(
            c.capacity(None),
            24.0,
            "cards were already out at drain start"
        );
        assert_eq!(c.idle_gpus(None), 24);
        assert_eq!(c.spot_allocated(None), 0.0);
        assert_eq!(c.down_node_count(), 1);
        assert_eq!(c.draining_node_count(), 0);
        // and the full cycle closes: restore brings everything back
        c.restore_node(NodeId::new(2), SimTime::from_secs(5_000))
            .unwrap();
        assert_eq!(c.capacity(None), 32.0);
        assert_eq!(c.idle_gpus(None), 32);
    }

    #[test]
    fn restore_cancels_drain_without_touching_pods() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Spot, 1, 2),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.evict_task(TaskId::new(1), SimTime::from_secs(50))
            .unwrap();
        c.start_task(
            spec(2, Priority::Hp, 1, 3),
            &[NodeId::new(0)],
            SimTime::from_secs(60),
            0,
        )
        .unwrap();
        c.drain_node(NodeId::new(0), SimTime::from_secs(3_600))
            .unwrap();
        assert_eq!(c.idle_gpus(None), 24);
        c.restore_node(NodeId::new(0), SimTime::from_secs(100))
            .unwrap();
        let n0 = c.node(NodeId::new(0)).unwrap();
        assert!(n0.is_schedulable());
        assert_eq!(c.running_count(), 1, "the HP pod never moved");
        assert_eq!(c.idle_gpus(None), 29, "only genuinely free cards return");
        assert_eq!(c.capacity(None), 32.0);
        assert!(c.whole_fit_candidates(GpuModel::A100, 5).contains(&0));
        assert_eq!(
            n0.evictions().within(SimTime::from_secs(200), HOUR).0,
            1,
            "a cancelled drain repairs nothing, so history survives"
        );
    }

    #[test]
    fn migrate_task_releases_without_eviction_accounting() {
        let mut c = cluster();
        c.start_task(
            spec(1, Priority::Hp, 2, 4),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let (rt, preserved) = c
            .migrate_task(TaskId::new(1), SimTime::from_secs(4_000))
            .unwrap();
        assert_eq!(rt.spec.id, TaskId::new(1));
        assert_eq!(preserved, 3_600, "two 1800 s checkpoints survived");
        assert_eq!(c.migrated(), 1);
        assert_eq!(c.displaced(), 0);
        assert_eq!(c.spot_evicted(), 0);
        assert_eq!(c.hp_allocated(None), 0.0);
        assert_eq!(c.idle_gpus(None), 32);
        assert_eq!(
            c.node(NodeId::new(0))
                .unwrap()
                .evictions()
                .within(SimTime::from_secs(5_000), HOUR)
                .0,
            0,
            "migration leaves no eviction pressure behind"
        );
        assert!(
            c.migrate_task(TaskId::new(1), SimTime::ZERO).is_err(),
            "gone"
        );
    }

    #[test]
    fn add_node_mints_sequential_ids_and_extends_totals() {
        let mut c = cluster();
        let id = c.add_node(GpuModel::H800, 8);
        assert_eq!(id, NodeId::new(4));
        assert_eq!(c.nodes().len(), 5);
        assert_eq!(c.capacity(None), 40.0);
        assert_eq!(
            c.static_capacity(None),
            40.0,
            "scale-out grows the as-built total"
        );
        assert_eq!(c.capacity(Some(GpuModel::H800)), 8.0);
        assert_eq!(c.idle_gpus(Some(GpuModel::H800)), 8);
        assert!(c.whole_fit_candidates(GpuModel::H800, 8).contains(&4));
        // the new node is a first-class citizen: placements, spot lists,
        // failure and repair all work
        let h = TaskSpec::builder(7)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(4))
            .gpu_model(GpuModel::H800)
            .duration_secs(1_000)
            .build()
            .unwrap();
        c.start_task(h, &[id], SimTime::ZERO, 0).unwrap();
        assert_eq!(c.spot_tasks_on(id).len(), 1);
        let displaced = c.fail_node(id, SimTime::from_secs(10)).unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(c.capacity(Some(GpuModel::H800)), 0.0);
        c.restore_node(id, SimTime::from_secs(20)).unwrap();
        assert_eq!(c.capacity(Some(GpuModel::H800)), 8.0);
        // a second add keeps minting sequentially
        assert_eq!(c.add_node(GpuModel::A100, 8), NodeId::new(5));
        assert_eq!(c.capacity(None), 48.0);
    }

    #[test]
    fn failure_history_survives_restore() {
        let mut c = cluster();
        c.fail_node(NodeId::new(1), SimTime::from_hours(1)).unwrap();
        c.restore_node(NodeId::new(1), SimTime::from_hours(2))
            .unwrap();
        c.fail_node(NodeId::new(1), SimTime::from_hours(5)).unwrap();
        c.restore_node(NodeId::new(1), SimTime::from_hours(6))
            .unwrap();
        let now = SimTime::from_hours(6);
        let failures = |c: &Cluster, id, window| {
            c.node(NodeId::new(id))
                .unwrap()
                .failures()
                .within(now, window)
        };
        assert_eq!(
            failures(&c, 1, 5 * HOUR),
            (2, Some(SimTime::from_hours(6))),
            "repairs must not erase the failure history"
        );
        assert_eq!(failures(&c, 1, 2 * HOUR), (1, Some(SimTime::from_hours(7))));
        // a forced drain shutdown is an up→down transition too
        c.drain_node(NodeId::new(2), SimTime::from_hours(8))
            .unwrap();
        c.fail_node(NodeId::new(2), SimTime::from_hours(8)).unwrap();
        assert_eq!(failures(&c, 2, HOUR).0, 1);
        assert_eq!(failures(&c, 0, u64::MAX), (0, None));
    }

    #[test]
    fn failure_domains_answer_membership_and_drain_queries() {
        let mut c = cluster(); // 4 nodes
        assert_eq!(
            c.domain_of(NodeId::new(0)),
            None,
            "no topology declared yet"
        );
        assert_eq!(c.failure_domain_count(), 0);
        c.set_failure_domains(&FailureDomain::racks(4, 2));
        assert_eq!(c.failure_domain_count(), 2);
        assert_eq!(c.domain_of(NodeId::new(0)), Some(0));
        assert_eq!(c.domain_of(NodeId::new(1)), Some(0));
        assert_eq!(c.domain_of(NodeId::new(3)), Some(1));
        assert_eq!(c.domain_of(NodeId::new(99)), None);
        // drain bookkeeping per domain, through the full lifecycle
        c.drain_node(NodeId::new(0), SimTime::from_hours(1))
            .unwrap();
        assert_eq!(c.draining_in_domain(0), 1);
        assert_eq!(c.draining_in_domain(1), 0);
        c.drain_node(NodeId::new(1), SimTime::from_hours(1))
            .unwrap();
        assert_eq!(c.draining_in_domain(0), 2);
        // cancel one drain, force the other down: both leave the count
        c.restore_node(NodeId::new(0), SimTime::from_secs(100))
            .unwrap();
        assert_eq!(c.draining_in_domain(0), 1);
        c.fail_node(NodeId::new(1), SimTime::from_secs(200))
            .unwrap();
        assert_eq!(c.draining_in_domain(0), 0);
        // repair of a *down* node does not touch drain counts
        c.restore_node(NodeId::new(1), SimTime::from_secs(300))
            .unwrap();
        assert_eq!(c.draining_in_domain(0), 0);
        // scale-out mints nodes outside every declared blast radius
        let minted = c.add_node(GpuModel::A100, 8);
        assert_eq!(c.domain_of(minted), None);
        c.drain_node(minted, SimTime::from_hours(2)).unwrap();
        assert_eq!(
            c.draining_in_domain(0),
            0,
            "undomained drains count nowhere"
        );
        assert_eq!(c.draining_node_count(), 1);
    }

    #[test]
    fn mid_run_topology_declaration_picks_up_active_drains() {
        let mut c = cluster();
        c.drain_node(NodeId::new(2), SimTime::from_hours(1))
            .unwrap();
        c.set_failure_domains(&FailureDomain::racks(4, 2));
        assert_eq!(
            c.draining_in_domain(1),
            1,
            "node 2's in-progress drain registered"
        );
    }

    /// Snapshot → restore must be lossless: same snapshot bytes, same
    /// observable behaviour (capacity queries, index-served candidate
    /// lists, running registry) after a busy history of placements with
    /// carried progress, evictions, drains and failures inside declared
    /// failure domains, and nodes outside every domain.
    #[test]
    fn snapshot_round_trip_is_lossless() {
        let mut c = Cluster::homogeneous(5, GpuModel::A100, 8);
        // node 4 and the scaled-out node below sit in no domain
        c.set_failure_domains(&FailureDomain::racks(4, 2));
        c.start_task(
            spec(1, Priority::Hp, 2, 4),
            &[NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            spec(2, Priority::Spot, 1, 2),
            &[NodeId::new(2)],
            SimTime::from_secs(50),
            0,
        )
        .unwrap();
        let frac = TaskSpec::builder(3)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::fraction(0.25).unwrap())
            .duration_secs(9_000)
            .build()
            .unwrap();
        c.start_task(frac, &[NodeId::new(2)], SimTime::from_secs(60), 120)
            .unwrap();
        c.evict_task(TaskId::new(2), SimTime::from_secs(2_000))
            .unwrap();
        c.fail_node(NodeId::new(3), SimTime::from_secs(3_000))
            .unwrap();
        c.drain_node(NodeId::new(1), SimTime::from_secs(9_999))
            .unwrap();
        c.add_node(GpuModel::H800, 8);
        let mut json = String::new();
        c.snapshot_json_into(&mut json);
        let parsed: ClusterSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        let r = Cluster::from_snapshot(parsed);
        // persisted fields and totals are verbatim
        let mut again = String::new();
        r.snapshot_json_into(&mut again);
        assert_eq!(again, json, "encode → decode → restore → encode");
        // index-served queries match the live cluster's
        assert_eq!(
            r.whole_fit_candidates(GpuModel::A100, 1),
            c.whole_fit_candidates(GpuModel::A100, 1)
        );
        assert_eq!(
            r.fraction_fit_candidates(GpuModel::A100, Cards(500)),
            c.fraction_fit_candidates(GpuModel::A100, Cards(500))
        );
        assert_eq!(
            r.preemption_candidates(GpuModel::A100, 1),
            c.preemption_candidates(GpuModel::A100, 1)
        );
        assert_eq!(r.fully_idle_nodes(), c.fully_idle_nodes());
        assert_eq!(
            r.spot_tasks_on(NodeId::new(2)).len(),
            c.spot_tasks_on(NodeId::new(2)).len()
        );
        assert_eq!(r.running_count(), c.running_count());
        assert_eq!(r.capacity(None), c.capacity(None));
        assert_eq!(r.idle_gpus(None), c.idle_gpus(None));
        assert_eq!(r.draining_in_domain(0), c.draining_in_domain(0));
        assert_eq!(r.domain_of(NodeId::new(1)), c.domain_of(NodeId::new(1)));
        // failure history survives the round trip
        assert_eq!(
            r.node(NodeId::new(3)).unwrap().failures(),
            c.node(NodeId::new(3)).unwrap().failures()
        );
        assert_eq!(r.node(NodeId::new(3)).unwrap().failures().iter().count(), 1);
    }

    #[test]
    fn unknown_node_in_gang_is_rolled_back() {
        let mut c = cluster();
        let r = c.start_task(
            spec(10, Priority::Hp, 2, 1),
            &[NodeId::new(0), NodeId::new(99)],
            SimTime::ZERO,
            0,
        );
        assert!(r.is_err());
        assert_eq!(c.idle_gpus(None), 32);
    }
}
