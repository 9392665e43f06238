//! Incrementally-maintained capacity index over the cluster's nodes.
//!
//! Every scheduler in the workspace answers the same two questions for
//! every pending task on every pass: *which nodes can host a pod of this
//! demand* and *which nodes host evictable spot tasks*. Answering them by
//! scanning `nodes × gpus` (and `nodes × running_tasks` for preemption
//! planning) dominated simulation time, so the [`Cluster`](crate::Cluster)
//! maintains this index incrementally inside `start_task` / `evict_task` /
//! `finish_task`:
//!
//! * **Idle buckets** — per GPU model, a bucket per whole-card idle count:
//!   the set of node ids with exactly that many idle cards, as a two-level
//!   bitset (`NodeSet`: one word per 64 ids, one summary word per 64
//!   words). A pod that starts or finishes moves its node between two
//!   buckets by clearing one bit and setting another, O(1) however many
//!   nodes share the bucket. "Nodes with ≥ k idle cards" ORs the words of
//!   buckets `k..` into an ascending answer, touching only non-empty
//!   words. Every present node sits in exactly one bucket of its model,
//!   so the OR of all of a model's buckets is its present nodes.
//! * **Partial-card best-fit keys** — per GPU model, an ordered set of
//!   `(most free milli-cards on a partially occupied card, node id)` for
//!   nodes that have at least one such card. The keys are exact
//!   [`Cards`], so a fractional demand's candidates are a range of the
//!   set (fully idle cards are covered by the idle buckets).
//! * **Spot locality** — per node, the running spot tasks with at least
//!   one pod on it, each with the cards it holds there and the inputs of
//!   its Eq. 17 waste ([`SpotHolding`]), kept sorted by task id so victim
//!   enumeration is deterministic. This turns `spot_tasks_on` from a scan
//!   over the whole running registry into a per-node lookup, and lets a
//!   preemption plan decide whether a node can host a pod (`idle + Σ held
//!   ≥ need`) and price its victims without touching the registry. Per
//!   model, the nodes whose list is non-empty form one more `NodeSet`
//!   (`spot_hosts`), so preemption candidates are the fitting buckets'
//!   words ORed with the spot-host words masked to present nodes.
//!
//! Every answer is exact: the candidates *are* the nodes that fit, equal
//! to a brute-force [`Node::can_fit`] scan (`tests/property_based.rs`
//! checks the equivalence), so the index only skips work.

use std::collections::{BTreeMap, BTreeSet};

use gfs_types::{Cards, CheckpointPlan, GpuModel, NodeId, SimDuration, SimTime, TaskId, TaskSpec};

use crate::node::{Gpu, Node};
use crate::node_set::{collect_words, NodeSet};

/// One running spot task as the capacity index lists it on a node: the
/// cards its pods hold there, and what Eq. 17 needs to price its
/// eviction, so a preemption plan can rank it without a registry lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotHolding {
    /// The spot task.
    pub task: TaskId,
    /// Cards its pods hold on this node.
    pub cards: Cards,
    /// The task's GPUs over all pods (`g` of Eq. 17).
    gpus: f64,
    checkpoint: CheckpointPlan,
    carried: SimDuration,
    started_at: SimTime,
}

impl SpotHolding {
    /// The holding of a task started at `started_at` with `carried`
    /// seconds of earlier progress.
    pub(crate) fn new(
        spec: &TaskSpec,
        cards: Cards,
        started_at: SimTime,
        carried: SimDuration,
    ) -> Self {
        SpotHolding {
            task: spec.id,
            cards,
            gpus: spec.total_gpus(),
            checkpoint: spec.checkpoint,
            carried,
            started_at,
        }
    }

    /// The waste of evicting the task at `now` — bit for bit
    /// [`RunningTask::waste`](crate::RunningTask::waste).
    #[must_use]
    pub fn waste(&self, now: SimTime) -> f64 {
        eq17_waste(
            self.gpus,
            self.checkpoint,
            self.carried,
            self.started_at,
            now,
        )
    }
}

/// Eq. 17's waste `ϑ = g · (t − t_check)` in GPU-seconds, the one formula
/// behind [`SpotHolding::waste`] and
/// [`RunningTask::waste`](crate::RunningTask::waste).
pub(crate) fn eq17_waste(
    gpus: f64,
    checkpoint: CheckpointPlan,
    carried: SimDuration,
    started_at: SimTime,
    now: SimTime,
) -> f64 {
    gpus * checkpoint.wasted_work(carried, now.since(started_at)) as f64
}

/// Per-node snapshot of the keys currently stored in the index.
#[derive(Debug, Clone, Copy, Default)]
struct NodeKey {
    idle: u32,
    /// Most free capacity among partially-occupied cards, or zero when
    /// there is none (a partial card always has some capacity free).
    partial: Cards,
    fully_idle: bool,
    /// Whether the node currently owns entries in the placement
    /// structures (idle buckets / partial keys / fully-idle count). Down
    /// and draining nodes are absent; removal is idempotent through this
    /// flag, so a drain followed by a forced shutdown cannot
    /// double-remove.
    present: bool,
}

/// The capacity index. See the module docs for the structure.
#[derive(Debug, Clone, Default)]
pub struct CapacityIndex {
    keys: Vec<NodeKey>,
    models: Vec<GpuModel>,
    /// Per model: `buckets[idle] = the node ids with that idle count`.
    idle_buckets: BTreeMap<GpuModel, Vec<NodeSet>>,
    /// Per model: ordered `(best partial free, node id)` pairs.
    partial: BTreeMap<GpuModel, BTreeSet<(Cards, u32)>>,
    /// Per node: running spot tasks with at least one pod here, ascending
    /// by id, with the cards each holds on this node.
    spot_on_node: Vec<Vec<SpotHolding>>,
    /// Per model: the node ids currently hosting ≥ 1 spot pod — the
    /// preemption-victim walk visits only these instead of scanning every
    /// node's (mostly empty) spot list.
    spot_hosts: BTreeMap<GpuModel, NodeSet>,
    fully_idle_count: usize,
}

impl CapacityIndex {
    /// Builds the index from scratch over `nodes`.
    #[must_use]
    pub fn build(nodes: &[Node]) -> Self {
        let mut index = CapacityIndex {
            keys: vec![NodeKey::default(); nodes.len()],
            models: nodes.iter().map(Node::model).collect(),
            idle_buckets: BTreeMap::new(),
            partial: BTreeMap::new(),
            spot_on_node: vec![Vec::new(); nodes.len()],
            spot_hosts: BTreeMap::new(),
            fully_idle_count: 0,
        };
        for node in nodes {
            index.insert_node(node);
        }
        index
    }

    fn compute_key(node: &Node) -> NodeKey {
        let idle = node.physical_idle_gpus();
        let partial = node
            .gpus()
            .iter()
            .map(Gpu::free)
            .filter(|&free| free > Cards(0) && free < Cards::ONE)
            .fold(Cards(0), Ord::max);
        NodeKey {
            idle,
            partial,
            fully_idle: idle == node.total_gpus(),
            present: false,
        }
    }

    fn insert_node(&mut self, node: &Node) {
        let id = node.id().index();
        // grow the per-node slots on first sight (scale-out mints fresh
        // node ids past the as-built range)
        if self.keys.len() <= id {
            self.keys.resize(id + 1, NodeKey::default());
            self.spot_on_node.resize(id + 1, Vec::new());
            self.models.resize(id + 1, node.model());
        }
        self.models[id] = node.model();
        let mut key = Self::compute_key(node);
        key.present = true;
        let raw = node.id().raw();
        self.keys[id] = key;
        let buckets = self.idle_buckets.entry(node.model()).or_default();
        if buckets.len() <= key.idle as usize {
            buckets.resize_with(key.idle as usize + 1, NodeSet::default);
        }
        buckets[key.idle as usize].insert(raw);
        if key.partial > Cards(0) {
            self.partial
                .entry(node.model())
                .or_default()
                .insert((key.partial, raw));
        }
        if key.fully_idle {
            self.fully_idle_count += 1;
        }
        #[cfg(debug_assertions)]
        self.check_node(raw);
    }

    /// Re-derives one node's keys after its occupancy changed. An
    /// unschedulable node (down or draining) stays out of the placement
    /// structures — releasing a pod on a draining node must not re-admit
    /// the node to any placement query.
    pub fn refresh(&mut self, node: &Node) {
        if !node.is_schedulable() {
            self.remove_node(node);
            return;
        }
        let id = node.id().index();
        if !self.keys[id].present {
            self.insert_node(node);
            return;
        }
        let raw = node.id().raw();
        let old = self.keys[id];
        let mut new = Self::compute_key(node);
        new.present = true;
        if old.idle != new.idle {
            let buckets = self.idle_buckets.entry(node.model()).or_default();
            buckets[old.idle as usize].remove(raw);
            if buckets.len() <= new.idle as usize {
                buckets.resize_with(new.idle as usize + 1, NodeSet::default);
            }
            buckets[new.idle as usize].insert(raw);
        }
        if old.partial != new.partial {
            let set = self.partial.entry(node.model()).or_default();
            set.remove(&(old.partial, raw));
            if new.partial > Cards(0) {
                set.insert((new.partial, raw));
            }
        }
        match (old.fully_idle, new.fully_idle) {
            (false, true) => self.fully_idle_count += 1,
            (true, false) => self.fully_idle_count -= 1,
            _ => {}
        }
        self.keys[id] = new;
        #[cfg(debug_assertions)]
        self.check_node(raw);
    }

    /// Removes a node from every *placement* structure, using the keys
    /// stored at the last refresh: its idle-bucket entry, partial-card key
    /// and fully-idle count all vanish in one call, so no query can
    /// observe a half-removed node. Idempotent — removing an absent node
    /// (e.g. forcing down a node already out of the index because it was
    /// draining) is a no-op. The spot locality list is left alone: a
    /// draining node still hosts its spot pods.
    pub fn remove_node(&mut self, node: &Node) {
        let id = node.id().index();
        let raw = node.id().raw();
        let key = self.keys[id];
        if !key.present {
            return;
        }
        if let Some(bucket) = self
            .idle_buckets
            .get_mut(&node.model())
            .and_then(|buckets| buckets.get_mut(key.idle as usize))
        {
            bucket.remove(raw);
        }
        if let Some(set) = self.partial.get_mut(&node.model()) {
            set.remove(&(key.partial, raw));
        }
        if key.fully_idle {
            self.fully_idle_count -= 1;
        }
        self.keys[id] = NodeKey::default();
        #[cfg(debug_assertions)]
        self.check_node(raw);
    }

    /// Re-inserts a restored (or drain-cancelled) node, recomputing its
    /// keys from the node's actual card state; also the growth path for
    /// nodes minted by scale-out (`insert_node`
    /// extends the per-node slots on first sight).
    pub fn restore_node(&mut self, node: &Node) {
        self.insert_node(node);
    }

    /// Records that a spot task now has a pod on `node`; a gang's second
    /// pod on the same node adds its cards to the task's holding.
    pub fn add_spot(&mut self, node: NodeId, pod: SpotHolding) {
        let list = &mut self.spot_on_node[node.index()];
        match list.binary_search_by_key(&pod.task, |h| h.task) {
            Ok(pos) => list[pos].cards += pod.cards,
            Err(pos) => list.insert(pos, pod),
        }
        if list.len() == 1 {
            self.spot_hosts
                .entry(self.models[node.index()])
                .or_default()
                .insert(node.raw());
        }
        #[cfg(debug_assertions)]
        self.check_node(node.raw());
    }

    /// Removes `task` and its whole holding from `node`'s spot locality
    /// list (a task releases every pod at once).
    pub fn remove_spot(&mut self, node: NodeId, task: TaskId) {
        let list = &mut self.spot_on_node[node.index()];
        if let Ok(pos) = list.binary_search_by_key(&task, |h| h.task) {
            list.remove(pos);
            if list.is_empty() {
                if let Some(hosts) = self.spot_hosts.get_mut(&self.models[node.index()]) {
                    hosts.remove(node.raw());
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_node(node.raw());
    }

    /// The bitsets' oracle, compiled into every debug build: node `id`
    /// sits in exactly the idle bucket its stored key names (in none
    /// while it is absent), and it is a spot host of its model exactly
    /// while its spot list is non-empty.
    #[cfg(debug_assertions)]
    fn check_node(&self, id: u32) {
        let key = self.keys[id as usize];
        let model = self.models[id as usize];
        for (&m, buckets) in &self.idle_buckets {
            for (idle, bucket) in buckets.iter().enumerate() {
                let named = key.present && m == model && idle == key.idle as usize;
                assert_eq!(
                    bucket.contains(id),
                    named,
                    "node {id} ({model:?}) in idle bucket {m:?}/{idle} disagrees with its key {key:?}"
                );
            }
        }
        for (&m, hosts) in &self.spot_hosts {
            let hosting = m == model && !self.spot_on_node[id as usize].is_empty();
            assert_eq!(
                hosts.contains(id),
                hosting,
                "node {id} ({model:?}) as a {m:?} spot host disagrees with its spot list"
            );
        }
    }

    /// Spot tasks with at least one pod on `node`, ascending by id, each
    /// with the cards it holds on `node`.
    #[must_use]
    pub fn spot_holdings(&self, node: NodeId) -> &[SpotHolding] {
        &self.spot_on_node[node.index()]
    }

    /// Whether `node` hosts at least one spot pod.
    #[must_use]
    pub fn has_spot_on(&self, node: NodeId) -> bool {
        !self.spot_on_node[node.index()].is_empty()
    }

    /// Count of nodes with every card idle (any model).
    #[must_use]
    pub fn fully_idle_nodes(&self) -> usize {
        self.fully_idle_count
    }

    /// Node ids (ascending) of `model` nodes with at least `need` whole
    /// idle cards.
    pub fn whole_fit_candidates(&self, model: GpuModel, need: u32, out: &mut Vec<u32>) {
        out.clear();
        let Some(buckets) = self.idle_buckets.get(&model) else {
            return;
        };
        let fit = buckets.get(need as usize..).unwrap_or_default();
        collect_words(fit.iter(), |w| union_word(fit, w), out);
    }

    /// Node ids (ascending) of `model` nodes that fit a fraction `f` of
    /// one card: any node with an idle card, plus nodes whose best partial
    /// card has at least `f` free.
    pub fn fraction_fit_candidates(&self, model: GpuModel, f: Cards, out: &mut Vec<u32>) {
        self.whole_fit_candidates(model, 1, out);
        if let Some(set) = self.partial.get(&model) {
            for &(_, id) in set.range((f, 0)..) {
                out.push(id);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Node ids (ascending) worth visiting when planning a preemption of
    /// `need` cards on `model` nodes: nodes that already fit, plus
    /// *schedulable* nodes hosting at least one spot pod (a draining node
    /// still hosts spot pods but cannot accept the preemptor's placement,
    /// so evicting there would only destroy work).
    pub fn preemption_candidates(&self, model: GpuModel, need: u32, out: &mut Vec<u32>) {
        let (Some(buckets), Some(hosts)) =
            (self.idle_buckets.get(&model), self.spot_hosts.get(&model))
        else {
            return self.whole_fit_candidates(model, need, out);
        };
        out.clear();
        // every present node of `model` sits in exactly one of its
        // buckets, so their union masks the hosts to present nodes
        let fit = buckets.get(need as usize..).unwrap_or_default();
        collect_words(
            fit.iter().chain([hosts]),
            |w| union_word(fit, w) | (hosts.word(w) & union_word(buckets, w)),
            out,
        );
    }

    /// Walks `model` nodes best-fit-first — idle buckets in ascending
    /// idle-count order starting at `need`, ascending node ids inside a
    /// bucket — until `accept` returns `true`, and returns that node id.
    /// O(nodes skipped + 1) instead of collect-everything-then-score.
    pub fn best_fit_walk(
        &self,
        model: GpuModel,
        need: u32,
        mut accept: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let buckets = self.idle_buckets.get(&model)?;
        buckets
            .iter()
            .skip(need as usize)
            .flat_map(NodeSet::iter)
            .find(|&id| accept(id))
    }

    /// The placement key of node `id` as currently indexed: its GPU model
    /// and whole-card idle count, or `None` while the node is out of the
    /// placement structures (down or draining). Read-side caches mirror
    /// their bucket membership from this.
    #[must_use]
    pub fn node_placement_key(&self, id: u32) -> Option<(GpuModel, u32)> {
        let key = self.keys.get(id as usize)?;
        if !key.present {
            return None;
        }
        Some((self.models[id as usize], key.idle))
    }
}

/// Word `w` of the union of `sets`.
fn union_word(sets: &[NodeSet], w: usize) -> u64 {
    sets.iter().fold(0, |acc, set| acc | set.word(w))
}
