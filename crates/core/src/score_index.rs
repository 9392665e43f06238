//! Epoch-invalidated score index: the O(log n) replacement for the PTS
//! lexicographic placement scan.
//!
//! [`Pts::schedule_nonpreemptive`](crate::Pts::schedule_nonpreemptive)
//! historically found each pod's node by scoring *every* feasible
//! candidate and taking the lexicographic max — O(n) per decision, the
//! difference between a simulator and a schedulable control plane at
//! 100k nodes (ROADMAP item 1). This module caches the scores instead:
//!
//! * **Bucket trees** — one tournament (segment) tree per capacity-index
//!   bucket `(GpuModel, idle cards)`, whose internal nodes hold the
//!   winning node id under the exact scan order: packed `<hazard, drain,
//!   Score1, Score2, Score3>` descending, then lower node id. A
//!   whole-card query for `g` cards reads the root of every bucket `g..`
//!   (at most `gpus_per_node + 1` roots) and picks the best — O(log n)
//!   total.
//! * **Epoch invalidation** — the cluster's [`ChangeLog`] records every
//!   score-relevant node mutation; [`ScoreIndex::prepare`] replays only
//!   the ids touched since its last cursor and recomputes those keys. A
//!   cursor that falls off the bounded log (or a different cluster
//!   instance) forces a full rebuild.
//! * **Eviction-window-aware invalidation** — `Score3` depends on
//!   windowed eviction *counts*, which also change by pure aging. Each
//!   cached key carries the last instant its counts stay valid
//!   ([`Node::eviction_score_valid_until`]); a min-heap of those
//!   deadlines recomputes exactly the nodes whose windows just aged out.
//!   The hard-window failure count behind the reliability component ages
//!   the same way ([`Node::failure_score_valid_until`]) and shares the
//!   heap.
//! * **Domain re-keying** — the drain component is a property of a node's
//!   failure *domain*. The index remembers each domain's members and the
//!   `draining_in_domain` its keys were built with; when a replayed node's
//!   domain reports a different count, every member is recomputed
//!   (`drain_node`/`fail_node`/`restore_node` all log the node, and
//!   `set_failure_domains` mints a new log instance, i.e. a rebuild).
//!
//! ## Why the cached order is bit-identical to the scan
//!
//! All score components are finite and non-negative (`Score1 ∈ [0, 1]`,
//! `Score2 ≥ 0`, `Score3 ≥ 0`; the spot circuit breaker excludes a node
//! *before* a non-positive `Score3` could be stored), and for such
//! doubles the IEEE-754 bit pattern is monotone in the value — comparing
//! packed `u64` triples is exactly `partial_cmp` on the float triples,
//! with no epsilon anywhere. Scores are always recomputed from real node
//! state through the same [`Pts::node_scores`](crate::Pts::node_scores)
//! the scan calls, so a synced index cannot disagree with the scan even
//! in the last bit (property-pinned in `tests/property_based.rs`).
//!
//! ## Why the policy prefix is order-preserving
//!
//! A churn [`PlacementPolicy`](gfs_sched::placement::PlacementPolicy)
//! leads the scan key with reliability, then drain avoidance. The hazard
//! component lies in `[0, 1]`, so its bit pattern orders like the value,
//! as above. The drain component is `−draining_in_domain`, stored as
//! `u64::MAX − draining_in_domain`: fewer drains, larger integer, which is
//! the scan's `partial_cmp` on the negated count. Both are constants under
//! `naive()` (1.0 and `u64::MAX`), so the paper configuration compares
//! `<Score1, Score2, Score3>` exactly as before. Only policies that are
//! piecewise constant in time are cached: `decayed_reliability` weighs
//! each failure by `2^(−age/half_life)`, continuous in `now`, and the
//! time-free factoring `2^(−now/hl)·Σ 2^(t_k/hl)` is not bit-equal to the
//! scan's `Σ exp2`, so that policy keeps the scan.
//!
//! ## What never enters the cache
//!
//! Gang budgets: a pod's predecessors only *gate* a node (virtual budget
//! < demand), they never change its score, so the caller masks
//! budget-exhausted leaves for the duration of one gang and reinserts
//! them afterwards.
//!
//! Gang spread: the scan ranks `−(gang pods already in the node's
//! domain)` between the drain component and `Score1`, which depends on
//! the pods placed so far. For pod k > 0 the caller pops index winners,
//! setting aside (mask, then unmask) each one whose domain the gang
//! already uses, until the first winner `w` in an unused domain. Every
//! node still in the index has a cached key ≤ `w`'s: a smaller `<hazard,
//! drain>` prefix loses outright, and on an equal prefix its spread is
//! ≤ 0 against `w`'s 0, falling through to the cached order where `w`
//! already won. So the pod's node is the maximum of {set-aside ∪ `w`}
//! under the full key, ties to the lower id — exact, without a scan, and
//! bounded by the sizes of the domains the gang occupies.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use gfs_cluster::{Cluster, Node};
use gfs_types::{GpuModel, NodeId, Priority, SimTime};

use crate::pts::Pts;

/// Sentinel for "no node" in leaves and winner slots.
const EMPTY: u32 = u32::MAX;

/// Which cached score flavor a query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flavor {
    /// HP scoring (eviction-seeking `Score3`).
    Hp,
    /// Spot scoring (eviction-averse `Score3`; circuit-broken nodes are
    /// absent from this flavor entirely).
    Spot,
}

impl Flavor {
    pub(crate) fn of(priority: Priority) -> Flavor {
        match priority {
            Priority::Hp => Flavor::Hp,
            Priority::Spot => Flavor::Spot,
        }
    }
}

/// `<hazard, drain, Score1, Score2, Score3>` packed as order-preserving
/// integers (see the module docs).
pub(crate) type Key = [u64; 5];

/// The cacheable policy prefix `<hazard, drain>` of `node`.
fn policy_prefix(pts: &Pts, cluster: &Cluster, node: &Node, now: SimTime) -> [u64; 2] {
    let policy = pts.policy();
    let draining = -policy.drain_component(cluster, node.id());
    [
        policy.hazard_component(cluster, node, now).to_bits(),
        u64::MAX - draining as u64,
    ]
}

fn pack(prefix: [u64; 2], scores: (f64, f64, f64)) -> Key {
    let [hazard, drain] = prefix;
    let (s1, s2, s3) = scores;
    [hazard, drain, s1.to_bits(), s2.to_bits(), s3.to_bits()]
}

/// Per-node cache slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Where the node's leaf lives: `(model, idle bucket, leaf pos)`;
    /// `None` while out of the placement structures (down, draining, or
    /// temporarily masked by a gang budget).
    bucket: Option<(GpuModel, u32, u32)>,
    hp: Option<Key>,
    spot: Option<Key>,
    /// Last second at which the windowed eviction and failure counts
    /// behind these keys are still current (`None` = stable until the next
    /// mutation).
    valid_until: Option<u64>,
}

impl Slot {
    fn key(&self, flavor: Flavor) -> Option<Key> {
        match flavor {
            Flavor::Hp => self.hp,
            Flavor::Spot => self.spot,
        }
    }
}

fn key_of(slots: &[Slot], flavor: Flavor, id: u32) -> Option<Key> {
    if id == EMPTY {
        return None;
    }
    slots[id as usize].key(flavor)
}

/// The scan's total order: higher packed scores win, ties prefer the
/// *lower* node id (the `then(b.0.cmp(&a.0))` of the scan's `max_by`).
fn duel(slots: &[Slot], flavor: Flavor, a: u32, b: u32) -> u32 {
    match (key_of(slots, flavor, a), key_of(slots, flavor, b)) {
        (None, None) => EMPTY,
        (Some(_), None) => a,
        (None, Some(_)) => b,
        (Some(ka), Some(kb)) => {
            if (ka, Reverse(a)) >= (kb, Reverse(b)) {
                a
            } else {
                b
            }
        }
    }
}

/// Tournament tree over one `(model, idle)` bucket's members. Leaves hold
/// node ids; internal slots hold the per-flavor duel winner of their
/// subtree. Positions are an implementation detail — winners depend only
/// on `(key, id)`, so leaf placement cannot affect decisions.
#[derive(Debug, Clone, Default)]
struct BucketTree {
    /// Leaf capacity; always a power of two (or 0 before first insert).
    cap: usize,
    /// `leaves[pos]` = node id or `EMPTY`.
    leaves: Vec<u32>,
    /// Internal duel winners, index 1..cap (standard implicit heap
    /// layout; entry 0 unused). Empty when `cap <= 1`.
    hp_win: Vec<u32>,
    spot_win: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl BucketTree {
    fn child(&self, flavor: Flavor, j: usize) -> u32 {
        if j >= self.cap {
            self.leaves[j - self.cap]
        } else {
            match flavor {
                Flavor::Hp => self.hp_win[j],
                Flavor::Spot => self.spot_win[j],
            }
        }
    }

    fn refresh_internal(&mut self, slots: &[Slot], i: usize) {
        let hp = duel(
            slots,
            Flavor::Hp,
            self.child(Flavor::Hp, 2 * i),
            self.child(Flavor::Hp, 2 * i + 1),
        );
        let spot = duel(
            slots,
            Flavor::Spot,
            self.child(Flavor::Spot, 2 * i),
            self.child(Flavor::Spot, 2 * i + 1),
        );
        self.hp_win[i] = hp;
        self.spot_win[i] = spot;
    }

    /// Recomputes winners on the path from leaf `pos` to the root.
    fn update_path(&mut self, slots: &[Slot], pos: u32) {
        let mut i = (self.cap + pos as usize) / 2;
        while i >= 1 {
            self.refresh_internal(slots, i);
            i /= 2;
        }
    }

    fn grow(&mut self, slots: &[Slot]) {
        let new_cap = (self.cap * 2).max(1);
        self.leaves.resize(new_cap, EMPTY);
        // hand out fresh positions high-to-low so pops take low first
        for pos in (self.cap..new_cap).rev() {
            self.free.push(pos as u32);
        }
        self.cap = new_cap;
        self.hp_win = vec![EMPTY; self.cap.max(1)];
        self.spot_win = vec![EMPTY; self.cap.max(1)];
        for i in (1..self.cap).rev() {
            self.refresh_internal(slots, i);
        }
    }

    fn insert(&mut self, slots: &[Slot], id: u32) -> u32 {
        if self.free.is_empty() {
            self.grow(slots);
        }
        let pos = self.free.pop().expect("grow produced a free leaf");
        self.leaves[pos as usize] = id;
        self.len += 1;
        self.update_path(slots, pos);
        pos
    }

    fn remove(&mut self, slots: &[Slot], pos: u32) {
        debug_assert_ne!(self.leaves[pos as usize], EMPTY);
        self.leaves[pos as usize] = EMPTY;
        self.free.push(pos);
        self.len -= 1;
        self.update_path(slots, pos);
    }

    fn winner(&self, slots: &[Slot], flavor: Flavor) -> u32 {
        if self.len == 0 || self.cap == 0 {
            return EMPTY;
        }
        if self.cap == 1 {
            let id = self.leaves[0];
            if key_of(slots, flavor, id).is_some() {
                return id;
            }
            return EMPTY;
        }
        match flavor {
            Flavor::Hp => self.hp_win[1],
            Flavor::Spot => self.spot_win[1],
        }
    }
}

/// The score index. One per [`Pts`](crate::Pts) instance, bound to one
/// cluster value at a time (a different cluster — or a clone, which mints
/// a fresh change-log instance — triggers a rebuild on first use).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreIndex {
    /// Change-log instance this index is synced to.
    bound: Option<u64>,
    cursor: u64,
    last_now: SimTime,
    slots: Vec<Slot>,
    trees: BTreeMap<(GpuModel, u32), BucketTree>,
    /// Min-heap of `(valid_until, node id)` count-window deadlines.
    expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per failure domain: the `draining_in_domain` its members' keys were
    /// built with, and those members. Empty unless the policy is
    /// drain-aware; fixed between rebuilds (a new topology is a new log
    /// instance, and minted nodes join no domain).
    domains: Vec<(u32, Vec<u32>)>,
    scratch: Vec<u32>,
}

impl ScoreIndex {
    /// Brings the index in sync with `cluster` at `now`: full rebuild on
    /// first contact / instance change / log overflow / time moving
    /// backwards, otherwise an incremental replay of the changed ids plus
    /// aging-out of expired eviction windows.
    pub(crate) fn prepare(&mut self, pts: &Pts, cluster: &Cluster, now: SimTime) {
        let log = cluster.change_log();
        if self.bound != Some(log.instance()) || now < self.last_now {
            self.rebuild(pts, cluster, now);
            return;
        }
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        let replayed = log.replay(self.cursor, |id| ids.push(id));
        if !replayed {
            self.scratch = ids;
            self.rebuild(pts, cluster, now);
            return;
        }
        self.cursor = log.cursor();
        for &id in &ids {
            self.recompute(pts, cluster, id, now);
            self.rekey_domain(pts, cluster, id, now);
        }
        self.scratch = ids;
        while let Some(&Reverse((t, id))) = self.expiry.peek() {
            if t >= now.as_secs() {
                break;
            }
            self.expiry.pop();
            // only act on the node's *current* deadline; earlier entries
            // for the same node are stale and skipped
            if self
                .slots
                .get(id as usize)
                .is_some_and(|s| s.valid_until == Some(t))
            {
                self.recompute(pts, cluster, id, now);
            }
        }
        self.last_now = now;
    }

    fn rebuild(&mut self, pts: &Pts, cluster: &Cluster, now: SimTime) {
        let log = cluster.change_log();
        self.bound = Some(log.instance());
        self.cursor = log.cursor();
        self.last_now = now;
        self.trees.clear();
        self.expiry.clear();
        self.slots.clear();
        self.slots.resize(cluster.nodes().len(), Slot::default());
        let keyed_domains = if pts.policy().drain_aware {
            cluster.failure_domain_count() as u32
        } else {
            0
        };
        self.domains = (0..keyed_domains)
            .map(|d| (cluster.draining_in_domain(d), Vec::new()))
            .collect();
        for node in cluster.nodes() {
            let domain = cluster.domain_of(node.id());
            if let Some((_, members)) = domain.and_then(|d| self.domains.get_mut(d as usize)) {
                members.push(node.id().raw());
            }
            self.recompute(pts, cluster, node.id().raw(), now);
        }
    }

    /// Re-keys the domain-mates of changed node `id` when its domain's
    /// drain count is no longer the one their keys were built with.
    fn rekey_domain(&mut self, pts: &Pts, cluster: &Cluster, id: u32, now: SimTime) {
        let Some(d) = cluster.domain_of(NodeId::new(id)) else {
            return;
        };
        let Some((cached, members)) = self.domains.get_mut(d as usize) else {
            return; // not drain-aware: no key reads the count
        };
        let draining = cluster.draining_in_domain(d);
        if *cached == draining {
            return;
        }
        *cached = draining;
        for i in 0..members.len() {
            let mate = self.domains[d as usize].1[i];
            self.recompute(pts, cluster, mate, now);
        }
    }

    /// Recomputes one node's cached keys and tree membership from real
    /// cluster state.
    fn recompute(&mut self, pts: &Pts, cluster: &Cluster, id: u32, now: SimTime) {
        if self.slots.len() <= id as usize {
            // scale-out minted a fresh node id
            self.slots.resize(id as usize + 1, Slot::default());
        }
        let placement = cluster.node_placement_key(id);
        let (hp, spot, valid_until) = match placement {
            None => (None, None, None),
            Some(_) => {
                let node = &cluster.nodes()[id as usize];
                let prefix = policy_prefix(pts, cluster, node, now);
                let key = |priority| {
                    pts.node_scores(node, priority, now)
                        .map(|s| pack(prefix, s))
                };
                let evictions = if pts.scoring_time_invariant() {
                    None
                } else {
                    node.eviction_score_valid_until(now, &pts.eviction_windows())
                };
                let failures = if pts.policy().reliability {
                    node.failure_score_valid_until(now, pts.policy().failure_window_secs)
                } else {
                    None
                };
                // whichever count changes first
                let valid = evictions.into_iter().chain(failures).min();
                (
                    key(Priority::Hp),
                    key(Priority::Spot),
                    valid.map(SimTime::as_secs),
                )
            }
        };
        let slot = &mut self.slots[id as usize];
        let old_bucket = slot.bucket;
        let deadline_changed = slot.valid_until != valid_until;
        slot.hp = hp;
        slot.spot = spot;
        slot.valid_until = valid_until;
        match (old_bucket, placement) {
            (Some((m, k, pos)), Some(new)) if (m, k) == new => {
                // same bucket, keys changed: refresh the winner path
                let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
                tree.update_path(&self.slots, pos);
            }
            (old, new) => {
                if let Some((m, k, pos)) = old {
                    let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
                    tree.remove(&self.slots, pos);
                }
                if let Some((m, k)) = new {
                    let tree = self.trees.entry((m, k)).or_default();
                    let pos = tree.insert(&self.slots, id);
                    self.slots[id as usize].bucket = Some((m, k, pos));
                } else {
                    self.slots[id as usize].bucket = None;
                }
            }
        }
        if deadline_changed {
            if let Some(t) = valid_until {
                self.expiry.push(Reverse((t, id)));
            }
        }
    }

    /// The scan winner among schedulable `model` nodes with at least
    /// `need` whole idle cards: lexicographic max of the cached scores,
    /// ties to the lower node id. Requires a preceding
    /// [`ScoreIndex::prepare`] this scheduling round.
    pub(crate) fn query(&self, model: GpuModel, need: u32, flavor: Flavor) -> Option<u32> {
        let mut best: Option<(Key, Reverse<u32>)> = None;
        let mut best_id = EMPTY;
        for (_, tree) in self.trees.range((model, need)..=(model, u32::MAX)) {
            let w = tree.winner(&self.slots, flavor);
            if w == EMPTY {
                continue;
            }
            let key = key_of(&self.slots, flavor, w).expect("winner has a key");
            let cand = (key, Reverse(w));
            if best.is_none_or(|b| cand > b) {
                best = Some(cand);
                best_id = w;
            }
        }
        (best_id != EMPTY).then_some(best_id)
    }

    /// Whether a decision has gone through this index yet.
    #[cfg(test)]
    pub(crate) fn is_bound(&self) -> bool {
        self.bound.is_some()
    }

    /// The cached key of a node a query just returned.
    pub(crate) fn key(&self, id: u32, flavor: Flavor) -> Key {
        key_of(&self.slots, flavor, id).expect("query winners are keyed")
    }

    /// Oracle diagnostics: node `id`'s cached key and bucket next to a
    /// fresh recomputation from cluster state.
    #[cfg(debug_assertions)]
    pub(crate) fn cached_vs_fresh(
        &self,
        pts: &Pts,
        cluster: &Cluster,
        id: NodeId,
        priority: Priority,
        now: SimTime,
    ) -> String {
        let node = &cluster.nodes()[id.index()];
        let slot = &self.slots[id.index()];
        let fresh = pts
            .node_scores(node, priority, now)
            .map(|s| pack(policy_prefix(pts, cluster, node, now), s));
        format!(
            "{id}: cached key {:?} bucket {:?} valid_until {:?} | fresh key {fresh:?} placement {:?}",
            slot.key(Flavor::of(priority)),
            slot.bucket,
            slot.valid_until,
            cluster.node_placement_key(id.raw()),
        )
    }

    /// Temporarily hides a node from queries (gang budget exhausted for
    /// the pods still being placed). Keys stay cached; pair with
    /// [`ScoreIndex::unmask`] before the scheduling call returns.
    pub(crate) fn mask(&mut self, id: u32) {
        if let Some((m, k, pos)) = self.slots[id as usize].bucket.take() {
            let tree = self.trees.get_mut(&(m, k)).expect("occupied bucket");
            tree.remove(&self.slots, pos);
        }
    }

    /// Re-admits a node hidden by [`ScoreIndex::mask`]. The cluster was
    /// not mutated in between (scheduling is a pure read), so the node
    /// rejoins the bucket it was masked out of.
    pub(crate) fn unmask(&mut self, cluster: &Cluster, id: u32) {
        if self.slots[id as usize].bucket.is_some() {
            return;
        }
        if let Some((m, k)) = cluster.node_placement_key(id) {
            let tree = self.trees.entry((m, k)).or_default();
            let pos = tree.insert(&self.slots, id);
            self.slots[id as usize].bucket = Some((m, k, pos));
        }
    }
}
