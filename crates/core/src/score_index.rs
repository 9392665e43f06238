//! Epoch-invalidated score index: the O(log n) replacement for the PTS
//! lexicographic placement scan.
//!
//! [`Pts::schedule_nonpreemptive`](crate::Pts::schedule_nonpreemptive)
//! historically found each pod's node by scoring *every* feasible
//! candidate and taking the lexicographic max — O(n) per decision, the
//! difference between a simulator and a schedulable control plane at
//! 100k nodes (ROADMAP item 1). This module caches the scores instead:
//!
//! * **Per-flavor ordered sets** — each capacity-index bucket
//!   `(GpuModel, idle cards)` holds two `BTreeSet`s, one per [`Flavor`],
//!   of `(Reverse(key), node id)` where the key is the packed `<hazard,
//!   drain, Score1, Score2, Score3>`. A set's first element is the exact
//!   scan winner of its bucket: the greatest key, ties to the lower id. A
//!   whole-card query for `g` cards takes the least first element over
//!   the buckets `g..` (at most `gpus_per_node + 1` of them) — O(log n)
//!   total. A circuit-broken spot node has no spot key, so it sits in no
//!   spot set.
//! * **One owner of the key** — [`Pts::node_key`](crate::Pts::node_key)
//!   builds both flavors' keys, the same keys the reference scan ranks
//!   by, together with how long they hold; this module only stores and
//!   orders them.
//! * **Epoch invalidation** — the cluster's `ChangeLog` records every
//!   score-relevant node mutation; [`ScoreIndex::prepare`] replays only
//!   the ids touched since its last cursor and recomputes those keys. A
//!   cursor that falls off the bounded log (or a different cluster
//!   instance) forces a full rebuild.
//! * **Eviction-window-aware invalidation** — `Score3` depends on
//!   windowed eviction *counts*, which also change by pure aging. Each
//!   cached key carries the last instant its counts stay valid (the
//!   same [`TimeLog::within`](gfs_cluster::TimeLog::within) query that
//!   counts them says when its oldest counted entry leaves); a min-heap
//!   of those deadlines recomputes exactly the nodes whose windows just
//!   aged out. The hard-window failure count behind the reliability
//!   component ages the same way and shares the heap.
//! * **Domain re-keying** — the drain word is a property of a node's
//!   failure *domain*. Whenever the cluster declares domains, the index
//!   remembers the `draining_in_domain` each domain's keys were built
//!   with; when a replayed node's domain reports a different count, every
//!   member ([`Cluster::domain_members`]) is recomputed (`drain_node`/
//!   `fail_node`/`restore_node` all log the node, and
//!   `set_failure_domains` mints a new log instance, i.e. a rebuild). A
//!   preset that is not drain-aware keys the constant `u64::MAX`, so its
//!   re-keyed members keep their keys.
//!
//! ## Why the cached order is the scan's order
//!
//! The cache and the scan compare the same words: the scan ranks every
//! candidate by [`Pts::node_key`](crate::Pts::node_key) too, so a synced
//! index — its keys recomputed from real node state whenever they may
//! have changed — cannot disagree with the scan even in the last bit
//! (property-pinned in `tests/property_based.rs`). The words order like
//! the scores because of one invariant: every packed `f64` component
//! (hazard `∈ [0, 1]`, `Score1 ∈ [0, 1]`, `Score2 ≥ 0`, `Score3 ≥ 0`) is
//! finite with its sign bit clear, which a `debug_assert` in `node_key`
//! enforces, and for such doubles the IEEE-754 bit pattern is monotone in
//! the value, so comparing words is `partial_cmp` on the scores with no
//! epsilon anywhere (the spot circuit breaker excludes a node *before* a
//! non-positive `Score3` could be stored). The drain word is
//! `u64::MAX − draining_in_domain`: fewer drains, larger word. Only
//! [`indexable`](gfs_sched::placement::PlacementPolicy::indexable)
//! policies are cached: `hazard_aware` weighs each failure by
//! `2^(−age/half_life)`, continuous in `now`, and the time-free factoring
//! `2^(−now/hl)·Σ 2^(t_k/hl)` is not bit-equal to the scan's `Σ exp2`.
//!
//! ## What never enters the cache
//!
//! Gang budgets: a pod's predecessors only *gate* a node (virtual budget
//! < demand), they never change its score, so the caller masks
//! budget-exhausted nodes for the duration of one gang and reinserts
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
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use gfs_cluster::Cluster;
use gfs_types::{GpuModel, NodeId, Priority, SimTime};

use crate::pts::Pts;

/// Which cached score flavor a query reads; `flavor as usize` indexes a
/// slot's keys and a bucket's sets.
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

/// One bucket's members per flavor, first element = the scan's winner.
type Bucket = [BTreeSet<(Reverse<Key>, u32)>; 2];

/// Per-node cache slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The `(model, idle)` bucket the node sits in; `None` while out of
    /// the placement structures (down, draining, or temporarily masked by
    /// a gang budget).
    bucket: Option<(GpuModel, u32)>,
    /// HP, then spot key (`None`: excluded from that flavor).
    keys: [Option<Key>; 2],
    /// Last second at which the windowed eviction and failure counts
    /// behind these keys are still current (`None` = stable until the next
    /// mutation).
    valid_until: Option<u64>,
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
    buckets: BTreeMap<(GpuModel, u32), Bucket>,
    /// Min-heap of `(valid_until, node id)` count-window deadlines.
    expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per failure domain: the `draining_in_domain` its members' keys were
    /// built with. The members are the cluster's
    /// [`Cluster::domain_members`], fixed between rebuilds (a new topology
    /// is a new log instance, and minted nodes join no domain).
    domain_drains: Vec<u32>,
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
        self.buckets.clear();
        self.expiry.clear();
        self.slots.clear();
        self.slots.resize(cluster.nodes().len(), Slot::default());
        self.domain_drains = (0..cluster.failure_domain_count() as u32)
            .map(|d| cluster.draining_in_domain(d))
            .collect();
        for node in cluster.nodes() {
            self.recompute(pts, cluster, node.id().raw(), now);
        }
    }

    /// Re-keys the domain-mates of changed node `id` when its domain's
    /// drain count is no longer the one their keys were built with.
    fn rekey_domain(&mut self, pts: &Pts, cluster: &Cluster, id: u32, now: SimTime) {
        let Some(d) = cluster.domain_of(NodeId::new(id)) else {
            return;
        };
        let draining = cluster.draining_in_domain(d);
        if self.domain_drains[d as usize] == draining {
            return;
        }
        self.domain_drains[d as usize] = draining;
        for mate in cluster.domain_members(d) {
            self.recompute(pts, cluster, mate.raw(), now);
        }
    }

    /// Recomputes one node's cached keys and bucket from real cluster
    /// state.
    fn recompute(&mut self, pts: &Pts, cluster: &Cluster, id: u32, now: SimTime) {
        if self.slots.len() <= id as usize {
            // scale-out minted a fresh node id
            self.slots.resize(id as usize + 1, Slot::default());
        }
        let node = &cluster.nodes()[id as usize];
        let placement = cluster.node_placement_key(id);
        let (keys, valid_until) = match placement {
            None => ([None; 2], None),
            Some(_) => pts.node_key(cluster, node, now),
        };
        let valid_until = valid_until.map(SimTime::as_secs);
        self.leave(id);
        let slot = &mut self.slots[id as usize];
        let deadline_changed = slot.valid_until != valid_until;
        slot.keys = keys;
        slot.valid_until = valid_until;
        if let Some(bucket) = placement {
            self.join(id, bucket);
        }
        if deadline_changed {
            if let Some(t) = valid_until {
                self.expiry.push(Reverse((t, id)));
            }
        }
    }

    /// Takes node `id` out of its bucket's sets, if it is in one.
    fn leave(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        let Some(bucket) = slot.bucket.take() else {
            return;
        };
        let sets = self.buckets.get_mut(&bucket).expect("occupied bucket");
        for (set, key) in sets.iter_mut().zip(slot.keys) {
            if let Some(key) = key {
                let present = set.remove(&(Reverse(key), id));
                debug_assert!(present, "node {id} missing from its bucket");
            }
        }
    }

    /// Puts node `id` into `bucket`'s sets under its cached keys.
    fn join(&mut self, id: u32, bucket: (GpuModel, u32)) {
        let slot = &mut self.slots[id as usize];
        slot.bucket = Some(bucket);
        let sets = self.buckets.entry(bucket).or_default();
        for (set, key) in sets.iter_mut().zip(slot.keys) {
            if let Some(key) = key {
                set.insert((Reverse(key), id));
            }
        }
    }

    /// The scan winner among schedulable `model` nodes with at least
    /// `need` whole idle cards: lexicographic max of the cached scores,
    /// ties to the lower node id. Requires a preceding
    /// [`ScoreIndex::prepare`] this scheduling round.
    pub(crate) fn query(&self, model: GpuModel, need: u32, flavor: Flavor) -> Option<u32> {
        self.buckets
            .range((model, need)..=(model, u32::MAX))
            .filter_map(|(_, sets)| sets[flavor as usize].first())
            .min()
            .map(|&(_, id)| id)
    }

    /// Whether a decision has gone through this index yet.
    #[cfg(test)]
    pub(crate) fn is_bound(&self) -> bool {
        self.bound.is_some()
    }

    /// The cached key of a node a query just returned.
    pub(crate) fn key(&self, id: u32, flavor: Flavor) -> Key {
        self.slots[id as usize].keys[flavor as usize].expect("query winners are keyed")
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
        let flavor = Flavor::of(priority) as usize;
        let node = &cluster.nodes()[id.index()];
        let slot = &self.slots[id.index()];
        let fresh = pts.node_key(cluster, node, now).0[flavor];
        format!(
            "{id}: cached key {:?} bucket {:?} valid_until {:?} | fresh key {fresh:?} placement {:?}",
            slot.keys[flavor],
            slot.bucket,
            slot.valid_until,
            cluster.node_placement_key(id.raw()),
        )
    }

    /// Temporarily hides a node from queries (gang budget exhausted for
    /// the pods still being placed). Keys stay cached; pair with
    /// [`ScoreIndex::unmask`] before the scheduling call returns.
    pub(crate) fn mask(&mut self, id: u32) {
        self.leave(id);
    }

    /// Re-admits a node hidden by [`ScoreIndex::mask`]. The cluster was
    /// not mutated in between (scheduling is a pure read), so the node
    /// rejoins the bucket it was masked out of.
    pub(crate) fn unmask(&mut self, cluster: &Cluster, id: u32) {
        if self.slots[id as usize].bucket.is_some() {
            return;
        }
        if let Some(bucket) = cluster.node_placement_key(id) {
            self.join(id, bucket);
        }
    }
}
