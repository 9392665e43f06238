//! Fleet-scale sharded simulation: failure-domain shards simulated in
//! parallel with a deterministic merge — bit-identical at any thread
//! count.
//!
//! # Why shards
//!
//! A 100k-node week is too much state for one event loop to stay cache
//! resident, but GPU fleets are not one flat scheduling domain: placement
//! never crosses a failure domain (a rack, a pod, a spine block), because
//! gang fabrics do not span them. [`run_fleet`] exploits exactly that
//! boundary — each [`FleetShard`] carries its own [`Cluster`], trace and
//! [`DynamicsPlan`], runs the ordinary engine ([`crate::run`]) over it,
//! and the per-shard [`SimReport`]s are folded into one fleet report.
//!
//! # Shard-merge determinism rules
//!
//! The merge is deterministic by construction, independent of thread
//! count and completion order:
//!
//! 1. **One event stream per shard.** A shard's events are totally
//!    ordered by the engine's `(time, seq)` pair, exactly as in a
//!    single-cluster run; nothing about sharding changes a shard's own
//!    schedule.
//! 2. **Merge key `(time, shard)`.** Time-stamped streams (task records
//!    keyed by submit time, allocation samples, eviction / spot-start /
//!    displacement / migration times) are concatenated in ascending
//!    shard order and then *stably* sorted by time, so same-instant
//!    entries tie-break by shard index and, within a shard, keep their
//!    engine order. The result is a single total order no matter which
//!    thread finished first.
//! 3. **Barrier points at cross-shard events.** This engine has none —
//!    shards are failure-domain-isolated, so no event in shard *i* can
//!    observe state in shard *j* and every shard run commutes. A future
//!    cross-shard event (fleet-wide quota rebalancing, inter-domain
//!    migration) must be a *barrier*: all shards drained to the event's
//!    time, the event applied once globally, streams resumed. The merge
//!    key already accommodates that — a barrier event is simply a
//!    same-time entry in every stream.
//! 4. **Scalars fold associatively.** Counters (`node_downs`,
//!    `failed_commits`, …) sum; `makespan` takes the max; availability
//!    folds as the static-capacity-weighted mean of shard
//!    unavailability, with each shard weighted by its as-built capacity
//!    (capacity added mid-run rides inside the shard's own integral,
//!    exactly as in an unsharded run).
//!
//! The workspace property tests pin this down: a fleet run at eight
//! threads is byte-identical — report JSON and FNV fingerprint — to the
//! same fleet at one thread, and a single-shard fleet is identical to a
//! plain [`crate::run`].
//!
//! These rules only hold if no decision path smuggles in a
//! nondeterministic order or clock. That side of the contract is
//! enforced statically by the `gfs_lint` crate (`just lint`): `det-iter`
//! bans hash-container iteration in decision crates, `det-clock` bans
//! wall-clock reads outside the bench/timing allowlists, and
//! `changelog-coverage` guards the index-invalidation contract below —
//! see the `gfs_lint` crate docs for the full rule table and the
//! `// gfs-lint: allow(rule, "reason")` escape hatch.
//!
//! # Index invalidation contract
//!
//! Shards also bound the *placement index* story. Each shard's
//! [`Cluster`] owns a [`ChangeLog`](gfs_cluster::ChangeLog): every
//! score-relevant mutation (occupancy change, fail/drain/restore,
//! scale-out) appends the touched node id. Read-side caches — the
//! `gfs_core` score index that replaces the O(n) placement scan — obey
//! this contract:
//!
//! * a cache records the log's `instance` id and its `cursor` at sync;
//! * before answering a query it replays the suffix since its cursor,
//!   re-scoring exactly the touched nodes (O(changed), not O(nodes));
//! * a cursor is only meaningful against the same instance — clones and
//!   snapshot restores mint fresh ids, forcing a rebuild instead of a
//!   silent mis-apply — and a reader that slept past the ring capacity
//!   is told to rebuild rather than replay a truncated window.
//!
//! Because a cache is owned by the scheduler and a scheduler is owned by
//! one shard, no invalidation traffic ever crosses a shard boundary:
//! parallel shard simulation needs no locking around placement state.
//!
//! # Example
//!
//! ```
//! use gfs_sim::fleet::{domain_shards, partition_tasks, run_fleet, FleetShard};
//! use gfs_sim::SimConfig;
//! use gfs_types::{DynamicsPlan, GpuModel};
//!
//! let clusters = domain_shards(2, 4, GpuModel::A100, 8);
//! let tasks = partition_tasks(Vec::new(), 2);
//! let shards: Vec<FleetShard> = clusters
//!     .into_iter()
//!     .zip(tasks)
//!     .map(|(cluster, tasks)| FleetShard {
//!         cluster,
//!         tasks,
//!         dynamics: DynamicsPlan::default(),
//!     })
//!     .collect();
//! # struct Noop;
//! # impl gfs_cluster::Scheduler for Noop {
//! #     fn name(&self) -> &str { "noop" }
//! #     fn schedule(
//! #         &mut self,
//! #         _: &gfs_types::TaskSpec,
//! #         _: &gfs_cluster::Cluster,
//! #         _: gfs_types::SimTime,
//! #     ) -> Option<gfs_cluster::Decision> { None }
//! # }
//! let fleet = run_fleet(shards, &|_| Box::new(Noop), &SimConfig::default(), 2);
//! assert_eq!(fleet.shard_hashes.len(), 2);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gfs_cluster::{Cluster, Scheduler};
use gfs_types::{DynamicsPlan, FailureDomain, GpuModel, NodeId, TaskSpec};

use crate::engine::SimConfig;
use crate::report::SimReport;
use crate::snapshot::{fnv1a, report_hash};

/// One failure-domain shard of a fleet: its cluster, its slice of the
/// trace, and the dynamics that hit *its* nodes (node ids are
/// shard-local).
#[derive(Debug)]
pub struct FleetShard {
    /// The shard's own cluster (typically one failure domain).
    pub cluster: Cluster,
    /// Task arrivals routed to this shard.
    pub tasks: Vec<TaskSpec>,
    /// Churn against this shard's nodes. Replaces the base config's
    /// dynamics for the shard run — fleet configs keep their global
    /// `SimConfig.dynamics` empty.
    pub dynamics: DynamicsPlan,
}

/// The merged outcome of a fleet run plus per-shard fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The deterministic fold of every shard report (see the
    /// [module docs](self) for the merge rules).
    pub report: SimReport,
    /// FNV-1a fingerprint of each shard's report JSON, in shard order.
    pub shard_hashes: Vec<u64>,
    /// Fingerprint of the merged report combined with every shard hash —
    /// one `u64` that pins the entire fleet outcome.
    pub fleet_hash: u64,
}

/// Builds `domains` shard clusters of `nodes_per_domain` homogeneous
/// nodes each, every shard declared as a single failure domain (the
/// topology [`run_fleet`] assumes: shard boundary == blast radius).
#[must_use]
pub fn domain_shards(
    domains: usize,
    nodes_per_domain: u32,
    model: GpuModel,
    gpus_per_node: u32,
) -> Vec<Cluster> {
    (0..domains)
        .map(|_| {
            let mut c = Cluster::homogeneous(nodes_per_domain, model, gpus_per_node);
            c.set_failure_domains(&[FailureDomain::new((0..nodes_per_domain).map(NodeId::new))]);
            c
        })
        .collect()
}

/// Deterministically routes a trace across `shards` shards by
/// organization (`org.raw() % shards`), keeping each org's gangs — and
/// its diurnal pattern — inside one failure domain. Relative task order
/// within a shard is the trace order.
#[must_use]
pub fn partition_tasks(tasks: Vec<TaskSpec>, shards: usize) -> Vec<Vec<TaskSpec>> {
    let shards = shards.max(1);
    let mut out: Vec<Vec<TaskSpec>> = (0..shards).map(|_| Vec::new()).collect();
    for t in tasks {
        let s = usize::from(t.org.raw()) % shards;
        out[s].push(t);
    }
    out
}

struct ShardOutcome {
    report: SimReport,
    /// As-built capacity weight for the availability fold.
    weight: f64,
}

/// Runs every shard and folds the reports — see the [module docs](self)
/// for the determinism rules. `scheduler_factory` builds one scheduler
/// per shard (called with the shard index; each scheduler is built,
/// used and dropped on its worker thread, so non-`Send` schedulers —
/// e.g. GFS with a boxed forecaster — work fine; only the factory
/// crosses threads). `threads == 0` means one worker per available
/// core; any thread count produces bit-identical output.
#[must_use]
pub fn run_fleet(
    shards: Vec<FleetShard>,
    scheduler_factory: &(dyn Fn(usize) -> Box<dyn Scheduler> + Sync),
    cfg: &SimConfig,
    threads: usize,
) -> FleetReport {
    let n = shards.len();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(n.max(1));

    let run_shard = |i: usize, shard: FleetShard| -> ShardOutcome {
        let weight = shard.cluster.static_capacity(None);
        let mut scheduler = scheduler_factory(i);
        let mut shard_cfg = cfg.clone();
        shard_cfg.dynamics = shard.dynamics;
        let report = crate::run(shard.cluster, &mut *scheduler, shard.tasks, &shard_cfg);
        ShardOutcome { report, weight }
    };

    let outcomes: Vec<ShardOutcome> = if threads <= 1 {
        shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| run_shard(i, s))
            .collect()
    } else {
        // self-scheduling worker pool over the shard list; results land
        // in per-shard slots so completion order cannot leak into output
        let slots: Vec<Mutex<Option<ShardOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let work: Vec<Mutex<Option<FleetShard>>> =
            shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let shard = work[i]
                        .lock()
                        .expect("shard slot poisoned")
                        .take()
                        .expect("each shard taken once");
                    let outcome = run_shard(i, shard);
                    *slots[i].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("every shard ran")
            })
            .collect()
    };

    let shard_hashes: Vec<u64> = outcomes.iter().map(|o| report_hash(&o.report)).collect();
    let report = merge_reports(outcomes);
    let mut tag = String::new();
    for h in &shard_hashes {
        tag.push_str(&format!("{h:016x}|"));
    }
    tag.push_str(&format!("{:016x}", report_hash(&report)));
    let fleet_hash = fnv1a(tag.as_bytes());
    FleetReport {
        report,
        shard_hashes,
        fleet_hash,
    }
}

/// Folds shard reports in shard order under the merge rules of the
/// [module docs](self).
fn merge_reports(outcomes: Vec<ShardOutcome>) -> SimReport {
    let mut merged = SimReport::default();
    let mut weight_total = 0.0;
    let mut unavail_weighted = 0.0;
    for o in outcomes {
        let r = o.report;
        merged.tasks.extend(r.tasks);
        merged.alloc_samples.extend(r.alloc_samples);
        merged.node_alloc_samples.extend(r.node_alloc_samples);
        merged.eviction_times.extend(r.eviction_times);
        merged.spot_start_times.extend(r.spot_start_times);
        merged.displacement_times.extend(r.displacement_times);
        merged.migration_times.extend(r.migration_times);
        merged.makespan = merged.makespan.max(r.makespan);
        merged.failed_commits += r.failed_commits;
        merged.node_downs += r.node_downs;
        merged.node_ups += r.node_ups;
        merged.node_drains += r.node_drains;
        merged.nodes_added += r.nodes_added;
        merged.gpus_added += r.gpus_added;
        merged.gpu_hours_bought += r.gpu_hours_bought;
        merged.market_spend_usd += r.market_spend_usd;
        merged.stranded_gpu_hours += r.stranded_gpu_hours;
        unavail_weighted += r.unavailability * o.weight;
        weight_total += o.weight;
    }
    if weight_total > 0.0 {
        merged.unavailability = unavail_weighted / weight_total;
    }
    // stable sorts realize the (time, shard) merge key: concatenation
    // order is shard order, and stability preserves it on ties
    merged.tasks.sort_by_key(|t| t.submit);
    merged.alloc_samples.sort_by_key(|a| a.at);
    merged.eviction_times.sort_unstable();
    merged.spot_start_times.sort_unstable();
    merged.displacement_times.sort_unstable();
    merged.migration_times.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_cluster::Decision;
    use gfs_types::{ClusterEvent, GpuDemand, OrgId, Priority, SimTime};
    use serde::Serialize;
    use std::collections::HashMap;

    struct FirstFit;

    impl Scheduler for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }

        fn schedule(
            &mut self,
            task: &TaskSpec,
            cluster: &Cluster,
            _now: SimTime,
        ) -> Option<Decision> {
            let need = task.gpus_per_pod.whole_cards().unwrap_or(1);
            let candidates = cluster.whole_fit_candidates(task.gpu_model, need);
            let mut budget: HashMap<NodeId, u32> = HashMap::new();
            let mut nodes = Vec::with_capacity(task.pods as usize);
            for _ in 0..task.pods {
                let slot = candidates
                    .iter()
                    .map(|&id| (NodeId::new(id), &cluster.nodes()[id as usize]))
                    .find(|(id, n)| {
                        budget.get(id).copied().unwrap_or_else(|| n.idle_gpus()) >= need
                    })
                    .map(|(id, _)| id)?;
                let entry = budget
                    .entry(slot)
                    .or_insert_with(|| cluster.nodes()[slot.index()].idle_gpus());
                *entry -= need;
                nodes.push(slot);
            }
            Some(Decision::place(nodes))
        }
    }

    fn task(id: u64, org: u16, gpus: u32, dur: u64, submit: u64) -> TaskSpec {
        TaskSpec::builder(id)
            .org(OrgId::new(org))
            .priority(if id.is_multiple_of(3) {
                Priority::Spot
            } else {
                Priority::Hp
            })
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(dur)
            .submit_at(SimTime::from_secs(submit))
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 60 })
            .build()
            .unwrap()
    }

    fn shard_fixture(shards: usize) -> Vec<FleetShard> {
        let clusters = domain_shards(shards, 3, GpuModel::A100, 8);
        let tasks: Vec<TaskSpec> = (0..48u64)
            .map(|i| task(i, (i % 5) as u16, (i % 4 + 1) as u32, 400 + i * 37, i * 55))
            .collect();
        let traces = partition_tasks(tasks, shards);
        clusters
            .into_iter()
            .zip(traces)
            .enumerate()
            .map(|(s, (cluster, tasks))| FleetShard {
                cluster,
                tasks,
                dynamics: DynamicsPlan::new(vec![
                    ClusterEvent::down(NodeId::new(0), SimTime::from_secs(700 + s as u64 * 13)),
                    ClusterEvent::up(NodeId::new(0), SimTime::from_secs(1_900)),
                ])
                .unwrap(),
            })
            .collect()
    }

    #[test]
    fn single_shard_fleet_matches_plain_run() {
        let mut shards = shard_fixture(1);
        let shard = shards.remove(0);
        let cfg = SimConfig {
            dynamics: shard.dynamics.clone(),
            ..SimConfig::default()
        };
        let direct = crate::run(
            shard.cluster.clone(),
            &mut FirstFit,
            shard.tasks.clone(),
            &cfg,
        );
        let fleet = run_fleet(
            vec![shard],
            &|_| Box::new(FirstFit),
            &SimConfig::default(),
            1,
        );
        assert_eq!(fleet.report, direct);
        assert_eq!(fleet.shard_hashes, vec![report_hash(&direct)]);
    }

    #[test]
    fn parallel_and_serial_fleets_are_bit_identical() {
        let serial = run_fleet(
            shard_fixture(4),
            &|_| Box::new(FirstFit),
            &SimConfig::default(),
            1,
        );
        let parallel = run_fleet(
            shard_fixture(4),
            &|_| Box::new(FirstFit),
            &SimConfig::default(),
            8,
        );
        assert_eq!(serial.report, parallel.report);
        assert_eq!(serial.shard_hashes, parallel.shard_hashes);
        assert_eq!(serial.fleet_hash, parallel.fleet_hash);
        let mut a = String::new();
        serial.report.serialize_json(&mut a);
        let mut b = String::new();
        parallel.report.serialize_json(&mut b);
        assert_eq!(a, b, "merged reports must be byte-identical");
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        let tasks: Vec<TaskSpec> = (0..30u64)
            .map(|i| task(i, (i % 7) as u16, 1, 100, i))
            .collect();
        let parts = partition_tasks(tasks.clone(), 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 30);
        for (s, part) in parts.iter().enumerate() {
            for t in part {
                assert_eq!(usize::from(t.org.raw()) % 3, s);
            }
        }
        assert_eq!(parts, partition_tasks(tasks, 3));
    }
}
