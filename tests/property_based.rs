//! Property-based tests over the core invariants: cluster capacity
//! accounting, checkpoint arithmetic, quota bounds and simulator
//! conservation laws.
//!
//! The harness is a small in-repo generator loop (seeded ChaCha8 →
//! deterministic pseudo-random cases) rather than an external property
//! testing crate, which keeps the workspace buildable offline. Each
//! property runs `CASES` independent cases; failures print the case seed
//! so a reproduction is one constant away.

use std::collections::BTreeMap;

use gfs::prelude::*;
use gfs_types::CheckpointPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 48;

/// Runs `f` once per case with an independently seeded generator.
fn for_all_cases(name: &str, f: impl Fn(&mut ChaCha8Rng)) {
    for_cases(name, CASES, f);
}

/// [`for_all_cases`] over the first `cases` seeds only.
fn for_cases(name: &str, cases: u64, f: impl Fn(&mut ChaCha8Rng)) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0000 + case);
        // isolate failures to a case seed
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = result {
            panic!("property {name} failed at case {case}: {e:?}");
        }
    }
}

#[test]
fn allocation_never_exceeds_capacity() {
    for_all_cases("allocation_never_exceeds_capacity", |rng| {
        let mut cluster = Cluster::homogeneous(4, GpuModel::A100, 8);
        let capacity = cluster.capacity(None);
        let n = rng.gen_range(1..40usize);
        for i in 0..n {
            let gpus = rng.gen_range(1..9u32);
            let at = rng.gen_range(0..10_000u64);
            let spec = TaskSpec::builder(i as u64 + 1)
                .priority(Priority::Spot)
                .gpus_per_pod(GpuDemand::whole(gpus))
                .duration_secs(1_000)
                .build()
                .expect("valid");
            // first-fit attempt; failures are fine
            let node = cluster
                .nodes()
                .iter()
                .find(|n| n.idle_gpus() >= gpus)
                .map(gfs::cluster::Node::id);
            if let Some(node) = node {
                cluster
                    .start_task(spec, &[node], SimTime::from_secs(at), 0)
                    .expect("fits");
            }
            assert!(cluster.hp_allocated(None) + cluster.spot_allocated(None) <= capacity);
            assert!(f64::from(cluster.idle_gpus(None)) <= capacity);
        }
    });
}

#[test]
fn checkpoint_preserved_progress_is_monotone_and_bounded() {
    for_all_cases("checkpoint_preserved_progress", |rng| {
        let interval = rng.gen_range(1..5_000u64);
        let carried = rng.gen_range(0..10_000u64);
        let executed = rng.gen_range(0..10_000u64);
        let plan = CheckpointPlan::Periodic { interval };
        let preserved = plan.preserved_progress(carried, executed);
        assert!(preserved >= carried, "never loses pre-existing progress");
        assert!(preserved <= carried + executed, "never invents progress");
        assert_eq!(
            plan.wasted_work(carried, executed),
            carried + executed - preserved
        );
    });
}

#[test]
fn quota_stays_within_physical_bounds() {
    for_all_cases("quota_stays_within_physical_bounds", |rng| {
        let demand = rng.gen_range(0.0..5_000.0f64);
        let evictions = rng.gen_range(0..30usize);
        let starts = rng.gen_range(0..30usize);
        let cluster = Cluster::homogeneous(16, GpuModel::A100, 8);
        let mut sqa = gfs::core::SpotQuotaAllocator::new(GfsParams::default());
        let now = SimTime::from_hours(1);
        for i in 0..evictions {
            sqa.record_eviction(TaskId::new(i as u64), now);
        }
        for i in 0..starts {
            sqa.record_spot_start(TaskId::new(1_000 + i as u64), now, 100);
        }
        sqa.update(now, &cluster, demand);
        assert!(sqa.quota() >= 0.0);
        assert!(sqa.quota() <= cluster.capacity(None) + 1e-9);
        let (lo, hi) = GfsParams::default().eta_bounds;
        assert!(sqa.eta() >= lo && sqa.eta() <= hi);
    });
}

#[test]
fn simulator_conserves_tasks_and_work() {
    for_all_cases("simulator_conserves_tasks_and_work", |rng| {
        let n = rng.gen_range(10..30usize);
        let mut tasks = Vec::new();
        for i in 0..n {
            let raw: u64 = rng.gen_range(0..u64::MAX);
            let priority = if raw.is_multiple_of(3) {
                Priority::Spot
            } else {
                Priority::Hp
            };
            let pods = (raw % 3 + 1) as u32;
            let gpus = (raw / 3 % 8 + 1) as u32;
            let dur = 60 + raw / 7 % 20_000;
            let submit = raw / 11 % 40_000;
            tasks.push(
                TaskSpec::builder(i as u64 + 1)
                    .priority(priority)
                    .pods(pods)
                    .gpus_per_pod(GpuDemand::whole(gpus))
                    .duration_secs(dur)
                    .submit_at(SimTime::from_secs(submit))
                    .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
                    .build()
                    .expect("valid"),
            );
        }
        let cluster = Cluster::homogeneous(6, GpuModel::A100, 8);
        let mut sched = YarnCs::new();
        let report = run(
            cluster,
            &mut sched,
            tasks.clone(),
            &SimConfig {
                max_time_secs: Some(10 * 24 * HOUR),
                ..SimConfig::default()
            },
        );
        assert_eq!(report.tasks.len(), tasks.len(), "every submission recorded");
        for t in &report.tasks {
            if let Some(jct) = t.jct() {
                assert!(jct >= t.work_secs, "completion time covers the work");
            }
            assert!(t.runs >= t.evictions, "each eviction ends one run");
        }
        assert_eq!(report.failed_commits, 0u64);
    });
}

/// Brute-force reference for the capacity-index queries: a direct scan
/// over every node, mirroring the pre-index scheduler loops.
mod brute {
    use super::*;
    use gfs::cluster::Node;

    pub fn whole_fit(cluster: &Cluster, model: GpuModel, need: u32) -> Vec<u32> {
        cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable() && n.model() == model && n.idle_gpus() >= need)
            .map(|n| n.id().raw())
            .collect()
    }

    pub fn fraction_fit(cluster: &Cluster, model: GpuModel, f: Cards) -> Vec<u32> {
        cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable() && n.model() == model)
            .filter(|n| n.gpus().iter().any(|g| g.free() >= f))
            .map(|n| n.id().raw())
            .collect()
    }

    /// Per node hosting spot pods, the spot tasks with a pod there,
    /// ascending by id, with the cards their pods there hold —
    /// re-derived from the placements.
    pub fn spot_on(cluster: &Cluster) -> BTreeMap<u32, Vec<(TaskId, Cards)>> {
        let mut on: BTreeMap<u32, Vec<(TaskId, Cards)>> = BTreeMap::new();
        for rt in cluster.running().filter(|rt| rt.spec.priority.is_spot()) {
            for p in &rt.placements {
                let list = on.entry(p.node.raw()).or_default();
                match list.last_mut() {
                    Some((task, cards)) if *task == rt.spec.id => *cards += p.alloc.cards(),
                    _ => list.push((rt.spec.id, p.alloc.cards())),
                }
            }
        }
        on
    }

    /// Schedulable `model` nodes with at least `need` idle cards, sorted
    /// by `(idle cards, id)`: the order a best-fit walk must visit.
    pub fn best_fit_order(cluster: &Cluster, model: GpuModel, need: u32) -> Vec<u32> {
        let mut fit: Vec<(u32, u32)> = cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable() && n.model() == model && n.idle_gpus() >= need)
            .map(|n| (n.idle_gpus(), n.id().raw()))
            .collect();
        fit.sort_unstable();
        fit.into_iter().map(|(_, id)| id).collect()
    }

    pub fn fully_idle(cluster: &Cluster) -> usize {
        cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable() && n.idle_gpus() == n.total_gpus())
            .count()
    }

    pub fn preemption(cluster: &Cluster, model: GpuModel, need: u32) -> Vec<u32> {
        let spot = spot_on(cluster);
        cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable() && n.model() == model)
            .filter(|n| n.idle_gpus() >= need || spot.contains_key(&n.id().raw()))
            .map(Node::id)
            .map(gfs_types::NodeId::raw)
            .collect()
    }

    /// O(1) totals vs a fresh scan over in-service nodes.
    pub fn totals_consistent(cluster: &Cluster) {
        let idle: u32 = cluster.nodes().iter().map(Node::idle_gpus).sum();
        let hp: Cards = cluster.nodes().iter().map(Node::hp_allocated).sum();
        let spot: Cards = cluster.nodes().iter().map(Node::spot_allocated).sum();
        let cap: f64 = cluster
            .nodes()
            .iter()
            .filter(|n| n.is_schedulable())
            .map(|n| f64::from(n.total_gpus()))
            .sum();
        let cap_static: f64 = cluster
            .nodes()
            .iter()
            .map(|n| f64::from(n.total_gpus()))
            .sum();
        assert_eq!(cluster.idle_gpus(None), idle);
        // exact: the totals are integer milli-cards, whatever the fractions
        assert_eq!(cluster.hp_allocated(None), hp.as_f64());
        assert_eq!(cluster.spot_allocated(None), spot.as_f64());
        assert_eq!(cluster.capacity(None), cap);
        assert_eq!(cluster.static_capacity(None), cap_static);
        for model in [GpuModel::A100, GpuModel::H800] {
            let m_idle: u32 = cluster
                .nodes()
                .iter()
                .filter(|n| n.model() == model)
                .map(Node::idle_gpus)
                .sum();
            let m_cap: f64 = cluster
                .nodes()
                .iter()
                .filter(|n| n.is_schedulable() && n.model() == model)
                .map(|n| f64::from(n.total_gpus()))
                .sum();
            assert_eq!(cluster.idle_gpus(Some(model)), m_idle);
            assert_eq!(cluster.capacity(Some(model)), m_cap);
        }
    }
}

/// Drives an arbitrary start/evict/finish/fail/drain/add/restore
/// sequence and checks every capacity-index query against the
/// brute-force node scan after each mutation. This is the safety net for
/// the incremental index maintenance in `Cluster::{start_task,
/// evict_task, finish_task, fail_node, drain_node, add_node,
/// restore_node}` — including that a failed or draining node's buckets
/// vanish atomically, scale-out grows every structure, and the O(1)
/// totals stay exact through churn.
///
/// The cases run on a 6-node cluster grown to at most 10 nodes. Six more
/// run on a 4,096-node cluster grown to at most 4,104, whose churn lands
/// mostly on ids around the index's bitset boundaries — 63 | 64 (one
/// word) and 4,095 | 4,096 (one summary word, which the first scale-out
/// crosses). They are fewer because each of their checks scans ~4,100
/// nodes.
#[test]
fn capacity_index_matches_brute_force_scan() {
    let name = "capacity_index_matches_brute_force_scan";
    for_all_cases(name, |rng| {
        churn_against_brute_force(rng, 6, 10, &|rng, n| rng.gen_range(0..n));
    });
    let near_boundaries = |rng: &mut ChaCha8Rng, n: u32| match rng.gen_range(0..4u32) {
        0 => rng.gen_range(60..68),
        1 | 2 => rng.gen_range(4_090..n),
        _ => rng.gen_range(0..n),
    };
    for_cases(name, 6, |rng| {
        churn_against_brute_force(rng, 4_096, 4_104, &near_boundaries);
    });
}

/// One case of [`capacity_index_matches_brute_force_scan`]: 60 random
/// mutations of a `nodes`-node cluster that scale-out may grow to
/// `max_nodes`, each mutation aimed at the node `pick(rng, node_count)`.
fn churn_against_brute_force(
    rng: &mut ChaCha8Rng,
    nodes: u32,
    max_nodes: u32,
    pick: &dyn Fn(&mut ChaCha8Rng, u32) -> u32,
) {
    let mut cluster = Cluster::homogeneous(nodes, GpuModel::A100, 8);
    let mut live: Vec<TaskId> = Vec::new();
    let mut next_id = 1u64;
    for step in 0..60 {
        // mutate: mostly starts, sometimes evict/finish a live task,
        // sometimes fail, drain, restore or add a node
        let node_count = cluster.nodes().len() as u32;
        let action = rng.gen_range(0..16u32);
        if action == 10 {
            // fail a random node; tasks drained there leave `live`
            let node = gfs_types::NodeId::new(pick(rng, node_count));
            if cluster.node(node).expect("known id").is_up() {
                let displaced = cluster
                    .fail_node(node, SimTime::from_secs(step))
                    .expect("up node fails cleanly");
                live.retain(|id| !displaced.iter().any(|d| d.task.spec.id == *id));
            } else {
                assert!(cluster.fail_node(node, SimTime::from_secs(step)).is_err());
            }
        } else if action == 13 {
            // drain a random node: pods keep running, placement stops
            let node = gfs_types::NodeId::new(pick(rng, node_count));
            let ok = cluster.node(node).expect("known id").is_schedulable();
            let drained = cluster.drain_node(node, SimTime::from_secs(step + 1_000));
            assert_eq!(drained.is_ok(), ok, "drain succeeds iff schedulable");
        } else if action == 14 && node_count < max_nodes {
            // scale out: a fresh node joins every structure
            let id = cluster.add_node(GpuModel::A100, 8);
            assert_eq!(id.raw(), node_count, "sequential minting");
        } else if action >= 11 {
            // restore a random node (no-op error when in full service);
            // also cancels in-progress drains
            let node = gfs_types::NodeId::new(pick(rng, node_count));
            let was_schedulable = cluster.node(node).expect("known id").is_schedulable();
            let restored = cluster.restore_node(node, SimTime::from_secs(step));
            assert_eq!(restored.is_ok(), !was_schedulable);
        } else if action < 6 || live.is_empty() {
            let spot = rng.gen_bool(0.6);
            let fractional = rng.gen_bool(0.3);
            let builder = TaskSpec::builder(next_id)
                .priority(if spot { Priority::Spot } else { Priority::Hp })
                .duration_secs(10_000);
            let spec = if fractional {
                builder.gpus_per_pod(
                    GpuDemand::fraction(
                        *[0.25, 0.3, 0.5, 0.75]
                            .get(rng.gen_range(0..4usize))
                            .expect("static"),
                    )
                    .expect("valid"),
                )
            } else {
                builder.gpus_per_pod(GpuDemand::whole(rng.gen_range(1..9u32)))
            }
            .build()
            .expect("valid");
            let node = gfs_types::NodeId::new(pick(rng, node_count));
            if cluster
                .start_task(spec.clone(), &[node], SimTime::from_secs(step), 0)
                .is_ok()
            {
                live.push(spec.id);
                next_id += 1;
            }
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            let is_spot = cluster
                .running_task(victim)
                .expect("tracked tasks are running")
                .spec
                .priority
                .is_spot();
            if action < 8 && is_spot {
                cluster
                    .evict_task(victim, SimTime::from_secs(step))
                    .expect("evictable");
            } else {
                cluster
                    .finish_task(victim, SimTime::from_secs(step))
                    .expect("running");
            }
        }
        // verify: every indexed query equals the brute-force scan
        for need in [1u32, 2, 4, 8] {
            assert_eq!(
                cluster.whole_fit_candidates(GpuModel::A100, need),
                brute::whole_fit(&cluster, GpuModel::A100, need),
                "whole-fit({need}) diverged at step {step}"
            );
        }
        for f in [200, 250, 500, 750, 900].map(Cards) {
            assert_eq!(
                cluster.fraction_fit_candidates(GpuModel::A100, f),
                brute::fraction_fit(&cluster, GpuModel::A100, f),
                "fraction-fit({f:?}) diverged at step {step}"
            );
        }
        for need in [1u32, 2, 4, 8] {
            let mut walked = Vec::new();
            let none = cluster.best_fit_walk(GpuModel::A100, need, |id| {
                walked.push(id);
                false
            });
            assert_eq!(none, None);
            assert_eq!(
                walked,
                brute::best_fit_order(&cluster, GpuModel::A100, need),
                "best-fit walk({need}) left (idle, id) order at step {step}"
            );
        }
        let spot_on = brute::spot_on(&cluster);
        for node in 0..cluster.nodes().len() as u32 {
            let id = gfs_types::NodeId::new(node);
            let Some(brute) = spot_on.get(&node) else {
                assert!(!cluster.has_spot_on(id), "spot-on({node}) not empty");
                assert!(cluster.spot_holdings(id).is_empty());
                continue;
            };
            let indexed: Vec<TaskId> = cluster
                .spot_tasks_on(id)
                .iter()
                .map(|rt| rt.spec.id)
                .collect();
            let holdings = cluster.spot_holdings(id).iter().map(|h| (h.task, h.cards));
            assert!(
                holdings.eq(brute.iter().copied()),
                "spot-on({node}) diverged"
            );
            assert!(indexed.iter().eq(brute.iter().map(|(t, _)| t)));
            assert!(cluster.has_spot_on(id));
        }
        assert_eq!(cluster.fully_idle_nodes(), brute::fully_idle(&cluster));
        assert_eq!(
            cluster.preemption_candidates(GpuModel::A100, 4),
            brute::preemption(&cluster, GpuModel::A100, 4)
        );
        // no cross-model leakage
        assert!(cluster.whole_fit_candidates(GpuModel::H800, 1).is_empty());
        // O(1) whole-cluster and per-model totals match fresh scans
        brute::totals_consistent(&cluster);
    }
}

/// A random but per-node-coherent cluster timeline: each node either
/// fails and recovers once, drains once, or stays untouched.
/// One query of a node history's sorted time log answers what a
/// windowed score counts and how long that count holds. Against brute
/// force on random sorted logs (ties included) and random windows,
/// including the inclusive edge, a `now` before entries of the log and
/// `u64::MAX`: the count is the entries with `now.since(t) ≤ w`, the
/// expiry the oldest of them plus `w`.
#[test]
fn time_log_window_query_matches_brute_force() {
    use gfs::cluster::Node;
    for_all_cases("time_log_window_query_matches_brute_force", |rng| {
        let mut node = Node::new(gfs_types::NodeId::new(0), GpuModel::A100, 8);
        let mut t = rng.gen_range(0..10_000u64);
        for _ in 0..rng.gen_range(0..16) {
            t += rng.gen_range(0..3_000u64) * rng.gen_range(0..2u64);
            node.record_eviction(SimTime::from_secs(t));
        }
        let log = node.evictions();
        let entries: Vec<SimTime> = log.iter().collect();
        let pick = |rng: &mut ChaCha8Rng| match entries.len() {
            0 => SimTime::from_secs(rng.gen_range(0..20_000)),
            n => entries[rng.gen_range(0..n)],
        };
        for _ in 0..32 {
            let (now, w) = match rng.gen_range(0..4) {
                // the inclusive edge: an entry exactly `w` old
                0 => {
                    let e = pick(rng);
                    let w = rng.gen_range(0..10_000);
                    (e + w, w)
                }
                // an earlier `now`: entries after it count as inside
                1 => {
                    let e = pick(rng);
                    (SimTime::from_secs(e.as_secs() / 2), rng.gen_range(0..5_000))
                }
                2 => (pick(rng) + rng.gen_range(0..20_000), u64::MAX),
                _ => (
                    SimTime::from_secs(rng.gen_range(0..60_000)),
                    rng.gen_range(0..20_000),
                ),
            };
            let inside = || entries.iter().filter(|&&t| now.since(t) <= w);
            let brute = (
                inside().count(),
                inside().min().map(|t| t.saturating_add(w)),
            );
            assert_eq!(log.within(now, w), brute, "{entries:?} at {now:?}, w {w}");
        }
    });
}

fn random_dynamics(rng: &mut ChaCha8Rng) -> DynamicsPlan {
    let mut events = Vec::new();
    for node in 0..4u32 {
        let id = gfs_types::NodeId::new(node);
        if rng.gen_bool(0.4) {
            let down = rng.gen_range(500..20_000u64);
            let outage = rng.gen_range(500..10_000u64);
            events.push(ClusterEvent::down(id, SimTime::from_secs(down)));
            events.push(ClusterEvent::up(id, SimTime::from_secs(down + outage)));
        } else if rng.gen_bool(0.5) {
            let at = rng.gen_range(500..20_000u64);
            events.push(ClusterEvent::drain(id, SimTime::from_secs(at), 600));
        }
    }
    DynamicsPlan::new(events).expect("per-node sequences are coherent")
}

fn random_trace(rng: &mut ChaCha8Rng) -> Vec<TaskSpec> {
    let n = rng.gen_range(8..18usize);
    (0..n)
        .map(|i| {
            let raw: u64 = rng.gen_range(0..u64::MAX);
            TaskSpec::builder(i as u64 + 1)
                .priority(if raw.is_multiple_of(3) {
                    Priority::Spot
                } else {
                    Priority::Hp
                })
                .pods((raw % 2 + 1) as u32)
                .gpus_per_pod(GpuDemand::whole((raw / 3 % 8 + 1) as u32))
                .duration_secs(60 + raw / 7 % 20_000)
                .submit_at(SimTime::from_secs(raw / 11 % 40_000))
                .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
                .build()
                .expect("valid")
        })
        .collect()
}

/// Interleaves random snapshot → restore points into live runs under
/// random cluster dynamics: every round-trip must be byte-identical
/// (snapshot → restore → snapshot), and the chopped-up run must land on
/// the uninterrupted run's exact state hash and `SimReport`.
#[test]
fn snapshot_restore_is_transparent_under_dynamics() {
    use gfs::sim::{ClusterService, ServiceSnapshot};
    for_all_cases("snapshot_restore_is_transparent_under_dynamics", |rng| {
        let tasks = random_trace(rng);
        let cfg = SimConfig {
            dynamics: random_dynamics(rng),
            max_time_secs: Some(10 * 24 * HOUR),
            ..SimConfig::default()
        };
        let cluster = Cluster::homogeneous(6, GpuModel::A100, 8);

        // golden: one uninterrupted service
        let mut sched = YarnCs::new();
        let mut svc = ClusterService::new(cluster.clone(), cfg.clone());
        svc.admit_tasks(tasks.clone());
        svc.start();
        svc.run_to_end(&mut sched);
        let golden_state = svc.state_hash(&sched);
        let golden_report = svc.finish();

        // the same run chopped at random points by snapshot → restore
        let mut sched = YarnCs::new();
        let mut svc = ClusterService::new(cluster, cfg);
        svc.admit_tasks(tasks);
        svc.start();
        for _ in 0..rng.gen_range(1..4usize) {
            for _ in 0..rng.gen_range(1..30u64) {
                if !svc.step(&mut sched) {
                    break;
                }
            }
            let json = svc.snapshot_json(&sched);
            let mut sched2 = YarnCs::new();
            let restored = ClusterService::restore(
                ServiceSnapshot::from_json(&json).expect("canonical JSON round-trips"),
                &mut sched2,
            )
            .expect("live snapshots restore");
            assert_eq!(
                restored.snapshot_json(&sched2),
                json,
                "snapshot → restore → snapshot must be byte-identical"
            );
            svc = restored;
            sched = sched2;
        }
        svc.run_to_end(&mut sched);
        assert_eq!(
            svc.state_hash(&sched),
            golden_state,
            "restored runs converge to the golden state"
        );
        assert_eq!(svc.finish(), golden_report, "and to the golden report");
    });
}

/// Random damage to a live run's write-ahead journal — torn tails,
/// single-character flips, duplicated records — is always detected by
/// the parser, and a torn tail still yields the intact prefix.
#[test]
fn journal_corruption_is_always_detected() {
    use gfs::sim::{parse_journal, ClusterService, JournalError};
    for_all_cases("journal_corruption_is_always_detected", |rng| {
        let tasks = random_trace(rng);
        let cfg = SimConfig {
            dynamics: random_dynamics(rng),
            max_time_secs: Some(10 * 24 * HOUR),
            ..SimConfig::default()
        };
        let mut sched = YarnCs::new();
        let mut svc = ClusterService::new(Cluster::homogeneous(6, GpuModel::A100, 8), cfg);
        svc.enable_journal();
        let cut = tasks.len() / 2;
        svc.admit_tasks(tasks[..cut].to_vec());
        svc.start();
        for _ in 0..rng.gen_range(1..20u64) {
            if !svc.step(&mut sched) {
                break;
            }
        }
        svc.admit_tasks(tasks[cut..].to_vec());
        let text = svc.journal().expect("enabled").text().to_string();
        let (records, err) = parse_journal(&text);
        assert!(err.is_none(), "an undamaged journal parses: {err:?}");
        assert_eq!(records.len(), 3, "tasks + start + late tasks");

        // torn tail: the final record is damaged, the prefix survives
        let tear = rng.gen_range(2..10usize);
        let (prefix, err) = parse_journal(&text[..text.len() - tear]);
        assert!(
            matches!(err, Some(JournalError::Truncated { .. })),
            "torn tail flagged: {err:?}"
        );
        assert_eq!(prefix.len(), records.len() - 1);

        // flip one digit anywhere: record CRCs (or the parse) catch it
        let digits: Vec<usize> = text
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let pos = digits[rng.gen_range(0..digits.len())];
        let mut flipped = text.clone().into_bytes();
        flipped[pos] = b'0' + (flipped[pos] - b'0' + 1) % 10;
        let (_, err) = parse_journal(&String::from_utf8(flipped).expect("ascii"));
        assert!(err.is_some(), "a single flipped digit must be detected");

        // duplicate a record: replay must reject the repeated sequence
        let lines: Vec<&str> = text.lines().collect();
        let dup = rng.gen_range(0..lines.len());
        let mut doubled: Vec<&str> = lines[..=dup].to_vec();
        doubled.push(lines[dup]);
        doubled.extend_from_slice(&lines[dup + 1..]);
        let (_, err) = parse_journal(&(doubled.join("\n") + "\n"));
        assert!(
            matches!(
                err,
                Some(JournalError::DuplicateSeq { seq, .. }) if seq == dup as u64 + 1
            ),
            "duplicated record flagged: {err:?}"
        );
    });
}

#[test]
fn gaussian_quantile_monotone_in_p() {
    for_all_cases("gaussian_quantile_monotone_in_p", |rng| {
        let mu = rng.gen_range(-100.0..100.0f64);
        let sigma = rng.gen_range(0.01..50.0f64);
        let p1 = rng.gen_range(0.01..0.98f64);
        let p2 = p1 + 0.01;
        let q1 = gfs::forecast::stats::gaussian_quantile(p1, mu, sigma);
        let q2 = gfs::forecast::stats::gaussian_quantile(p2, mu, sigma);
        assert!(q2 >= q1);
    });
}

#[test]
fn moving_average_stays_in_range() {
    for_all_cases("moving_average_stays_in_range", |rng| {
        let n = rng.gen_range(1..200usize);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        let trend = gfs::forecast::decompose::moving_average(&xs, 25);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for t in trend {
            assert!(t >= min - 1e-9 && t <= max + 1e-9);
        }
    });
}
