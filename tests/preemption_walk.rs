//! The preemption walk as shipped against its reference walk.
//!
//! Alg. 2, `GFS-p` and the baselines' greedy plan read each node's spot
//! holdings from the capacity index, build each plan once, and (Alg. 2)
//! skip a node outright when its fewest possible victims already cannot
//! beat the best plan so far. Debug builds compare every decision with
//! the reference walk; these tests make the same comparison on purpose,
//! so `cargo test --release` checks the walk as it ships. They also pin
//! how much work the bound saves, as exact counts.

use gfs::cluster::{ClusterSnapshot, RunningTask};
use gfs::core::PreemptWork;
use gfs::prelude::*;
use gfs::sched::placement::{plan_preemption, plan_preemption_scan};
use gfs::sched::{PlacementPolicy, SPOT_LEASE_SECS};
use gfs::sim::ClusterService;
use gfs_testkit::pin;
use gfs_types::{Cards, CheckpointPlan, FailureDomain};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn spec(id: u64, priority: Priority, pods: u32, demand: GpuDemand) -> TaskSpec {
    TaskSpec::builder(id)
        .priority(priority)
        .pods(pods)
        .gpus_per_pod(demand)
        .duration_secs(200_000)
        .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
        .build()
        .expect("valid")
}

/// A seeded cluster of 3–12 eight-card nodes, racked in pairs: HP and
/// spot tasks of every shape — single pods, spot gangs across nodes and
/// on one node, fractional single pods — started at scattered times, then
/// some finished, evicted, failed and drained.
fn seeded_cluster(rng: &mut ChaCha8Rng) -> Cluster {
    let nodes = rng.gen_range(3..13u32);
    let mut c = Cluster::homogeneous(nodes, GpuModel::A100, 8);
    c.set_failure_domains(&FailureDomain::racks(nodes, 2));
    let mut running = Vec::new();
    for id in 1..=6 * u64::from(nodes) {
        let spot = rng.gen_bool(0.75);
        let demand = if spot && rng.gen_bool(0.15) {
            GpuDemand::fraction([0.25, 0.5, 0.3][rng.gen_range(0..3usize)]).expect("valid")
        } else {
            GpuDemand::whole([1, 1, 2, 4, 8][rng.gen_range(0..5usize)])
        };
        let pods = if demand.is_fractional() {
            1
        } else {
            [1, 1, 2, 3][rng.gen_range(0..4usize)]
        };
        let priority = if spot { Priority::Spot } else { Priority::Hp };
        let at: Vec<NodeId> = (0..pods)
            .map(|_| NodeId::new(rng.gen_range(0..nodes)))
            .collect();
        let start = SimTime::from_secs(rng.gen_range(0..20_000));
        // a task that does not fit where it was sent is dropped
        if c.start_task(spec(id, priority, pods, demand), &at, start, 0)
            .is_ok()
        {
            running.push((TaskId::new(id), spot));
        }
    }
    let now = SimTime::from_secs(20_000);
    for &(id, spot) in &running {
        match rng.gen_range(0..12u32) {
            0 => drop(c.finish_task(id, now)),
            1 if spot => drop(c.evict_task(id, now)),
            _ => {}
        }
    }
    let node = NodeId::new(rng.gen_range(0..nodes));
    match rng.gen_range(0..4u32) {
        0 => drop(c.fail_node(node, now)),
        1 => drop(c.drain_node(node, now + 3_600)),
        _ => {}
    }
    c
}

/// A victim order of the baselines' [`plan_preemption`] calls.
type VictimOrder = fn(&RunningTask, SimTime) -> u64;

/// The victim orders of the baselines' [`plan_preemption`] calls.
fn lyra(rt: &RunningTask, t: SimTime) -> u64 {
    rt.waste(t) as u64
}

fn chronus(rt: &RunningTask, t: SimTime) -> u64 {
    let ran = rt.executed(t);
    if ran >= SPOT_LEASE_SECS {
        u64::MAX / 2 - ran
    } else {
        u64::MAX - ran
    }
}

fn fgd(rt: &RunningTask, _: SimTime) -> u64 {
    u64::MAX - rt.started_at.as_secs()
}

#[test]
fn every_plan_matches_the_reference_walk() {
    let engines: Vec<(&str, Pts)> = vec![
        ("alg2", Pts::new(GfsParams::default(), PtsVariant::Full)),
        (
            "alg2 hazard",
            Pts::with_policy(
                GfsParams::default(),
                PtsVariant::Full,
                PlacementPolicy::hazard_aware(),
            ),
        ),
        (
            "gfs-p",
            Pts::new(GfsParams::default(), PtsVariant::RandomPreemption),
        ),
        (
            "gfs-sp",
            Pts::new(GfsParams::default(), PtsVariant::Degraded),
        ),
    ];
    let (mut decisions, mut gangs) = (0u64, 0u64);
    for case in 0..300u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0a19_2000 + case);
        let c = seeded_cluster(&mut rng);
        let now = SimTime::from_secs(20_000 + rng.gen_range(0..4_000));
        for probe in 0..6u64 {
            let pods = [1, 1, 2, 3][rng.gen_range(0..4usize)];
            let demand = if pods == 1 && rng.gen_bool(0.2) {
                GpuDemand::fraction(0.5).expect("valid")
            } else {
                GpuDemand::whole([1, 2, 4, 8][rng.gen_range(0..4usize)])
            };
            let task = spec(10_000 + probe, Priority::Hp, pods, demand);
            for (name, pts) in &engines {
                let fast = pts.schedule_preemptive(&task, &c, now);
                let slow = pts.schedule_preemptive_scan(&task, &c, now);
                assert_eq!(fast, slow, "case {case} {name}: {task:?}");
                decisions += u64::from(fast.is_some());
                gangs += u64::from(fast.is_some() && pods > 1);
            }
            let orders: [(&str, VictimOrder); 3] =
                [("lyra", lyra), ("chronus", chronus), ("fgd", fgd)];
            for (name, order) in orders {
                let fast = plan_preemption(&c, &task, now, order);
                let slow = plan_preemption_scan(&c, &task, now, order);
                assert_eq!(fast, slow, "case {case} {name}: {task:?}");
            }
        }
    }
    // the comparison is not vacuous: plans were made, gangs among them,
    // and the bound skipped nodes
    assert!(
        decisions > 2_000 && gangs > 500,
        "{decisions} plans, {gangs} gangs"
    );
    let PreemptWork {
        feasible,
        plans_built,
        ..
    } = engines[0].1.preempt_work();
    assert!(plans_built < feasible, "{plans_built} of {feasible} built");
}

/// The index's per-node spot holdings against the running registry:
/// the cards each task's placements hold on the node, and its waste at a
/// later instant, after every kind of mutation and after a snapshot
/// round-trip.
#[test]
fn spot_holdings_follow_the_placements() {
    fn check(c: &Cluster, when: &str) {
        let later = SimTime::from_secs(9_000);
        for n in c.nodes() {
            let expect: Vec<(TaskId, Cards, u64)> = c
                .running()
                .filter(|rt| rt.spec.priority.is_spot())
                .filter_map(|rt| {
                    let here = rt.placements.iter().filter(|p| p.node == n.id());
                    let held: Cards = here.map(|p| p.alloc.cards()).sum();
                    (held > Cards(0)).then_some((rt.spec.id, held, rt.waste(later).to_bits()))
                })
                .collect();
            let indexed: Vec<(TaskId, Cards, u64)> = c
                .spot_holdings(n.id())
                .iter()
                .map(|h| (h.task, h.cards, h.waste(later).to_bits()))
                .collect();
            assert_eq!(indexed, expect, "{when}: node {}", n.id());
        }
    }
    for case in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x401d_0000 + case);
        let mut c = Cluster::homogeneous(6, GpuModel::A100, 8);
        let mut next = 1u64;
        for step in 0..80u64 {
            let now = SimTime::from_secs(step * 60);
            let running: Vec<TaskId> = c.running().map(|rt| rt.spec.id).collect();
            let node = NodeId::new(rng.gen_range(0..6));
            let what = match rng.gen_range(0..12u32) {
                0..=5 => {
                    let spot = rng.gen_bool(0.7);
                    let frac = spot && rng.gen_bool(0.2);
                    let pods = if frac { 1 } else { rng.gen_range(1..4u32) };
                    let demand = if frac {
                        GpuDemand::fraction(0.25).expect("valid")
                    } else {
                        GpuDemand::whole(rng.gen_range(1..5u32))
                    };
                    // pods of one gang may share a node
                    let at: Vec<NodeId> = (0..pods)
                        .map(|_| NodeId::new(rng.gen_range(0..6)))
                        .collect();
                    let priority = if spot { Priority::Spot } else { Priority::Hp };
                    if c.start_task(spec(next, priority, pods, demand), &at, now, 0)
                        .is_ok()
                    {
                        next += 1;
                    }
                    "start"
                }
                6 | 7 if !running.is_empty() => {
                    let id = running[rng.gen_range(0..running.len())];
                    if c.evict_task(id, now).is_err() {
                        c.finish_task(id, now).expect("HP tasks finish");
                    }
                    "evict or finish"
                }
                8 => {
                    drop(c.fail_node(node, now));
                    "fail"
                }
                9 => {
                    drop(c.drain_node(node, now + 600));
                    "drain"
                }
                _ => {
                    drop(c.restore_node(node, now));
                    "restore"
                }
            };
            check(&c, &format!("case {case} step {step} ({what})"));
        }
        let mut json = String::new();
        c.snapshot_json_into(&mut json);
        let snap: ClusterSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        check(
            &Cluster::from_snapshot(snap),
            &format!("case {case} restored"),
        );
    }
}

/// `paper_backlog` in miniature: the 287-node §4.1 pool for five days, HP
/// jobs of the paper's 2024 trace at 0.55 of capacity, and spot jobs of
/// the same trace, 36 times longer, at three times capacity, so the
/// cluster stays full of spot work and an HP job that finds no idle room
/// runs Alg. 2. Pins `(calls, nodes visited, feasible nodes, plans
/// built)`: the reference walk builds a plan on every feasible node; the
/// bound skips at least 30 % of them.
#[test]
fn alg2_work_counts_are_pinned() {
    const CARDS: f64 = 287.0 * 8.0;
    let base = WorkloadConfig {
        horizon_secs: 5 * 24 * HOUR,
        hp_tasks: 0,
        spot_tasks: 0,
        ..WorkloadConfig::default()
    };
    let hp = WorkloadConfig {
        hp_tasks: 1,
        seed: 7,
        ..base.clone()
    };
    let spot = WorkloadConfig {
        spot_tasks: 1,
        duration_median_secs: base.duration_median_secs * 36.0,
        start_id: 1 << 32,
        seed: 8,
        ..base.clone()
    };
    let mut specs = WorkloadGenerator::new(hp.sized_for(CARDS, 0.55, 0.0)).generate();
    specs.extend(WorkloadGenerator::new(spot.sized_for(CARDS, 0.0, 3.0)).generate());
    let cfg = SimConfig {
        max_time_secs: Some(base.horizon_secs),
        ..SimConfig::default()
    };
    let mut svc = ClusterService::new(Cluster::homogeneous(287, GpuModel::A100, 8), cfg);
    svc.admit_tasks(specs);
    svc.start();
    let mut gfs = GfsScheduler::with_defaults();
    svc.run_to_end(&mut gfs);
    let w = gfs.pts().preempt_work();
    pin(
        "core.pts.alg2_work",
        &[w.calls, w.nodes_visited, w.feasible, w.plans_built],
    );
    assert!(
        w.plans_built * 10 <= w.feasible * 7,
        "{} plans built of {} feasible nodes",
        w.plans_built,
        w.feasible
    );
}
