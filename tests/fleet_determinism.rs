//! Fleet-scale engine determinism properties.
//!
//! Two contracts pin the sharded engine (see `gfs::sim::fleet`):
//!
//! 1. **Thread-count invariance** — `run_fleet` with 8 workers produces
//!    the same merged report, shard hashes and fleet hash, byte for
//!    byte, as the serial run, across schedulers × dynamics × seeds.
//! 2. **Index/scan equivalence** — the O(log n) placement index answers
//!    every decision exactly as the O(n) reference scan, under random
//!    interleavings of placements, completions, node failures, drains
//!    and restores.

use gfs::prelude::*;
use gfs::sched::placement::PlacementPolicy;
use gfs::sim::fleet::{domain_shards, run_fleet, FleetShard};
use gfs::trace::fleet::{FleetTraceConfig, FleetTraceGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

type Factory = dyn Fn(usize) -> Box<dyn Scheduler> + Sync;

fn yarn_factory(_: usize) -> Box<dyn Scheduler> {
    Box::new(YarnCs::new())
}

fn gfs_factory(_: usize) -> Box<dyn Scheduler> {
    Box::new(GfsScheduler::with_defaults())
}

/// Per-shard churn: one staggered failure/recovery plus a drain, all
/// shard-local (node ids are shard-relative).
fn churn_plan(shard: usize) -> DynamicsPlan {
    let s = shard as u64;
    DynamicsPlan::new(vec![
        ClusterEvent::down(NodeId::new(1), SimTime::from_hours(3 + s)),
        ClusterEvent::drain(NodeId::new(2), SimTime::from_hours(5 + s), HOUR),
        ClusterEvent::up(NodeId::new(1), SimTime::from_hours(9 + s)),
    ])
    .expect("ordered plan")
}

fn build_fleet(seed: u64, churn: bool) -> Vec<FleetShard> {
    let shards = 3u32;
    let clusters = domain_shards(shards as usize, 6, GpuModel::A100, 8);
    let traces = FleetTraceGenerator::new(FleetTraceConfig {
        shards,
        tasks: 240,
        num_orgs: 12,
        seed,
        ..FleetTraceConfig::default()
    })
    .generate_sharded();
    clusters
        .into_iter()
        .zip(traces)
        .enumerate()
        .map(|(s, (cluster, tasks))| FleetShard {
            cluster,
            tasks,
            dynamics: if churn {
                churn_plan(s)
            } else {
                DynamicsPlan::none()
            },
        })
        .collect()
}

fn report_bytes(fleet: &gfs::sim::FleetReport) -> String {
    let mut out = String::new();
    fleet.report.serialize_json(&mut out);
    out
}

#[test]
fn sharded_run_is_bit_identical_across_thread_counts() {
    let factories: [(&str, &Factory); 2] = [("yarn_cs", &yarn_factory), ("gfs", &gfs_factory)];
    let cfg = SimConfig {
        max_time_secs: Some(30 * 24 * HOUR),
        ..SimConfig::default()
    };
    for (name, factory) in factories {
        for churn in [false, true] {
            for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
                let serial = run_fleet(build_fleet(seed, churn), factory, &cfg, 1);
                let parallel = run_fleet(build_fleet(seed, churn), factory, &cfg, 8);
                assert_eq!(
                    serial.fleet_hash, parallel.fleet_hash,
                    "fleet hash drifted: scheduler={name} churn={churn} seed={seed}"
                );
                assert_eq!(
                    serial.shard_hashes, parallel.shard_hashes,
                    "shard hashes drifted: scheduler={name} churn={churn} seed={seed}"
                );
                assert_eq!(
                    report_bytes(&serial),
                    report_bytes(&parallel),
                    "merged report drifted: scheduler={name} churn={churn} seed={seed}"
                );
            }
        }
    }
}

fn probe_task(id: u64, rng: &mut ChaCha8Rng) -> TaskSpec {
    let gpus = [1u32, 2, 4, 8][rng.gen_range(0..4)];
    let pods = if rng.gen_bool(0.3) {
        rng.gen_range(2..9u32)
    } else {
        1
    };
    let priority = if rng.gen_bool(0.3) {
        Priority::Spot
    } else {
        Priority::Hp
    };
    TaskSpec::builder(id)
        .org(OrgId::new(rng.gen_range(0..8)))
        .priority(priority)
        .pods(pods)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(3_600)
        .build()
        .expect("valid probe")
}

fn pts_with(policy: PlacementPolicy) -> gfs::core::Pts {
    gfs::core::Pts::with_policy(GfsParams::default(), PtsVariant::Full, policy)
}

/// Every preset the index serves.
fn indexed_presets() -> [(&'static str, PlacementPolicy); 4] {
    [
        ("naive", PlacementPolicy::naive()),
        ("domain_spread", PlacementPolicy::domain_spread()),
        ("reliability_scored", PlacementPolicy::reliability_scored()),
        ("churn_aware", PlacementPolicy::churn_aware()),
    ]
}

#[test]
fn score_index_agrees_with_scan_under_random_churn() {
    const NODES: u32 = 48;
    let topologies: [(&str, Vec<FailureDomain>); 3] = [
        ("none", Vec::new()),
        ("racks of 4", FailureDomain::racks(NODES, 4)),
        ("one domain", FailureDomain::racks(NODES, NODES)),
    ];
    // packing-only scoring leaves the reliability window as the keys'
    // only deadline: failures alone age the cached keys out. The walk's
    // 400 ten-minute steps outlast the 48 h failure window, so failures
    // of its first 18 h leave the window between two compared decisions.
    const STEP_SECS: u64 = 600;
    let window = PlacementPolicy::FAILURE_WINDOW_SECS;
    let engines = indexed_presets().into_iter().flat_map(|(preset, policy)| {
        [PtsVariant::Full, PtsVariant::SimpleScoring].map(|v| (preset, policy.clone(), v))
    });
    for (preset, policy, variant) in engines {
        for (topology, domains) in &topologies {
            for seed in [3u64, 11, 29] {
                let case = format!("{preset} / {variant:?} / {topology} / seed {seed}");
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut cluster = Cluster::homogeneous(NODES, GpuModel::A100, 8);
                if !domains.is_empty() {
                    cluster.set_failure_domains(domains);
                }
                let pts =
                    gfs::core::Pts::with_policy(GfsParams::default(), variant, policy.clone());
                let mut live: Vec<(TaskId, Priority)> = Vec::new();
                let mut deadlines: Vec<(NodeId, SimTime)> = Vec::new();
                let mut failed_at: Vec<SimTime> = Vec::new();
                let mut aged_out = 0;
                let mut next_id = 1u64;
                for step in 0..400u64 {
                    let now = SimTime::from_secs(step * STEP_SECS);
                    // failures inside the window at the previous step's
                    // comparison and outside it now
                    aged_out += failed_at
                        .iter()
                        .filter(|&&t| now.since(t) > window && now.since(t) <= window + STEP_SECS)
                        .count();
                    // drains that reach their deadline force the node down
                    deadlines.retain(|&(node, deadline)| {
                        let due = deadline <= now && cluster.nodes()[node.index()].is_draining();
                        if due {
                            let displaced = cluster.fail_node(node, now).expect("draining is up");
                            live.retain(|(id, _)| !displaced.iter().any(|d| d.task.spec.id == *id));
                            failed_at.push(now);
                        }
                        deadline > now
                    });
                    let any_node = |rng: &mut ChaCha8Rng, c: &Cluster| {
                        NodeId::new(rng.gen_range(0..c.nodes().len() as u32))
                    };
                    match rng.gen_range(0..14u32) {
                        0 => {
                            let node = any_node(&mut rng, &cluster);
                            if let Ok(displaced) = cluster.fail_node(node, now) {
                                live.retain(|(id, _)| {
                                    !displaced.iter().any(|d| d.task.spec.id == *id)
                                });
                                failed_at.push(now);
                            }
                        }
                        // repairs a down node or cancels a drain in progress
                        1 | 2 => {
                            let node = any_node(&mut rng, &cluster);
                            let _ = cluster.restore_node(node, now);
                        }
                        3 => {
                            let node = any_node(&mut rng, &cluster);
                            let deadline = now + rng.gen_range(5..40u64) * STEP_SECS;
                            if cluster.drain_node(node, deadline).is_ok() {
                                deadlines.push((node, deadline));
                            }
                        }
                        4 | 5 if !live.is_empty() => {
                            let idx = rng.gen_range(0..live.len());
                            let (id, priority) = live.swap_remove(idx);
                            if priority.is_spot() && rng.gen_bool(0.5) {
                                cluster.evict_task(id, now).expect("live task");
                            } else {
                                cluster.finish_task(id, now).expect("live task");
                            }
                        }
                        6 if step % 5 == 0 => {
                            cluster.add_node(GpuModel::A100, 8);
                        }
                        _ => {
                            let spec = probe_task(next_id, &mut rng);
                            next_id += 1;
                            let fast = pts.schedule_nonpreemptive(&spec, &cluster, now);
                            let slow = pts.schedule_nonpreemptive_scan(&spec, &cluster, now);
                            assert_eq!(fast, slow, "divergence at step {step}: {case}");
                            if let Some(nodes) = fast {
                                let entry = (spec.id, spec.priority);
                                cluster
                                    .start_task(spec, &nodes, now, 0)
                                    .expect("placement admits the task");
                                live.push(entry);
                            }
                        }
                    }
                    // every mutation is followed by a fresh decision comparison
                    let spec = probe_task(u64::MAX - step, &mut rng);
                    let fast = pts.schedule_nonpreemptive(&spec, &cluster, now);
                    let slow = pts.schedule_nonpreemptive_scan(&spec, &cluster, now);
                    assert_eq!(
                        fast, slow,
                        "post-mutation divergence at step {step}: {case}"
                    );
                }
                assert!(aged_out > 0, "no failure left the window: {case}");
            }
        }
    }
}

fn whole(id: u64, pods: u32, gpus: u32) -> TaskSpec {
    TaskSpec::builder(id)
        .pods(pods)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(3_600)
        .build()
        .expect("valid")
}

#[test]
fn a_topology_declared_mid_run_reaches_the_index() {
    let pts = pts_with(PlacementPolicy::churn_aware());
    let mut cluster = Cluster::homogeneous(8, GpuModel::A100, 8);
    let probe = whole(1, 1, 2);
    // build the index before any topology exists: node 0 wins every tie
    let first = pts.schedule_nonpreemptive(&probe, &cluster, SimTime::ZERO);
    assert_eq!(first, Some(vec![NodeId::new(0)]));
    cluster.set_failure_domains(&FailureDomain::racks(8, 4));
    cluster
        .drain_node(NodeId::new(1), SimTime::from_hours(1))
        .expect("up");
    // rack 0 is mid-maintenance: its healthy nodes rank behind rack 1
    let fast = pts.schedule_nonpreemptive(&probe, &cluster, SimTime::ZERO);
    assert_eq!(fast, Some(vec![NodeId::new(4)]));
    assert_eq!(
        fast,
        pts.schedule_nonpreemptive_scan(&probe, &cluster, SimTime::ZERO)
    );
}

#[test]
fn a_drain_rekeys_the_healthy_mates_of_its_rack() {
    let pts = pts_with(PlacementPolicy::churn_aware());
    let mut cluster = Cluster::homogeneous(8, GpuModel::A100, 8);
    cluster.set_failure_domains(&FailureDomain::racks(8, 4));
    let probe = whole(1, 1, 2);
    let at = |secs| SimTime::from_secs(secs);
    let pick = |c: &Cluster, now| pts.schedule_nonpreemptive(&probe, c, now);
    assert_eq!(pick(&cluster, at(0)), Some(vec![NodeId::new(0)]));
    // only node 3 is logged as changed, yet nodes 0–2 must lose their rank
    cluster.drain_node(NodeId::new(3), at(600)).expect("up");
    assert_eq!(pick(&cluster, at(1)), Some(vec![NodeId::new(4)]));
    // cancelling the drain restores them
    cluster
        .restore_node(NodeId::new(3), at(2))
        .expect("draining");
    assert_eq!(pick(&cluster, at(2)), Some(vec![NodeId::new(0)]));
    // a drain that runs into its deadline ends as a failure: rack 0 is
    // clean again (and node 3, down, is simply gone)
    cluster.drain_node(NodeId::new(3), at(600)).expect("up");
    assert_eq!(pick(&cluster, at(3)), Some(vec![NodeId::new(4)]));
    cluster.fail_node(NodeId::new(3), at(600)).expect("up");
    assert_eq!(pick(&cluster, at(600)), Some(vec![NodeId::new(0)]));
}

#[test]
fn a_gang_prefers_unused_racks_and_colocates_when_it_must() {
    let pts = pts_with(PlacementPolicy::domain_spread());
    let mut cluster = Cluster::homogeneous(12, GpuModel::A100, 8);
    cluster.set_failure_domains(&FailureDomain::racks(12, 4));
    let nodes = |ids: &[u32]| Some(ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>());
    // three pods, three racks: the third pod passes over racks 0 and 1
    let gang = whole(1, 3, 8);
    assert_eq!(
        pts.schedule_nonpreemptive(&gang, &cluster, SimTime::ZERO),
        nodes(&[0, 4, 8])
    );
    // rack 2 goes away: the third pod co-locates in the least-used rack
    for id in 8..12 {
        cluster
            .fail_node(NodeId::new(id), SimTime::ZERO)
            .expect("up");
    }
    assert_eq!(
        pts.schedule_nonpreemptive(&gang, &cluster, SimTime::ZERO),
        nodes(&[0, 4, 1])
    );
    // and still lands, stacked, when a single node is all that fits
    for id in 1..8 {
        cluster
            .fail_node(NodeId::new(id), SimTime::ZERO)
            .expect("up");
    }
    assert_eq!(
        pts.schedule_nonpreemptive(&whole(2, 3, 2), &cluster, SimTime::ZERO),
        nodes(&[0, 0, 0])
    );
}
