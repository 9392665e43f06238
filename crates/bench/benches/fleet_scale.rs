//! Fleet-scale engine benchmarks: the headline 100k-node / million-task /
//! one-week sharded simulation, placement-decision latency as the node
//! count grows 1k → 10k → 100k (the score index must keep it sub-linear),
//! and canonical snapshot/restore round-trips at 10k nodes.
//!
//! Short mode (`GFS_BENCH_SHORT=1`, the CI smoke) runs scaled-down
//! entries under their own names; the full run (`just bench`) records
//! both the smoke entries and the full-size ones, so a full run covers
//! every entry a smoke run reports.

use gfs::prelude::*;
use gfs::sim::fleet::{domain_shards, run_fleet, FleetShard};
use gfs::sim::{ClusterService, ServiceSnapshot};
use gfs::trace::fleet::{FleetTraceConfig, FleetTraceGenerator};
use gfs_bench::harness::Suite;

/// Builds the per-shard inputs for a fleet run: `shards` failure domains
/// of `nodes_per_shard` 8×A100 nodes and `tasks` heavy-tailed tasks over
/// a one-week submission window, routed by organization.
fn fleet_inputs(shards: u32, nodes_per_shard: u32, tasks: u64) -> Vec<FleetShard> {
    let clusters = domain_shards(shards as usize, nodes_per_shard, GpuModel::A100, 8);
    let traces = FleetTraceGenerator::new(FleetTraceConfig {
        shards,
        tasks,
        seed: 42,
        ..FleetTraceConfig::default()
    })
    .generate_sharded();
    clusters
        .into_iter()
        .zip(traces)
        .map(|(cluster, tasks)| FleetShard {
            cluster,
            tasks,
            dynamics: DynamicsPlan::none(),
        })
        .collect()
}

fn run_whole_fleet(shards: Vec<FleetShard>) -> u64 {
    let cfg = SimConfig {
        max_time_secs: Some(30 * 24 * HOUR),
        ..SimConfig::default()
    };
    let fleet = run_fleet(shards, &|_| Box::new(YarnCs::new()), &cfg, 0);
    fleet.fleet_hash
}

fn bench_fleet(suite: &mut Suite) {
    // smoke size runs in every mode, so every run has this datapoint
    suite.bench("fleet_2k_nodes_20k_tasks_week", || {
        run_whole_fleet(fleet_inputs(4, 500, 20_000))
    });
    if !suite.is_short() {
        // the acceptance headline: 100k nodes, 1M tasks, one-week window
        suite.bench("fleet_100k_nodes_1m_tasks_week", || {
            run_whole_fleet(fleet_inputs(8, 12_500, 1_000_000))
        });
    }
}

/// A cluster with ~70 % of nodes carrying a 4-GPU HP plus a 2-GPU spot
/// task — the `sched_latency` fixture scaled to arbitrary node counts.
fn loaded_cluster(nodes: u32) -> Cluster {
    let mut cluster = Cluster::homogeneous(nodes, GpuModel::A100, 8);
    let mut id = 0u64;
    for n in 0..nodes {
        if n % 10 < 7 {
            id += 1;
            let hp = TaskSpec::builder(id)
                .priority(Priority::Hp)
                .gpus_per_pod(GpuDemand::whole(4))
                .duration_secs(100_000)
                .build()
                .expect("valid");
            cluster
                .start_task(hp, &[NodeId::new(n)], SimTime::ZERO, 0)
                .expect("fits");
            id += 1;
            let spot = TaskSpec::builder(id)
                .priority(Priority::Spot)
                .gpus_per_pod(GpuDemand::whole(2))
                .duration_secs(100_000)
                .build()
                .expect("valid");
            cluster
                .start_task(spot, &[NodeId::new(n)], SimTime::from_secs(500), 0)
                .expect("fits");
        }
    }
    cluster
}

fn bench_placement(suite: &mut Suite) {
    let pts = gfs::core::Pts::new(GfsParams::default(), PtsVariant::Full);
    let task = TaskSpec::builder(999_999)
        .priority(Priority::Hp)
        .gpus_per_pod(GpuDemand::whole(2))
        .duration_secs(3_600)
        .build()
        .expect("valid");
    let mut sizes: Vec<(u32, &str)> = vec![
        (1_000, "placement_decision_1k_nodes"),
        (10_000, "placement_decision_10k_nodes"),
    ];
    if !suite.is_short() {
        sizes.push((100_000, "placement_decision_100k_nodes"));
    }
    for (nodes, name) in sizes {
        let cluster = loaded_cluster(nodes);
        // prime the score index so the loop measures the steady state,
        // not the one-time build
        let _ = pts.schedule_nonpreemptive(&task, &cluster, SimTime::from_hours(1));
        suite.bench(name, || {
            pts.schedule_nonpreemptive(&task, &cluster, SimTime::from_hours(1))
        });
    }
}

/// A mid-run `ClusterService` over `nodes` nodes with live tasks, pending
/// queue and journal state — what a real checkpoint captures.
fn live_service(nodes: u32, tasks: u64) -> (ClusterService, YarnCs) {
    let trace = FleetTraceGenerator::new(FleetTraceConfig {
        shards: 1,
        tasks,
        seed: 7,
        ..FleetTraceConfig::default()
    })
    .generate_sharded()
    .remove(0);
    let mut svc = ClusterService::new(
        Cluster::homogeneous(nodes, GpuModel::A100, 8),
        SimConfig::default(),
    );
    let mut sched = YarnCs::new();
    svc.admit_tasks(trace);
    for _ in 0..200 {
        if !svc.step(&mut sched) {
            break;
        }
    }
    (svc, sched)
}

fn bench_snapshot(suite: &mut Suite) {
    let mut sizes: Vec<(u32, u64, &str)> = vec![(1_000, 2_000, "snapshot_restore_1k_nodes")];
    if !suite.is_short() {
        sizes.push((10_000, 20_000, "snapshot_restore_10k_nodes"));
    }
    for (nodes, tasks, name) in sizes {
        let (svc, sched) = live_service(nodes, tasks);
        suite.bench(name, || {
            let json = svc.snapshot_json(&sched);
            let snap = ServiceSnapshot::from_json(&json).expect("round-trip");
            let mut sched2 = YarnCs::new();
            ClusterService::restore(snap, &mut sched2).expect("restores")
        });
    }
}

fn main() {
    let mut suite = Suite::new("fleet_scale");
    bench_fleet(&mut suite);
    bench_placement(&mut suite);
    bench_snapshot(&mut suite);
    suite.finish();
}
