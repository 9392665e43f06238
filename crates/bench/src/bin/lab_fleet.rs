//! Fleet-scale engine check: a sharded, churned, heavy-tailed fleet run
//! through `gfs::sim::fleet::run_fleet`, verifying the sharded engine's
//! determinism contract end to end — a serial rerun reproduces the
//! parallel run bit for bit, and the `fleet_hash` is pinned so a
//! behavioral drift in the engine, the trace generator or the merge
//! rules cannot land silently.
//!
//! ```text
//! cargo run --release -p gfs-bench --bin lab_fleet
//! ```

use std::time::Instant;

use gfs::prelude::*;
use gfs::sim::fleet::{domain_shards, run_fleet, FleetShard};
use gfs::trace::fleet::{FleetTraceConfig, FleetTraceGenerator};

/// `fleet_hash` of the fleet below. Recompute with
/// `cargo run --release -p gfs-bench --bin lab_fleet` after an
/// *intentional* behavior change.
const FLEET_HASH: u64 = 0xb2d6_1ae9_adb9_64e4;

fn build_fleet(shards: u32, nodes_per_shard: u32, tasks: u64) -> Vec<FleetShard> {
    let clusters = domain_shards(shards as usize, nodes_per_shard, GpuModel::A100, 8);
    let traces = FleetTraceGenerator::new(FleetTraceConfig {
        shards,
        tasks,
        seed: 11,
        ..FleetTraceConfig::default()
    })
    .generate_sharded();
    clusters
        .into_iter()
        .zip(traces)
        .enumerate()
        .map(|(s, (cluster, tasks))| FleetShard {
            cluster,
            // stagger one failure per shard so the merge folds real
            // availability loss, not just counters
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::down(NodeId::new(0), SimTime::from_hours(2 + s as u64)),
                ClusterEvent::up(NodeId::new(0), SimTime::from_hours(8 + s as u64)),
            ])
            .expect("ordered plan"),
            tasks,
        })
        .collect()
}

fn main() {
    let (shards, nodes_per_shard, tasks) = (8, 2_000, 200_000);
    let cfg = SimConfig {
        max_time_secs: Some(30 * 24 * HOUR),
        ..SimConfig::default()
    };
    let factory = |_: usize| -> Box<dyn Scheduler> { Box::new(YarnCs::new()) };

    let start = Instant::now();
    let fleet = run_fleet(
        build_fleet(shards, nodes_per_shard, tasks),
        &factory,
        &cfg,
        0,
    );
    let wall = start.elapsed();

    let finished = fleet
        .report
        .tasks
        .iter()
        .filter(|t| t.finish.is_some())
        .count();
    println!(
        "fleet: {} shards x {} nodes, {} tasks ({} finished), makespan {:.1} h, \
         unavailability {:.4}, {} displacements",
        shards,
        nodes_per_shard,
        fleet.report.tasks.len(),
        finished,
        fleet.report.makespan.as_secs() as f64 / HOUR as f64,
        fleet.report.unavailability,
        fleet.report.displacement_times.len(),
    );
    for (s, h) in fleet.shard_hashes.iter().enumerate() {
        println!("  shard {s}: {h:#018x}");
    }
    println!(
        "fleet_hash {:#018x} in {:.2}s",
        fleet.fleet_hash,
        wall.as_secs_f64()
    );

    assert_eq!(
        fleet.fleet_hash, FLEET_HASH,
        "fleet hash drifted — if the change is intentional, update FLEET_HASH"
    );
    let start = Instant::now();
    let serial = run_fleet(
        build_fleet(shards, nodes_per_shard, tasks),
        &factory,
        &cfg,
        1,
    );
    let serial_wall = start.elapsed();
    assert_eq!(
        serial, fleet,
        "serial and parallel fleet runs must agree bit-for-bit"
    );
    println!(
        "serial: {:.2}s, outputs identical (threads=1 == threads=auto)",
        serial_wall.as_secs_f64()
    );
}
