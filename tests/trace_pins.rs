//! Trace pins: the exact bits of generated traces at every horizon the
//! grids and the benchmark run, so a faster generator has to reproduce
//! the old one task for task.

use gfs::sim::fnv1a;
use gfs::trace::{
    FleetTraceConfig, FleetTraceGenerator, WorkloadConfig, WorkloadEra, WorkloadGenerator,
};
use gfs_testkit::pin;
use gfs_types::{TaskSpec, HOUR};

/// FNV-1a of a 2,000-task trace's JSON.
fn trace_hash(tasks: Vec<TaskSpec>) -> u64 {
    assert_eq!(tasks.len(), 2_000);
    fnv1a(
        serde_json::to_string(&tasks)
            .expect("serialize trace")
            .as_bytes(),
    )
}

/// One 2,000-task 2024-era trace per horizon (1 h, 24 h, 7 d, 24 d,
/// 8 wk), then one 2,000-task 2020-era trace at spot scale 4.
#[test]
fn workload_traces_are_pinned() {
    let mut hashes: Vec<u64> = [1, 24, 7 * 24, 24 * 24, 8 * 7 * 24]
        .into_iter()
        .map(|hours| {
            let tasks = WorkloadGenerator::new(WorkloadConfig {
                horizon_secs: hours * HOUR,
                hp_tasks: 1_600,
                spot_tasks: 400,
                seed: hours,
                ..WorkloadConfig::default()
            })
            .generate();
            trace_hash(tasks)
        })
        .collect();
    let era2020 = WorkloadGenerator::new(WorkloadConfig {
        era: WorkloadEra::Era2020,
        hp_tasks: 1_000,
        spot_tasks: 250,
        spot_scale: 4.0,
        ..WorkloadConfig::default()
    })
    .generate();
    hashes.push(trace_hash(era2020));
    pin("trace.workload", &hashes);
}

/// A small sharded fleet trace, every shard hashed in shard order.
#[test]
fn fleet_trace_is_pinned() {
    let shards = FleetTraceGenerator::new(FleetTraceConfig {
        shards: 4,
        tasks: 2_000,
        ..FleetTraceConfig::default()
    })
    .generate_sharded();
    pin(
        "trace.fleet",
        &[trace_hash(shards.into_iter().flatten().collect())],
    );
}
