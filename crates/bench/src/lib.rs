//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §4 for the index).

// `deny` rather than `forbid`: the affinity module scopes one audited
// raw-syscall allowance (no `libc` is available offline).
#![deny(unsafe_code)]

pub mod affinity;
pub mod harness;

use std::time::Instant;

use gfs::lab::{Grid, Threads};
use gfs::prelude::*;

/// The simulated A100 pool of §4.1: 287 nodes × 8 GPUs = 2,296 GPUs.
pub const PAPER_NODES: u32 = 287;
/// GPUs per node.
pub const PAPER_GPUS_PER_NODE: u32 = 8;

/// Reads a boolean environment flag: set and neither `"0"` nor empty.
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Worker count for the `lab_*` bins: `GFS_LAB_THREADS=n` fixes it,
/// otherwise one worker per core.
#[must_use]
pub fn lab_threads() -> Threads {
    match std::env::var("GFS_LAB_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(n) => Threads::Fixed(n),
        None => Threads::Auto,
    }
}

/// The body every `lab_*` grid bin shares: runs `grid` on
/// [`lab_threads`] workers, prints the `metrics` table and the timing,
/// dumps the aggregated JSON under `GFS_LAB_JSON`, and under
/// `GFS_LAB_COMPARE` reruns it serially and asserts the two outputs are
/// byte-identical.
///
/// # Panics
///
/// When `GFS_LAB_COMPARE` is set and the serial and parallel outputs
/// differ.
pub fn run_lab_grid(grid: &Grid, metrics: &[&str]) {
    let threads = lab_threads();
    let start = Instant::now();
    let result = grid.run(threads);
    let wall = start.elapsed();
    println!("{}", result.report.render_table(metrics));
    let runs: usize = result.report.cells.iter().map(|c| c.seeds.len()).sum();
    println!(
        "{runs} runs in {:.2}s on {} threads",
        wall.as_secs_f64(),
        threads.count()
    );
    let json = result.report.to_json();
    if env_flag("GFS_LAB_JSON") {
        println!("{json}");
    }
    if env_flag("GFS_LAB_COMPARE") {
        let start = Instant::now();
        let serial = grid.run(Threads::Fixed(1)).report.to_json();
        let serial_wall = start.elapsed();
        assert_eq!(
            serial, json,
            "parallel and serial grids must agree byte-for-byte"
        );
        println!(
            "serial: {:.2}s  -> speedup {:.2}x, outputs identical",
            serial_wall.as_secs_f64(),
            serial_wall.as_secs_f64() / wall.as_secs_f64()
        );
    }
}

/// Scale factors for quick (CI) vs full (paper-scale) experiment runs,
/// selected with the `GFS_BENCH_SCALE` environment variable
/// (`quick` | `full`, default `quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced cluster/horizon for fast iteration.
    Quick,
    /// The paper's 287-node pool and multi-day horizon.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("GFS_BENCH_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Number of nodes to simulate.
    #[must_use]
    pub fn nodes(self) -> u32 {
        match self {
            Scale::Quick => 72,
            Scale::Full => PAPER_NODES,
        }
    }

    /// Submission horizon in hours.
    #[must_use]
    pub fn horizon_hours(self) -> u64 {
        match self {
            Scale::Quick => 72,
            Scale::Full => 7 * 24,
        }
    }
}

/// The standard evaluation workload: Table 3 mix sized to the cluster,
/// at the given spot scale (1 / 2 / 4 = low / medium / high).
#[must_use]
pub fn eval_workload(scale: Scale, spot_scale: f64, seed: u64) -> Vec<TaskSpec> {
    let capacity = f64::from(scale.nodes() * PAPER_GPUS_PER_NODE);
    let cfg = WorkloadConfig {
        horizon_secs: scale.horizon_hours() * HOUR,
        spot_scale,
        seed,
        ..WorkloadConfig::default()
    }
    .sized_for(capacity, 0.60, 0.12);
    WorkloadGenerator::new(cfg).generate()
}

/// Simulation settings shared by the scheduling experiments.
#[must_use]
pub fn eval_sim_config(scale: Scale) -> SimConfig {
    SimConfig {
        max_time_secs: Some((scale.horizon_hours() + 96) * HOUR),
        ..SimConfig::default()
    }
}

/// One row of a Table 5-style comparison.
#[derive(Debug, Clone)]
pub struct SchedRow {
    /// Scheduler display name.
    pub name: String,
    /// P99 HP job completion time, seconds.
    pub hp_jct_p99: f64,
    /// Mean HP JCT, seconds.
    pub hp_jct: f64,
    /// Mean HP JQT, seconds.
    pub hp_jqt: f64,
    /// Mean spot JCT, seconds.
    pub spot_jct: f64,
    /// Mean spot JQT, seconds.
    pub spot_jqt: f64,
    /// Spot eviction rate (`e`), fraction.
    pub eviction: f64,
}

/// Runs one scheduler on a workload and summarises the §4.2 metrics.
pub fn run_row(
    name: &str,
    scheduler: &mut dyn Scheduler,
    scale: Scale,
    tasks: &[TaskSpec],
) -> SchedRow {
    let cluster = Cluster::homogeneous(scale.nodes(), GpuModel::A100, PAPER_GPUS_PER_NODE);
    let report = gfs::sim::run(cluster, scheduler, tasks.to_vec(), &eval_sim_config(scale));
    SchedRow {
        name: name.to_string(),
        hp_jct_p99: report.p99_jct(Priority::Hp),
        hp_jct: report.mean_jct(Priority::Hp),
        hp_jqt: report.mean_jqt(Priority::Hp),
        spot_jct: report.mean_jct(Priority::Spot),
        spot_jqt: report.mean_jqt(Priority::Spot),
        eviction: report.eviction_rate(),
    }
}

/// Prints a Table 5-style block.
pub fn print_rows(title: &str, rows: &[SchedRow]) {
    println!("\n### {title}");
    println!(
        "{:<9} | {:>12} {:>10} {:>8} | {:>10} {:>8} {:>6}",
        "sched", "JCT-p99(s)", "JCT(s)", "JQT(s)", "JCT(s)", "JQT(s)", "e(%)"
    );
    println!("{}", "-".repeat(78));
    for r in rows {
        println!(
            "{:<9} | {:>12.1} {:>10.1} {:>8.1} | {:>10.1} {:>8.1} {:>6.2}",
            r.name,
            r.hp_jct_p99,
            r.hp_jct,
            r.hp_jqt,
            r.spot_jct,
            r.spot_jqt,
            r.eviction * 100.0
        );
    }
}
