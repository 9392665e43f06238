//! Shared code of the experiment bins: `table*`/`fig*` regenerate the
//! paper's tables and figures, and `lab_*` run the extension grids.

#![forbid(unsafe_code)]

use std::time::Instant;

use gfs::lab::{ClusterShape, Grid, Threads, WorkloadAxis};
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

/// Worker count for the grid bins: `GFS_LAB_THREADS=n` fixes it,
/// otherwise one worker per core.
///
/// # Panics
///
/// When `GFS_LAB_THREADS` is set to anything but a positive integer.
#[must_use]
pub fn lab_threads() -> Threads {
    parse_threads(std::env::var("GFS_LAB_THREADS").ok().as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Parses a `GFS_LAB_THREADS` value: unset is one worker per core, a
/// positive integer fixes the worker count.
///
/// # Errors
///
/// Any other value, with a message naming the accepted ones.
pub fn parse_threads(value: Option<&str>) -> Result<Threads, String> {
    match value.map(str::parse::<usize>) {
        None => Ok(Threads::Auto),
        Some(Ok(n)) if n > 0 => Ok(Threads::Fixed(n)),
        Some(_) => Err(format!(
            "GFS_LAB_THREADS={:?}: expected a positive integer worker count, or unset for one per core",
            value.unwrap_or_default()
        )),
    }
}

/// The six §4.2 metric columns of Tables 5–10.
pub const TABLE_METRICS: [&str; 6] = [
    "hp_p99_jct_s",
    "hp_mean_jct_s",
    "hp_mean_jqt_s",
    "spot_mean_jct_s",
    "spot_mean_jqt_s",
    "eviction_rate",
];

/// The body every grid bin shares: runs `grid` on [`lab_threads`]
/// workers, prints the `metrics` table and the timing, dumps the
/// aggregated JSON under `GFS_LAB_JSON`, then reruns it serially and
/// asserts the two outputs are byte-identical.
///
/// # Panics
///
/// When the serial and parallel outputs differ.
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
    ///
    /// # Panics
    ///
    /// When `GFS_BENCH_SCALE` is set to anything but `quick` or `full`.
    #[must_use]
    pub fn from_env() -> Self {
        Scale::parse(std::env::var("GFS_BENCH_SCALE").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses a `GFS_BENCH_SCALE` value; unset is [`Scale::Quick`].
    ///
    /// # Errors
    ///
    /// Any value other than `quick` or `full`, with a message naming the
    /// accepted ones.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "GFS_BENCH_SCALE={other:?}: expected `quick` or `full`"
            )),
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

/// The standard evaluation workload: the Table 3 mix sized to 60 % HP and
/// 12 % spot load of the cell's cluster, at the given spot scale
/// (1 / 2 / 4 = low / medium / high).
#[must_use]
pub fn spot_workload(scale: Scale, name: &str, spot_scale: f64) -> WorkloadAxis {
    let base = WorkloadConfig {
        horizon_secs: scale.horizon_hours() * HOUR,
        spot_scale,
        ..WorkloadConfig::default()
    };
    WorkloadAxis::generated_sized(name, base, 0.60, 0.12)
}

/// The grid every scheduling table shares: the A100 pool at `scale`,
/// seed 9 and a simulation cut off 96 h after the last submission. A
/// table adds its schedulers, workloads and parameter points.
#[must_use]
pub fn eval_grid(scale: Scale) -> Grid {
    Grid::new()
        .shape(ClusterShape::a100(scale.nodes(), PAPER_GPUS_PER_NODE))
        .seeds([9])
        .sim(SimConfig {
            max_time_secs: Some((scale.horizon_hours() + 96) * HOUR),
            ..SimConfig::default()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_accepts_quick_and_full_only() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for bad in ["Full", "FULL", "", "paper"] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("`quick` or `full`"), "{err}");
        }
    }

    #[test]
    fn threads_accept_positive_integers_only() {
        assert_eq!(parse_threads(None), Ok(Threads::Auto));
        assert_eq!(parse_threads(Some("8")), Ok(Threads::Fixed(8)));
        for bad in ["0", "-1", "eight", "", "2.5"] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains("positive integer"), "{err}");
        }
    }
}
