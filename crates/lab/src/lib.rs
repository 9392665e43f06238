//! Parallel, deterministic experiment orchestration for the GFS simulator.
//!
//! A single simulation answers one question about one scheduler on one
//! workload; the paper's evaluation — and any credible scheduling claim —
//! is a *matrix* of runs: schedulers × cluster shapes × workload mixes ×
//! parameter settings × seeds. This crate turns the single-run simulator
//! into that experiment engine:
//!
//! * [`Grid`] — a declarative builder enumerating the cross-product of
//!   [`SchedulerSpec`] constructors, [`ClusterShape`]s (homogeneous or
//!   mixed-GPU via [`NodeGroup`] pools, optionally
//!   [`ClusterShape::racked`] into failure domains), [`WorkloadAxis`]
//!   trace sources, [`DynamicsAxis`] cluster timelines (independent
//!   churn, correlated rack failures, rolling maintenance drains,
//!   autoscale schedules), [`MarketAxis`] capacity markets (spot-price
//!   processes plus forecast-driven autoscaling controllers, metered
//!   into the §4.3 cost metrics), [`PolicyAxis`] placement policies (naive /
//!   domain-spread / reliability-scored / churn-aware), [`ParamsAxis`]
//!   overrides and replication seeds.
//! * [`pool`] — a std-only chunked work pool executing runs in parallel
//!   while collecting results *by run index*, so the aggregated output is
//!   byte-identical to a serial run for any thread count.
//! * [`agg`] — across-seed reduction of per-run
//!   [`RunSummary`](gfs_sim::RunSummary)s into median / IQR / min / max
//!   [`MetricStats`].
//! * [`GridReport`] — canonical JSON emission plus aligned text tables.
//! * [`recovery`] — a crash-injection harness over the crash-safe
//!   [`ClusterService`](gfs_sim::ClusterService): kill a run at a chosen
//!   point, recover from snapshot + write-ahead journal, and compare
//!   fingerprints against the uninterrupted golden run.
//!
//! # Quickstart
//!
//! A four-scheduler faceoff on a 16-node pool, three seeds per cell:
//!
//! ```
//! use gfs_lab::{ClusterShape, Grid, SchedulerSpec, Threads, WorkloadAxis};
//! use gfs_trace::WorkloadConfig;
//! use gfs_types::HOUR;
//!
//! let grid = Grid::new()
//!     .schedulers(SchedulerSpec::baselines())
//!     .shape(ClusterShape::a100(16, 8))
//!     .workload(WorkloadAxis::generated(
//!         "medium-spot",
//!         WorkloadConfig {
//!             hp_tasks: 30,
//!             spot_tasks: 10,
//!             spot_scale: 2.0,
//!             horizon_secs: 6 * HOUR,
//!             ..WorkloadConfig::default()
//!         },
//!     ))
//!     .seeds([1, 2, 3]);
//!
//! let result = grid.run(Threads::Auto);
//! assert_eq!(result.report.cells.len(), 4);
//! let block = ("16n", "medium-spot", "none", "none", "naive", "default");
//! let yarn = result.report.cell("YARN-CS", block).unwrap();
//! assert!(yarn.median("hp_completion") > 0.0);
//! println!("{}", result.report.render_table(&["hp_mean_jct_s", "eviction_rate"]));
//! ```
//!
//! Custom schedulers and hand-built traces plug in through
//! [`SchedulerSpec::new`] and [`WorkloadAxis::new`]; the facade's
//! `gfs::scenario` module provides grid-ready constructors for the full
//! GFS framework (which trains a demand estimator per run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
mod grid;
pub mod recovery;
mod report;

pub use agg::{MetricStats, MetricSummary};
pub use gfs_sim::pool;
pub use gfs_sim::Threads;
pub use grid::{
    Axis, ClusterShape, DynamicsAxis, Grid, GridResult, MarketAxis, NodeGroup, ParamsAxis,
    PolicyAxis, RunContext, Scenario, SchedulerSpec, UniformTrace, WorkloadAxis,
};
pub use recovery::{crash_and_recover, CrashPlan, CrashPoint, RecoveryOutcome};
pub use report::{CellSummary, GridReport};
