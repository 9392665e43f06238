//! # GFS — Preemption-aware GPU Cluster Scheduling with Predictive Spot Management
//!
//! A full Rust reproduction of the ASPLOS '26 paper *"GFS: A
//! Preemption-aware Scheduling Framework for GPU Clusters with Predictive
//! Spot Instance Management"* (Duan et al.).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | ids, time, tasks, GPU models, Table 4 parameters |
//! | [`nn`] | from-scratch reverse-mode autodiff (tensors, layers, Adam) |
//! | [`forecast`] | OrgLinear + 6 baselines, metrics, Gaussian stats |
//! | [`cluster`] | node/GPU state machine and the `Scheduler` trait |
//! | [`trace`] | calibrated synthetic workload & org-demand generators |
//! | [`sched`] | baseline schedulers: YARN-CS, Chronus, Lyra, FGD |
//! | [`core`] | the contribution: GDE, SQA, PTS, `GfsScheduler` |
//! | [`sim`] | deterministic discrete-event simulator + metrics |
//! | [`market`] | closed-loop capacity market: spot prices, autoscaling, cost metering |
//! | [`lab`] | parallel, deterministic experiment grids + aggregation |
//!
//! # Quickstart
//!
//! ```
//! use gfs::prelude::*;
//!
//! // 1. a 16-node (128-GPU) A100 pool
//! let cluster = Cluster::homogeneous(16, GpuModel::A100, 8);
//! // 2. a small calibrated workload
//! let tasks = WorkloadGenerator::new(WorkloadConfig {
//!     hp_tasks: 150,
//!     spot_tasks: 50,
//!     horizon_secs: 24 * HOUR,
//!     ..WorkloadConfig::default()
//! })
//! .generate();
//! // 3. schedule it with GFS
//! let mut gfs = GfsScheduler::with_defaults();
//! let report = run(cluster, &mut gfs, tasks, &SimConfig::default());
//! assert!(report.completion_rate(Priority::Hp) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gfs_cluster as cluster;
pub use gfs_core as core;
pub use gfs_forecast as forecast;
pub use gfs_lab as lab;
pub use gfs_market as market;
pub use gfs_nn as nn;
pub use gfs_sched as sched;
pub use gfs_sim as sim;
pub use gfs_trace as trace;
pub use gfs_types as types;

pub mod scenario;

/// The most common imports in one place.
pub mod prelude {
    pub use gfs_cluster::{Cluster, Decision, Scheduler, TaskEvent};
    pub use gfs_core::{
        DemandEstimator, GfsScheduler, Pts, PtsScheduler, PtsVariant, SpotQuotaAllocator,
    };
    pub use gfs_forecast::{evaluate, DLinear, Forecaster, LastWeekPeak, OrgLinear, TrainConfig};
    pub use gfs_sched::{Chronus, Fgd, Lyra, YarnCs};
    pub use gfs_sim::{run, SimConfig, SimReport};
    pub use gfs_trace::{WorkloadConfig, WorkloadEra, WorkloadGenerator};
    pub use gfs_types::{
        Cards, ClusterEvent, DynamicsPlan, FailureDomain, GfsParams, GpuDemand, GpuModel, NodeId,
        NodeTemplate, OrgId, Priority, SimTime, TaskId, TaskSpec, HOUR,
    };
}
