//! Synthetic workload and demand generation for the GFS reproduction.
//!
//! The paper evaluates on a proprietary Alibaba trace (Apr–Jun 2024,
//! 138k HP + 27k spot tasks on a 2,296-GPU A100 pool). This crate replaces
//! it with deterministic generators calibrated to every published marginal:
//!
//! * [`workload`] — task streams matching the Table 3 size/gang mix, the
//!   Fig. 2 era CDFs, the Fig. 3 duration scales and the diurnal
//!   submission peaks behind Fig. 5;
//! * [`fleet`] — million-task sharded traces for the fleet-scale engine;
//! * [`orgdemand`] — per-organization hourly demand series matching Fig. 4
//!   (including Organization C's 35.7 % weekend drop);
//! * [`record`] — JSON trace persistence;
//! * [`stats`] — percentile/CDF helpers used by the figure benches.
//!
//! Both task generators, [`workload`] and [`fleet`], build their hourly
//! diurnal submission CDF once per generator, so a trace of `tasks` over
//! `h` hours costs O(tasks · log h).
//!
//! # Examples
//!
//! ```
//! use gfs_trace::workload::{WorkloadConfig, WorkloadGenerator};
//!
//! let tasks = WorkloadGenerator::new(WorkloadConfig {
//!     hp_tasks: 100,
//!     spot_tasks: 20,
//!     ..WorkloadConfig::default()
//! })
//! .generate();
//! assert_eq!(tasks.len(), 120);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod diurnal;
pub mod fleet;
pub mod orgdemand;
pub(crate) mod rand_util;
pub mod record;
pub mod stats;
pub mod workload;

pub use fleet::{FleetTraceConfig, FleetTraceGenerator};
pub use orgdemand::{default_attr_vocab, generate_all, generate_series, paper_orgs, OrgArchetype};
pub use record::TraceFile;
pub use workload::{WorkloadConfig, WorkloadEra, WorkloadGenerator};
