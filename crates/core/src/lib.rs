//! GFS — the paper's contribution: a preemption-aware scheduling framework
//! with predictive spot-instance management (§3).
//!
//! The three cooperating modules of Fig. 6:
//!
//! * [`DemandEstimator`] (GDE, §3.2) — wraps a `gfs-forecast` model
//!   (OrgLinear by default) into an online per-organization demand
//!   estimator producing `ICDF(p, μ̂, σ̂)` upper bounds;
//! * [`SpotQuotaAllocator`] (SQA, §3.3) — turns those bounds into the
//!   spot quota `Q_H` (Eq. 9–10) with the adaptive safety coefficient `η`
//!   (Eq. 11);
//! * [`Pts`] (PTS, §3.4) — the placement engine: three-criteria
//!   non-preemptive scoring (Alg. 1, Eq. 13–16) and waste-aware preemptive
//!   fallback (Alg. 2, Eq. 17–19).
//!
//! [`GfsScheduler`] assembles them behind the `gfs_cluster::Scheduler`
//! trait (Alg. 3); [`PtsVariant`] selects the Table 10 ablation variants.
//!
//! [`PtsScheduler`] exposes the bare placement engine (no quota, no
//! estimator) as a scheduler of its own — the placement-policy ablation
//! row: pair it with a `gfs_sched::PlacementPolicy` to measure what
//! churn-aware placement contributes independently of spot admission.
//! Both it and [`GfsScheduler`] accept a policy
//! ([`GfsScheduler::with_policy`]); the default is naive (policy-less)
//! placement, bit-identical to the pre-policy behaviour.
//!
//! # Examples
//!
//! ```
//! use gfs_cluster::{Cluster, Scheduler};
//! use gfs_core::GfsScheduler;
//! use gfs_types::{GpuDemand, GpuModel, Priority, SimTime, TaskSpec};
//!
//! let cluster = Cluster::homogeneous(4, GpuModel::A100, 8);
//! let mut gfs = GfsScheduler::with_defaults();
//! gfs.on_tick(SimTime::from_secs(300), &cluster); // first quota update
//! let task = TaskSpec::builder(1)
//!     .priority(Priority::Spot)
//!     .gpus_per_pod(GpuDemand::whole(2))
//!     .build()?;
//! let decision = gfs.schedule(&task, &cluster, SimTime::from_secs(300));
//! assert!(decision.is_some());
//! # Ok::<(), gfs_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gde;
mod gfs;
mod pts;
mod pts_sched;
mod score_index;
mod sqa;

pub use gde::{DemandEstimator, GdeState};
pub use gfs::{GfsScheduler, GfsState};
pub use pts::{PreemptWork, Pts, PtsVariant};
pub use pts_sched::PtsScheduler;
pub use sqa::{SpotQuotaAllocator, SqaState};
