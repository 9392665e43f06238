//! Baseline GPU-cluster schedulers compared against GFS in §4.4.
//!
//! * [`YarnCs`] — FCFS + best-fit with newest-first preemption.
//! * [`Chronus`] — lease-based deadline scheduling; displacement only at
//!   lease expiry.
//! * [`Lyra`] — whole-node loans to spot tasks with minimal-waste reclaim.
//! * [`Fgd`] — fragmentation-gradient-descent placement.
//!
//! The [`placement`] module is the placement engine these policies and
//! the PTS/GFS schedulers share — one gang walk, one preemption planner,
//! best-fit and first-fit — plus the churn-aware [`PlacementPolicy`] layer (failure-domain
//! spreading, reliability scoring, drain awareness) that the PTS/GFS
//! schedulers consult at placement time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chronus;
mod fgd;
mod lyra;
pub mod placement;
mod yarn;

pub use chronus::{Chronus, HP_LEASE_SECS, SPOT_LEASE_SECS};
pub use fgd::{fragmentation, Fgd};
pub use lyra::Lyra;
pub use placement::{DomainUse, PlacementPolicy};
pub use yarn::YarnCs;
