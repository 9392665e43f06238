//! The repository's benchmark: four service-session workloads, seven
//! end-to-end metrics, boundary-traced layers. See `README.md`.
//!
//! Nothing in here is product code and nothing in the product knows about
//! it: layers are measured from outside, by timing calls into their public
//! functions.

pub mod compare;
pub mod metrics;
pub mod probes;
pub mod proxy;
pub mod run;
pub mod session;
pub mod spans;
pub mod stats;
pub mod workloads;
