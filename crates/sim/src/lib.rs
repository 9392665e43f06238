//! Deterministic discrete-event simulation of GPU cluster scheduling.
//!
//! This crate drives any [`gfs_cluster::Scheduler`] implementation — the
//! GFS framework or the baselines — against a task trace on a simulated
//! cluster, reproducing the paper's trace-driven evaluation methodology
//! (§4.1). Outputs are [`SimReport`]s carrying per-task records and the
//! aggregate metrics of §4.2 (JCT, JQT, eviction rate, allocation rate).
//!
//! # Hot-path architecture
//!
//! The event loop keeps all per-task bookkeeping (record index, run
//! epoch, carried checkpoint progress, enqueue time) in one dense
//! `Vec<TaskState>` addressed by the task's position in the submitted
//! trace; events carry that index, so no hashing happens while draining
//! the heap. Specs flow into the cluster as `Arc<TaskSpec>` (no deep
//! copies per submit/start/requeue), and the pending queue is kept sorted
//! under [`gfs_cluster::Scheduler::queue_cmp`] by binary insertion rather
//! than re-sorted every scheduling pass — one queue per
//! [`gfs_cluster::Scheduler::refusal_class`], so a pass stops offering a
//! class at its first refusal (see [`service`], *Pending queue*).
//! Carried progress is cleared when
//! a task finishes, so week-scale, eviction-heavy traces do not
//! accumulate stale state. Identical inputs produce byte-identical
//! [`SimReport`]s across runs and processes (see `tests/golden_report.rs`
//! at the workspace root).
//!
//! # Cluster dynamics
//!
//! Runs may inject a [`gfs_types::DynamicsPlan`] through
//! [`SimConfig::dynamics`]: nodes fail (displacing every pod they host)
//! and recover mid-run, racks fail together over declared failure
//! domains, maintenance drains give tasks notice to finish or migrate
//! before a forced shutdown, and scale-out steps mint fresh nodes.
//! Displaced and migrated tasks requeue through the normal path, and
//! reports grow availability/displacement/migration/scaled-capacity
//! metrics. The [`dynamics`] module documents the full event flow — who
//! emits, who consumes, the determinism rules, and the
//! `FaultPlan → DynamicsPlan` migration. An empty plan is a strict
//! no-op: the event sequence is bit-for-bit what it was before dynamics
//! injection existed.
//!
//! # Crash safety
//!
//! The event loop itself lives in the [`service`] module as the
//! long-running [`ClusterService`]: a resident object that admits live
//! streams of arrivals and dynamics plans, snapshots its entire state
//! (canonical, hashable, versioned), write-ahead journals every admission
//! and recovers from a crash via snapshot + journal replay —
//! bit-identically to the uninterrupted run. [`run`] is a thin batch
//! driver over it.
//!
//! # Examples
//!
//! See the `quickstart` example at the workspace root, which wires a
//! generated workload, a cluster and the GFS scheduler through [`run`],
//! and `crash_recovery`, which kills a live service mid-run and recovers
//! it from snapshot + journal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
mod engine;
pub mod fleet;
mod pending;
mod report;
pub mod service;

pub use engine::{run, SimConfig};
pub use fleet::{run_fleet, FleetReport, FleetShard};
pub use pending::PassStats;
pub use report::{AllocSample, RunSummary, SimReport, TaskRecord};
pub use service::{
    fnv1a, parse_journal, report_hash, AdmittedEvent, ClusterService, Journal, JournalError,
    JournalRecord, JournalReplay, RestoreError, ServiceSnapshot, SNAPSHOT_VERSION,
};
