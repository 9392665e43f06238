//! Snapshots: the service's whole state as one versioned JSON document,
//! with the encoder and the decoder side by side.
//!
//! A snapshot is the *entire* dynamic state — cluster (nodes, running
//! registry, capacity totals, failure/drain history), event heap and its
//! sequence counter, per-task states, pending queue, availability
//! integrals, the journal's admission counter, and the scheduler's own
//! accumulators via [`Scheduler::save_state`]. There is exactly one
//! encoder and one decoder:
//!
//! * [`ClusterService::snapshot_json`] streams the document straight off
//!   the live state (no intermediate copy of the cluster, report or task
//!   table);
//! * [`ServiceSnapshot::from_json`] parses it into a [`ServiceSnapshot`],
//!   a decode-only target that [`ClusterService::restore`] consumes.
//!
//! The encoding is canonical: maps are written as key-sorted pair lists,
//! the heap as a `(time, seq)` sorted list, and incrementally-accumulated
//! totals (integer [`Cards`](gfs_types::Cards)) verbatim, never
//! recomputed, so
//! `snapshot_json → from_json → restore → snapshot_json` is
//! byte-identical and [`ClusterService::state_hash`] (FNV-1a over those
//! bytes) pins a state. Snapshots are versioned ([`SNAPSHOT_VERSION`]);
//! `restore` rejects unknown versions, and task bookkeeping the next
//! [`ClusterService::step`] would trip over, instead of misinterpreting
//! the layout. A restored service replays the remainder of its run to
//! the same [`SimReport`] as the uninterrupted original.

use std::collections::HashMap;
use std::sync::Arc;

use gfs_cluster::{Cluster, ClusterSnapshot, Scheduler};
use gfs_types::{SimTime, TaskId, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::dynamics::AvailabilityTracker;
use crate::engine::SimConfig;
use crate::event_heap::{Event, EventHeap, EventKind};
use crate::journal::Journal;
use crate::pending::PendingQueue;
use crate::report::SimReport;
use crate::service::{ClusterService, Live, TaskState};

/// Layout version stamped into every [`ServiceSnapshot`];
/// [`ClusterService::restore`] rejects any other value.
pub const SNAPSHOT_VERSION: u32 = 1;

/// FNV-1a over a byte string — the checksum used for snapshot state
/// hashes and journal record CRCs (and by the golden-pin test harness).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a`] hash whose state after the bytes before
/// `bytes` is `state`: `fnv1a(a ++ b) == fnv1a_from(fnv1a(a), b)`.
#[must_use]
pub(crate) fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a`] over a report's canonical JSON: the fingerprint the
/// crash-recovery harness compares between a golden uninterrupted run and
/// a crash-recovered one.
#[must_use]
pub fn report_hash(report: &SimReport) -> u64 {
    let mut out = String::new();
    report.serialize_json(&mut out);
    fnv1a(out.as_bytes())
}

/// Why [`ClusterService::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The JSON did not parse as a [`ServiceSnapshot`], or its task
    /// bookkeeping does not hang together.
    Parse(String),
    /// The snapshot's layout version is not [`SNAPSHOT_VERSION`].
    Version {
        /// The version found in the snapshot.
        found: u32,
    },
    /// The scheduler refused the saved state blob (wrong scheduler kind
    /// for the snapshot, or a corrupted blob), or the snapshot carried a
    /// blob for a scheduler that declares itself stateless (or vice
    /// versa).
    SchedulerState,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Parse(e) => write!(f, "snapshot does not parse: {e}"),
            RestoreError::Version { found } => write!(
                f,
                "snapshot version {found} unsupported (expected {SNAPSHOT_VERSION})"
            ),
            RestoreError::SchedulerState => {
                write!(f, "scheduler rejected the snapshot's saved state")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A parsed [`ClusterService::snapshot_json`] document: the full state of
/// a service at a batch boundary, ready for [`ClusterService::restore`].
///
/// Decode-only — the one encoder streams off the live service — so
/// `snapshot_json → from_json → restore → snapshot_json` round-trips byte
/// for byte and [`ClusterService::state_hash`] pins a service state as a
/// single `u64`.
#[derive(Debug, Deserialize)]
pub struct ServiceSnapshot {
    version: u32,
    cfg: SimConfig,
    cluster: ClusterSnapshot,
    report: SimReport,
    /// Heap events sorted by `(at, seq)` — canonical order.
    events: Vec<Event>,
    /// The heap's sequence counter.
    seq: u64,
    specs: Vec<TaskSpec>,
    states: Vec<TaskState>,
    pending: Vec<u32>,
    unfinished: u64,
    avail: AvailabilityTracker,
    now: SimTime,
    steps: u64,
    started: bool,
    journal_seq: u64,
    scheduler: Option<String>,
}

impl ServiceSnapshot {
    /// Parses a snapshot from its JSON encoding.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Parse`] on malformed input or trailing garbage.
    pub fn from_json(s: &str) -> Result<Self, RestoreError> {
        let mut p = serde::de::Parser::new(s);
        let snap = ServiceSnapshot::deserialize_json(&mut p)
            .map_err(|e| RestoreError::Parse(e.to_string()))?;
        if !p.at_end() {
            return Err(RestoreError::Parse("trailing characters".to_string()));
        }
        Ok(snap)
    }

    /// Rejects task bookkeeping the next [`ClusterService::step`] would
    /// trip over: a task-state table of the wrong length, a task index
    /// past the table (in the pending queue or a heap event), or a
    /// submitted task whose report record is not its own. Returns, per
    /// task, whether it has been submitted (no `Submit` left in the heap).
    fn check_task_indices(&self) -> Result<Vec<bool>, RestoreError> {
        let damaged = |what: String| Err(RestoreError::Parse(what));
        let n = self.specs.len();
        if self.states.len() != n {
            return damaged(format!("{} task states for {n} tasks", self.states.len()));
        }
        let in_events = self.events.iter().filter_map(|e| match e.kind {
            EventKind::Submit(i) | EventKind::Requeue(i) | EventKind::Finish { task: i, .. } => {
                Some(i)
            }
            _ => None,
        });
        let mut named = self.pending.iter().copied().chain(in_events);
        if let Some(i) = named.find(|&i| i as usize >= n) {
            return damaged(format!("task {i} was never admitted ({n} tasks)"));
        }
        let mut submitted = vec![true; n];
        for e in &self.events {
            if let EventKind::Submit(i) = e.kind {
                submitted[i as usize] = false;
            }
        }
        // finishing, leaving and waiting all fold into the task's record
        let records = &self.report.tasks;
        for (i, (spec, st)) in self.specs.iter().zip(&self.states).enumerate() {
            if submitted[i] && records.get(st.rec as usize).is_none_or(|r| r.id != spec.id) {
                return damaged(format!(
                    "submitted task {i} has no report record of its own"
                ));
            }
        }
        Ok(submitted)
    }

    /// Simulated time the snapshot was taken at.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.now
    }

    /// The admission counter folded into this snapshot: journal records
    /// with `seq` at or below this are already part of the state.
    #[must_use]
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }
}

impl ClusterService {
    /// The versioned, canonical snapshot of the full dynamic state
    /// (including the scheduler's, via [`Scheduler::save_state`]) — the
    /// one snapshot encoder. It streams straight off the live state, so
    /// a checkpoint of a 10k-node service never deep-copies the cluster,
    /// the report or the task table. The field order is the declaration
    /// order of [`ServiceSnapshot`], which [`ServiceSnapshot::from_json`]
    /// decodes it into; the round trip back to these bytes is pinned by
    /// tests.
    #[must_use]
    pub fn snapshot_json(&self, scheduler: &dyn Scheduler) -> String {
        let live = &self.live;
        let mut out = String::new();
        out.push_str("{\"version\":");
        SNAPSHOT_VERSION.serialize_json(&mut out);
        out.push_str(",\"cfg\":");
        self.cfg.serialize_json(&mut out);
        out.push_str(",\"cluster\":");
        live.cluster.snapshot_json_into(&mut out);
        out.push_str(",\"report\":");
        live.report.serialize_json(&mut out);
        out.push_str(",\"events\":");
        live.heap.sorted().serialize_json(&mut out);
        out.push_str(",\"seq\":");
        live.heap.seq().serialize_json(&mut out);
        out.push_str(",\"specs\":");
        self.specs.serialize_json(&mut out);
        out.push_str(",\"states\":");
        live.states.serialize_json(&mut out);
        out.push_str(",\"pending\":");
        self.pending
            .merged(&self.specs, scheduler)
            .serialize_json(&mut out);
        out.push_str(",\"unfinished\":");
        (live.unfinished as u64).serialize_json(&mut out);
        out.push_str(",\"avail\":");
        live.avail.serialize_json(&mut out);
        out.push_str(",\"now\":");
        live.now.serialize_json(&mut out);
        out.push_str(",\"steps\":");
        self.steps.serialize_json(&mut out);
        out.push_str(",\"started\":");
        self.started.serialize_json(&mut out);
        out.push_str(",\"journal_seq\":");
        self.journal.last_seq().serialize_json(&mut out);
        out.push_str(",\"scheduler\":");
        scheduler.save_state().serialize_json(&mut out);
        out.push('}');
        out
    }

    /// [`fnv1a`] over [`ClusterService::snapshot_json`]: the state
    /// fingerprint crash-recovery harnesses compare between a golden run
    /// and a recovered one.
    #[must_use]
    pub fn state_hash(&self, scheduler: &dyn Scheduler) -> u64 {
        fnv1a(self.snapshot_json(scheduler).as_bytes())
    }

    /// Rebuilds a service from a snapshot, rehydrating `scheduler` (a
    /// freshly-constructed instance from the same factory) through
    /// [`Scheduler::restore_state`].
    ///
    /// # Errors
    ///
    /// [`RestoreError::Version`] for an unknown layout version;
    /// [`RestoreError::Parse`] when the task bookkeeping is damaged — a
    /// task index (pending queue, heap event) past the task table, task
    /// states that do not match it, a submitted task whose report record
    /// is not its own, or a running task that is not a submitted member
    /// of the table; [`RestoreError::SchedulerState`] when the scheduler
    /// and the snapshot disagree about saved state (wrong scheduler for
    /// the snapshot, or a corrupted blob).
    pub fn restore(
        snap: ServiceSnapshot,
        scheduler: &mut dyn Scheduler,
    ) -> Result<Self, RestoreError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(RestoreError::Version {
                found: snap.version,
            });
        }
        let submitted = snap.check_task_indices()?;
        let specs: Vec<Arc<TaskSpec>> = snap.specs.into_iter().map(Arc::new).collect();
        let id_to_idx: HashMap<TaskId, u32> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i as u32))
            .collect();
        let cluster = Cluster::from_snapshot(snap.cluster);
        // every exit looks a running task up by id
        let in_table = |id: &TaskId| id_to_idx.get(id).is_some_and(|&i| submitted[i as usize]);
        if let Some(rt) = cluster.running().find(|rt| !in_table(&rt.spec.id)) {
            return Err(RestoreError::Parse(format!(
                "running task {} is not a submitted task",
                rt.spec.id
            )));
        }
        // a stateful scheduler paired with a stateless snapshot (or the
        // reverse) means the factory and the snapshot disagree
        let agrees = match &snap.scheduler {
            Some(blob) => scheduler.restore_state(blob),
            None => scheduler.save_state().is_none(),
        };
        if !agrees {
            return Err(RestoreError::SchedulerState);
        }
        // the snapshot stores the merged order; the classes are the
        // restoring scheduler's to declare
        let pending = PendingQueue::from_merged(&snap.pending, &specs, scheduler);
        Ok(ClusterService {
            live: Live {
                now: snap.now,
                cluster,
                report: snap.report,
                heap: EventHeap::restore(snap.events, snap.seq),
                states: snap.states,
                id_to_idx,
                avail: snap.avail,
                unfinished: snap.unfinished as usize,
                requeue_delay: snap.cfg.requeue_delay_secs,
            },
            cfg: snap.cfg,
            specs,
            pending,
            steps: snap.steps,
            started: snap.started,
            journal: Journal::resume(snap.journal_seq),
            batch_scratch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{churn_service, golden, trace, FirstFit};
    use gfs_types::GpuModel;

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical() {
        let mut s = churn_service();
        s.admit_tasks(trace(24));
        s.start();
        for _ in 0..40 {
            if !s.step(&mut FirstFit) {
                break;
            }
        }
        let json = s.snapshot_json(&FirstFit);
        let mut sched = FirstFit;
        let restored =
            ClusterService::restore(ServiceSnapshot::from_json(&json).unwrap(), &mut sched)
                .unwrap();
        assert_eq!(
            json,
            restored.snapshot_json(&sched),
            "snapshot round-trip must be canonical"
        );
        assert_eq!(s.state_hash(&FirstFit), restored.state_hash(&sched));
    }

    #[test]
    fn every_truncated_snapshot_is_rejected() {
        let mut s = churn_service();
        s.admit_tasks(trace(8));
        s.start();
        for _ in 0..12 {
            s.step(&mut FirstFit);
        }
        assert!(s.cluster().running_count() > 0, "snapshot mid-run");
        let json = s.snapshot_json(&FirstFit);
        for (cut, _) in json.char_indices() {
            assert!(
                ServiceSnapshot::from_json(&json[..cut]).is_err(),
                "a snapshot torn at byte {cut} must not parse"
            );
        }
        assert!(ServiceSnapshot::from_json(&json).is_ok());
    }

    #[test]
    fn deeply_nested_snapshot_is_an_error_not_a_stack_overflow() {
        let mut s = churn_service();
        s.admit_tasks(trace(2));
        let json = s.snapshot_json(&FirstFit);
        let nested = |depth: usize| {
            let extra = format!("{{\"x\":{}{},", "[".repeat(depth), "]".repeat(depth));
            json.replacen('{', &extra, 1)
        };
        assert!(ServiceSnapshot::from_json(&nested(100)).is_ok());
        let err = ServiceSnapshot::from_json(&nested(100_000)).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn crash_at_any_point_replays_to_the_same_report() {
        let golden = golden();
        for crash_after in [1usize, 7, 19, 33, 61] {
            let mut s = churn_service();
            s.admit_tasks(trace(24));
            s.start();
            for _ in 0..crash_after {
                if !s.step(&mut FirstFit) {
                    break;
                }
            }
            let json = s.snapshot_json(&FirstFit);
            drop(s); // the crash
            let mut sched = FirstFit;
            let mut r =
                ClusterService::restore(ServiceSnapshot::from_json(&json).unwrap(), &mut sched)
                    .unwrap();
            r.run_to_end(&mut sched);
            assert_eq!(r.finish(), golden, "crash after {crash_after} steps");
        }
    }

    #[test]
    fn a_snapshot_with_the_dropped_node_counters_restores_to_the_same_state() {
        let mut s = churn_service();
        s.admit_tasks(trace(24));
        s.start();
        for _ in 0..40 {
            s.step(&mut FirstFit);
        }
        let json = s.snapshot_json(&FirstFit);
        // the node layout before the lifetime failure and drain counters
        // were dropped
        let legacy = json.replace(
            ",\"up\":",
            ",\"failure_total\":2,\"last_failure\":7200,\"drain_total\":1,\"up\":",
        );
        assert_eq!(legacy.matches("drain_total").count(), 3, "one per node");
        let mut sched = FirstFit;
        let restored =
            ClusterService::restore(ServiceSnapshot::from_json(&legacy).unwrap(), &mut sched)
                .unwrap();
        assert_eq!(s.state_hash(&FirstFit), restored.state_hash(&sched));
    }

    #[test]
    fn restore_rejects_a_node_history_out_of_time_order() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        for (id, t) in [(0, 100), (1, 300), (1, 400)] {
            let spec = TaskSpec::builder(id + 10 * t)
                .priority(gfs_types::Priority::Spot)
                .duration_secs(1_000)
                .build()
                .unwrap();
            c.start_task(spec, &[gfs_types::NodeId::new(id as u32)], SimTime::ZERO, 0)
                .unwrap();
            c.evict_task(TaskId::new(id + 10 * t), SimTime::from_secs(t))
                .unwrap();
        }
        for t in [200, 500] {
            let node = gfs_types::NodeId::new(0);
            c.fail_node(node, SimTime::from_secs(t)).unwrap();
            c.restore_node(node, SimTime::from_secs(t + 1)).unwrap();
        }
        let json = ClusterService::new(c, SimConfig::default()).snapshot_json(&FirstFit);
        let restore = |json: &str| {
            ServiceSnapshot::from_json(json)
                .and_then(|snap| ClusterService::restore(snap, &mut FirstFit))
                .map(|_| ())
        };
        assert_eq!(restore(&json), Ok(()));
        for (from, to) in [
            ("\"failures\":[200,500]", "\"failures\":[500,200]"),
            ("\"evictions\":[300,400]", "\"evictions\":[400,300]"),
        ] {
            let swapped = json.replacen(from, to, 1);
            assert_ne!(swapped, json, "{from} must occur in the snapshot");
            assert!(
                matches!(restore(&swapped), Err(RestoreError::Parse(e)) if e.contains("time order")),
                "{to}"
            );
        }
    }

    /// Restoring `json` with `from` replaced by `to` must be refused as
    /// damaged, not handed to the next step to trip over.
    fn assert_damaged(json: &str, from: &str, to: &str) {
        let damaged = json.replacen(from, to, 1);
        assert_ne!(damaged, json, "{from} must occur in the snapshot");
        let parsed = ServiceSnapshot::from_json(&damaged).unwrap();
        assert!(
            matches!(
                ClusterService::restore(parsed, &mut FirstFit),
                Err(RestoreError::Parse(_))
            ),
            "{to}"
        );
    }

    #[test]
    fn restore_rejects_wrong_version_and_garbage() {
        let mut s = ClusterService::new(
            Cluster::homogeneous(1, GpuModel::A100, 8),
            SimConfig::default(),
        );
        s.admit_tasks(trace(1));
        let json = s.snapshot_json(&FirstFit);
        let bumped = json.replacen("\"version\":1", "\"version\":99", 1);
        let parsed = ServiceSnapshot::from_json(&bumped).unwrap();
        assert_eq!(
            ClusterService::restore(parsed, &mut FirstFit).err(),
            Some(RestoreError::Version { found: 99 })
        );
        assert!(ServiceSnapshot::from_json("not json").is_err());
        assert!(
            ServiceSnapshot::from_json(&format!("{json}garbage")).is_err(),
            "trailing garbage must be rejected"
        );
        // a task index with no spec behind it — in the queue or in a heap
        // event — or a state table of the wrong length
        let mut state = String::new();
        TaskState::default().serialize_json(&mut state);
        assert_damaged(&json, "\"pending\":[]", "\"pending\":[7]");
        assert_damaged(&json, "{\"Submit\":0}", "{\"Submit\":7}");
        assert_damaged(&json, "{\"Submit\":0}", "{\"Requeue\":7}");
        assert_damaged(
            &json,
            "{\"Submit\":0}",
            "{\"Finish\":{\"task\":7,\"epoch\":0}}",
        );
        assert_damaged(&json, "\"states\":[", &format!("\"states\":[{state},"));
        // a card amount that is not an exact count of milli-cards does not
        // decode: not as a task's fractional demand, not as a card's free
        for bad in ["null", "-0.25", "0.0004", "1e300"] {
            let demand = format!("{{\"Fraction\":{bad}}}");
            let damaged = json.replacen("{\"Whole\":1}", &demand, 1);
            assert_ne!(damaged, json);
            assert!(ServiceSnapshot::from_json(&damaged).is_err(), "{demand}");
        }
        let damaged = json.replacen("\"free\":1.0", "\"free\":null", 1);
        assert_ne!(damaged, json);
        assert!(ServiceSnapshot::from_json(&damaged).is_err());

        // once the task runs: a state whose record is past the report (the
        // next Finish would index it), and a running task the task table
        // does not know (the next eviction or NodeDown would look it up)
        s.start();
        s.step(&mut FirstFit);
        assert_eq!(
            s.cluster().running_count(),
            1,
            "snapshot with task 0 running"
        );
        let running = s.snapshot_json(&FirstFit);
        assert_damaged(&running, "\"states\":[{\"rec\":0", "\"states\":[{\"rec\":5");
        assert_damaged(
            &running,
            "\"running\":[{\"spec\":{\"id\":0",
            "\"running\":[{\"spec\":{\"id\":9",
        );
    }
}
