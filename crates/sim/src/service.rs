//! Crash-safe long-running cluster service: the engine's event loop as a
//! resident object with snapshot/restore, a write-ahead admission journal
//! and deterministic replay.
//!
//! # Lifecycle
//!
//! A [`ClusterService`] wraps one simulation run. The batch entry point
//! ([`crate::run`]) is a thin driver over it:
//!
//! ```text
//! new(cluster, cfg) → admit_tasks(...) → start() → step()/run_until()/
//!     run_to_end() ⟲ (admit_tasks / admit_plan between batches)
//!     → finish() → SimReport
//! ```
//!
//! * [`ClusterService::new`] builds an idle service; nothing is scheduled.
//! * [`ClusterService::admit_tasks`] / [`ClusterService::admit_plan`]
//!   admit work: a batch of task arrivals, or a
//!   [`DynamicsPlan`] of cluster events. Admissions are accepted any time
//!   — before `start` (the batch shape) or mid-run between batches (the
//!   live-stream shape); events in an admission's past clamp to the
//!   current simulated instant.
//! * [`ClusterService::start`] arms the periodic sample/tick chains and
//!   the configured dynamics timeline. Event sequence numbers reproduce
//!   the historical batch engine exactly: first every submit, then the
//!   sample, the tick, and the dynamics events last.
//! * [`ClusterService::step`] processes one batch of same-timestamp
//!   events followed by one scheduling pass — the engine loop's body.
//!   [`ClusterService::run_until`] and [`ClusterService::run_to_end`]
//!   drive it. The scheduler stays outside the service (it is restored
//!   separately on recovery), so every driving call borrows it.
//! * [`ClusterService::finish`] consumes the service and closes the
//!   report (tail queueing accrual, availability integral, makespan).
//!
//! # Snapshots
//!
//! A snapshot is the *entire* dynamic state — cluster (nodes, running
//! registry, capacity totals, failure/drain history), event heap,
//! per-task states, pending queue, availability integrals, and the
//! scheduler's own accumulators via [`Scheduler::save_state`] — as one
//! JSON document. There is exactly one encoder and one decoder:
//!
//! * [`ClusterService::snapshot_json`] streams the document straight off
//!   the live state (no intermediate copy of the cluster, report or task
//!   table);
//! * [`ServiceSnapshot::from_json`] parses it into a [`ServiceSnapshot`],
//!   a decode-only target that [`ClusterService::restore`] consumes.
//!
//! The encoding is canonical: maps are written as key-sorted pair lists,
//! the heap as a `(time, seq)` sorted list, and incrementally-accumulated
//! floating-point totals verbatim (never recomputed), so
//! `snapshot_json → from_json → restore → snapshot_json` is
//! byte-identical and [`ClusterService::state_hash`] (FNV-1a over those
//! bytes) pins a state. Snapshots are versioned ([`SNAPSHOT_VERSION`]);
//! `restore` rejects unknown versions, and task indices that point past
//! the task table, instead of misinterpreting the layout. A restored
//! service replays the remainder of its run to the same [`SimReport`] as
//! the uninterrupted original.
//!
//! # Pending queue
//!
//! Admitted tasks that are not running wait in the pending queue
//! (`pending.rs`): one [`Scheduler::queue_cmp`]-sorted queue per
//! [`Scheduler::refusal_class`], all unclassed tasks sharing one. The
//! scheduling pass after a dirty batch offers tasks in the order a single
//! sorted queue would give (`queue_cmp`, ties by arrival) by k-way merge
//! over the class queues. The first refusal of a declared class *parks*
//! it for the rest of the pass — the scheduler has promised that later
//! members would be refused too — and a commit that evicts, or fails
//! after evicting, re-activates every parked class from its first member
//! ordered after the committing task (the earlier ones already had their
//! turn in this pass). Nothing is remembered between passes, so there is
//! no state to persist: a snapshot stores `pending` as the merged order,
//! byte-identical whatever classes the scheduler declares, and
//! [`ClusterService::restore`] re-splits it by asking the restoring
//! scheduler. With no class declared the pass is one linear sweep of one
//! queue. Debug builds offer every skipped task anyway and panic if the
//! scheduler would have placed it; [`ClusterService::pass_stats`] counts
//! passes, offers, parks and wakes.
//!
//! # Write-ahead journal
//!
//! With [`ClusterService::enable_journal`], every admission is appended
//! to an in-memory JSONL journal *before* it is applied. One record per
//! line:
//!
//! ```text
//! {"seq":N,"at":T,"steps":S,"crc":C,"event":{...}}
//! ```
//!
//! `seq` is the strictly-increasing admission number, `at` the simulated
//! time of admission, `steps` the number of event batches the service had
//! processed when the admission happened (the replay anchor — time alone
//! cannot distinguish "before the batch at t" from "after it"), `crc` an
//! FNV-1a checksum over `seq|at|steps|event` (the
//! canonical JSON of the parts), and `event` an [`AdmittedEvent`]
//! (`Start`, `Tasks`, or `Plan`). Records are self-checking: a flipped
//! byte fails the checksum, a chopped line fails to parse, and a
//! non-increasing `seq` is rejected as a duplicate.
//!
//! # Recovery protocol
//!
//! Crash recovery = last good snapshot + journal suffix replay:
//!
//! 1. rebuild the scheduler with its factory, then
//!    [`ClusterService::restore`] the snapshot (this also rehydrates the
//!    scheduler's accumulators through [`Scheduler::restore_state`]);
//! 2. [`ClusterService::replay_journal`] the full journal text: records
//!    with `seq` at or below the snapshot's admission counter are skipped
//!    (already folded into the snapshot), each remaining record first
//!    advances the service to the batch count it was admitted at and then
//!    re-applies the admission;
//! 3. a truncated or corrupted journal tail is detected, *rejected*, and
//!    reported via [`JournalReplay::rejected`] — the valid prefix is
//!    still applied, never the damaged suffix;
//! 4. drive the service to the end as usual. The result is bit-identical
//!    to the uninterrupted run (pinned by the `lab_recovery` grid).
//!
//! Admissions always happen at batch boundaries (between [`step`] calls),
//! and the journal's `steps` anchor reproduces exactly that boundary.
//!
//! [`step`]: ClusterService::step
//! [`DynamicsPlan`]: gfs_types::DynamicsPlan

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use gfs_cluster::{Cluster, ClusterSnapshot, Scheduler, TaskEvent};
use gfs_types::{
    ClusterEventKind, DynamicsPlan, GpuModel, NodeId, Priority, SimDuration, SimTime, TaskId,
    TaskSpec,
};
use serde::{Deserialize, Serialize};

use crate::dynamics::AvailabilityTracker;
use crate::engine::SimConfig;
use crate::pending::{Offer, PassStats, PendingQueue};
use crate::report::{AllocSample, SimReport, TaskRecord};

/// Layout version stamped into every [`ServiceSnapshot`];
/// [`ClusterService::restore`] rejects any other value.
pub const SNAPSHOT_VERSION: u32 = 1;

/// FNV-1a over a byte string — the checksum used for snapshot state
/// hashes and journal record CRCs (and by the golden-pin test harness).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
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
pub fn report_hash(report: &crate::SimReport) -> u64 {
    let mut out = String::new();
    report.serialize_json(&mut out);
    fnv1a(out.as_bytes())
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum EventKind {
    Submit(u32),
    Finish {
        task: u32,
        epoch: u32,
    },
    Requeue(u32),
    Tick,
    Sample,
    NodeDown(NodeId),
    NodeUp(NodeId),
    Drain {
        node: NodeId,
        notice: SimDuration,
    },
    /// Forced shutdown of a drain; fires only if the drain armed at
    /// `now − notice` is still in progress (an interleaved `NodeUp`
    /// cancels it, a later re-drain arms a different deadline).
    DrainDeadline(NodeId),
    AddNode {
        model: GpuModel,
        gpus: u32,
    },
}

/// Dense per-task simulation state, indexed by trace position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct TaskState {
    /// Index of the task's record in the report (records are appended in
    /// submission-event order, which can differ from trace order).
    rec: u32,
    /// Run-segment epoch; a `Finish` event is stale unless epochs match.
    epoch: u32,
    /// Checkpointed progress carried across evictions; cleared on finish.
    carried: SimDuration,
    /// When the task last entered the pending queue.
    enqueue: SimTime,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we need earliest-first
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar-bucket slot width as a shift: 64-second slots.
const BUCKET_BITS: u64 = 6;
/// Slots in the near window (power of two). `NUM_BUCKETS << BUCKET_BITS`
/// simulated seconds (~18 hours) are bucketed; anything further sits in
/// an overflow heap until the window slides over it.
const NUM_BUCKETS: u64 = 1 << 10;

fn slot_of(at: SimTime) -> u64 {
    at.as_secs() >> BUCKET_BITS
}

/// The event loop's priority queue: a two-level calendar queue that pops
/// events in exactly `(at, seq)` order — globally identical to a binary
/// heap — but touches only the 64-second slot under the cursor on the
/// hot path.
///
/// * `active` holds the slot currently draining, sorted *descending* by
///   `(at, seq)` so the next event pops from the back in O(1);
/// * `near` is a ring of unsorted slot buckets covering the next
///   `NUM_BUCKETS` slots — a push is an O(1) append, and a slot is
///   sorted once, when the cursor reaches it;
/// * `far` is a binary heap for events beyond the window (multi-day
///   drain deadlines, horizon-scale dynamics). The invariant — `far`
///   holds only slots `>= cursor + NUM_BUCKETS` — is restored by
///   [`EventHeap::migrate_far`] after every cursor movement, so an event
///   can never hide in `far` while its slot drains from `near`.
///
/// Pushing an event at or before the cursor's slot (same-instant
/// requeues) falls back to a sorted insert into `active`, which keeps
/// the pop order exact for arbitrary push patterns.
#[derive(Debug)]
pub(crate) struct EventHeap {
    len: usize,
    /// Slot currently draining; meaningful only while `len > 0`.
    cursor: u64,
    /// Events in slots `<= cursor`, sorted descending by `(at, seq)`.
    active: Vec<Event>,
    /// Ring of unsorted buckets for slots in `(cursor, cursor + NUM_BUCKETS)`,
    /// indexed by `slot % NUM_BUCKETS`. Allocated on first use.
    near: Vec<Vec<Event>>,
    near_len: usize,
    /// Events in slots `>= cursor + NUM_BUCKETS` (earliest-first heap).
    far: BinaryHeap<Event>,
}

impl EventHeap {
    fn new() -> Self {
        EventHeap {
            len: 0,
            cursor: 0,
            active: Vec::new(),
            near: Vec::new(),
            near_len: 0,
            far: BinaryHeap::new(),
        }
    }

    fn push(&mut self, ev: Event) {
        if self.len == 0 {
            self.cursor = slot_of(ev.at);
            self.active.push(ev);
        } else {
            self.place(ev);
        }
        self.len += 1;
    }

    /// Routes one event to active/near/far relative to the current
    /// cursor. Does not touch `len` — callers account for it.
    fn place(&mut self, ev: Event) {
        let slot = slot_of(ev.at);
        if slot <= self.cursor {
            let pos = self
                .active
                .partition_point(|x| (x.at, x.seq) > (ev.at, ev.seq));
            self.active.insert(pos, ev);
        } else if slot - self.cursor < NUM_BUCKETS {
            if self.near.is_empty() {
                self.near = std::iter::repeat_with(Vec::new)
                    .take(NUM_BUCKETS as usize)
                    .collect();
            }
            self.near[(slot % NUM_BUCKETS) as usize].push(ev);
            self.near_len += 1;
        } else {
            self.far.push(ev);
        }
    }

    /// Restores the far invariant after a cursor movement: every far
    /// event whose slot entered the window moves to its near bucket (or
    /// straight into `active` when it landed on the cursor).
    fn migrate_far(&mut self) {
        while let Some(e) = self.far.peek() {
            if slot_of(e.at) - self.cursor >= NUM_BUCKETS {
                break;
            }
            let ev = self.far.pop().expect("peeked event exists");
            self.place(ev);
        }
    }

    /// Advances the cursor until `active` is non-empty (or the queue is
    /// empty): slides slot by slot while near buckets remain, jumps the
    /// window when only far events are left.
    fn settle(&mut self) {
        while self.active.is_empty() && self.len > 0 {
            if self.near_len == 0 {
                // everything left lives in `far`: jump the window to it
                let at = self.far.peek().expect("len > 0 with empty near").at;
                self.cursor = slot_of(at);
                self.migrate_far();
            } else {
                self.cursor += 1;
                self.migrate_far();
                let idx = (self.cursor % NUM_BUCKETS) as usize;
                if !self.near[idx].is_empty() {
                    let mut bucket = std::mem::take(&mut self.near[idx]);
                    self.near_len -= bucket.len();
                    bucket.sort_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                    // swap keeps the drained bucket's allocation for reuse
                    std::mem::swap(&mut self.active, &mut bucket);
                    self.near[idx] = bucket;
                }
            }
        }
    }

    /// The earliest event, in `(at, seq)` order. Takes `&mut self`: the
    /// cursor may need to slide to find it.
    fn peek(&mut self) -> Option<&Event> {
        self.settle();
        self.active.last()
    }

    fn pop(&mut self) -> Option<Event> {
        self.settle();
        let ev = self.active.pop();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// All queued events, in no particular order (snapshots sort).
    fn iter(&self) -> impl Iterator<Item = &Event> {
        self.active
            .iter()
            .chain(self.near.iter().flatten())
            .chain(self.far.iter())
    }
}

impl FromIterator<Event> for EventHeap {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut h = EventHeap::new();
        for ev in iter {
            h.push(ev);
        }
        h
    }
}

fn push(heap: &mut EventHeap, seq: &mut u64, at: SimTime, kind: EventKind) {
    *seq += 1;
    heap.push(Event {
        at,
        seq: *seq,
        kind,
    });
}

/// How a running task left the cluster before finishing. Each exit has
/// its own counter and time series, and the scheduler hears a preemption
/// (which feeds the eviction-rate feedback) apart from hardware churn.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Preempted by the scheduler to make room for another task.
    Evicted,
    /// Its node failed or hit a drain deadline.
    Displaced,
    /// Moved off a draining node, gracefully, inside the notice window.
    Migrated,
}

/// Knocks one running task off the cluster: stales its pending `Finish`
/// via the epoch, carries the checkpointed progress, records it under its
/// [`Exit`]'s counter, notifies the scheduler and schedules the requeue
/// after the grace period. The one task-exit path — requeue semantics
/// must never drift between preemption, forced and graceful exits.
#[allow(clippy::too_many_arguments)] // internal plumbing of the event loop
fn exit_and_requeue(
    exit: Exit,
    id: TaskId,
    priority: Priority,
    preserved: SimDuration,
    now: SimTime,
    cluster: &Cluster,
    scheduler: &mut dyn Scheduler,
    report: &mut SimReport,
    states: &mut [TaskState],
    id_to_idx: &HashMap<TaskId, u32>,
    heap: &mut EventHeap,
    seq: &mut u64,
    requeue_delay: SimDuration,
) {
    let idx = id_to_idx[&id];
    let st = &mut states[idx as usize];
    st.epoch += 1; // the pending Finish is now stale
    st.carried = preserved;
    let rec = &mut report.tasks[st.rec as usize];
    let (count, times) = match exit {
        Exit::Evicted => (&mut rec.evictions, &mut report.eviction_times),
        Exit::Displaced => (&mut rec.displacements, &mut report.displacement_times),
        Exit::Migrated => (&mut rec.migrations, &mut report.migration_times),
    };
    *count += 1;
    times.push(now);
    let event = match exit {
        Exit::Evicted => TaskEvent::Evicted { task: id, at: now },
        Exit::Displaced | Exit::Migrated => TaskEvent::Displaced {
            task: id,
            priority,
            at: now,
        },
    };
    scheduler.on_event(&event, cluster);
    push(heap, seq, now + requeue_delay, EventKind::Requeue(idx));
}

/// Takes `node` out of service (abrupt failure or drain deadline):
/// displaces every pod through [`Cluster::fail_node`], accounts the lost
/// capacity, requeues the victims with their checkpointed progress and
/// notifies the scheduler. Returns `false` (no-op) when the node is down
/// or unknown, so overlapping hand-built schedules degrade gracefully.
#[allow(clippy::too_many_arguments)] // internal plumbing of the event loop
fn apply_node_down(
    node: NodeId,
    now: SimTime,
    cluster: &mut Cluster,
    scheduler: &mut dyn Scheduler,
    report: &mut SimReport,
    states: &mut [TaskState],
    id_to_idx: &HashMap<TaskId, u32>,
    heap: &mut EventHeap,
    seq: &mut u64,
    avail: &mut AvailabilityTracker,
    requeue_delay: SimDuration,
) -> bool {
    let Ok(drained) = cluster.fail_node(node, now) else {
        return false;
    };
    report.node_downs += 1;
    let lost = cluster.nodes()[node.index()].total_gpus();
    avail.change(now, f64::from(lost));
    for d in drained {
        exit_and_requeue(
            Exit::Displaced,
            d.task.spec.id,
            d.task.spec.priority,
            d.preserved,
            now,
            cluster,
            scheduler,
            report,
            states,
            id_to_idx,
            heap,
            seq,
            requeue_delay,
        );
    }
    scheduler.on_event(
        &TaskEvent::NodeDown {
            node,
            lost_gpus: lost,
            at: now,
        },
        cluster,
    );
    true
}

/// An admission accepted by the service — the unit the write-ahead
/// journal records *before* the service applies it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmittedEvent {
    /// [`ClusterService::start`] was called: the sample/tick chains and
    /// the configured dynamics timeline were armed.
    Start,
    /// A batch of task arrivals.
    Tasks(Vec<TaskSpec>),
    /// A cluster-dynamics plan admitted mid-run.
    Plan(DynamicsPlan),
}

/// One write-ahead journal record: an admission, its strictly-increasing
/// sequence number, the position in the run it was admitted at (simulated
/// time plus the processed-batch count — the unambiguous replay anchor),
/// and a self-checking FNV-1a checksum over `seq|at|steps|event`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Strictly-increasing admission number.
    pub seq: u64,
    /// Simulated time of the admission.
    pub at: SimTime,
    /// Event batches the service had processed when the admission
    /// happened. Time alone is ambiguous (an admission "at t" may precede
    /// or follow the batch at t); the batch count pins the interleaving
    /// exactly, so replay is deterministic.
    pub steps: u64,
    /// FNV-1a over the canonical `seq|at|steps|event` encoding.
    pub crc: u64,
    /// The admission itself.
    pub event: AdmittedEvent,
}

fn record_crc(seq: u64, at: SimTime, steps: u64, event: &AdmittedEvent) -> u64 {
    let mut body = String::new();
    seq.serialize_json(&mut body);
    body.push('|');
    at.serialize_json(&mut body);
    body.push('|');
    steps.serialize_json(&mut body);
    body.push('|');
    event.serialize_json(&mut body);
    fnv1a(body.as_bytes())
}

impl JournalRecord {
    /// Builds a record for `event` admitted at `(seq, at, steps)`,
    /// computing the checksum.
    #[must_use]
    pub fn new(seq: u64, at: SimTime, steps: u64, event: AdmittedEvent) -> Self {
        let crc = record_crc(seq, at, steps, &event);
        JournalRecord {
            seq,
            at,
            steps,
            crc,
            event,
        }
    }

    /// Whether the stored checksum matches the record's content.
    #[must_use]
    pub fn checksum_ok(&self) -> bool {
        record_crc(self.seq, self.at, self.steps, &self.event) == self.crc
    }
}

/// Why a journal suffix was rejected during recovery. The valid prefix
/// before the offending line is always applied; nothing at or after it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The final record does not parse — the classic torn tail of a crash
    /// mid-append.
    Truncated {
        /// 1-based journal line of the torn record.
        line: usize,
    },
    /// A record in the middle fails to parse, or any record fails its
    /// checksum: the journal was damaged, not merely torn.
    Corrupt {
        /// 1-based journal line of the damaged record.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A record's sequence number does not strictly increase — a
    /// duplicated or reordered append.
    DuplicateSeq {
        /// 1-based journal line of the offending record.
        line: usize,
        /// The non-increasing sequence number found there.
        seq: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Truncated { line } => {
                write!(f, "journal truncated at line {line}")
            }
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::DuplicateSeq { line, seq } => {
                write!(f, "journal line {line} repeats sequence number {seq}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Parses a JSONL journal into its longest valid prefix. Returns the
/// parsed records plus the error that stopped parsing, if any: a parse
/// failure on the *last* line is [`JournalError::Truncated`] (a torn
/// append), anywhere else — or any checksum mismatch — is
/// [`JournalError::Corrupt`], and a non-increasing sequence number is
/// [`JournalError::DuplicateSeq`].
#[must_use]
pub fn parse_journal(text: &str) -> (Vec<JournalRecord>, Option<JournalError>) {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut last_seq = 0u64;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 1;
        let mut p = serde::de::Parser::new(line);
        let rec = match JournalRecord::deserialize_json(&mut p) {
            Ok(rec) if p.at_end() => rec,
            Ok(_) | Err(_) => {
                let err = if i + 1 == lines.len() {
                    JournalError::Truncated { line: line_no }
                } else {
                    JournalError::Corrupt {
                        line: line_no,
                        reason: "unparseable record".to_string(),
                    }
                };
                return (out, Some(err));
            }
        };
        if !rec.checksum_ok() {
            return (
                out,
                Some(JournalError::Corrupt {
                    line: line_no,
                    reason: "checksum mismatch".to_string(),
                }),
            );
        }
        if rec.seq <= last_seq {
            return (
                out,
                Some(JournalError::DuplicateSeq {
                    line: line_no,
                    seq: rec.seq,
                }),
            );
        }
        last_seq = rec.seq;
        out.push(rec);
    }
    (out, None)
}

/// The in-memory write-ahead journal: JSONL text plus the last sequence
/// number appended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    text: String,
    seq: u64,
}

impl Journal {
    fn with_seq(seq: u64) -> Self {
        Journal {
            text: String::new(),
            seq,
        }
    }

    fn append(&mut self, at: SimTime, steps: u64, event: &AdmittedEvent) -> u64 {
        self.seq += 1;
        let rec = JournalRecord::new(self.seq, at, steps, event.clone());
        self.append_record(&rec);
        self.seq
    }

    fn append_record(&mut self, rec: &JournalRecord) {
        rec.serialize_json(&mut self.text);
        self.text.push('\n');
        self.seq = rec.seq;
    }

    /// The journal as JSONL text (what would sit on durable storage).
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The last sequence number appended.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.seq
    }
}

/// Outcome of [`ClusterService::replay_journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// Records applied (suffix records past the snapshot's counter).
    pub applied: usize,
    /// Records skipped because the snapshot already contained them.
    pub skipped: usize,
    /// The tail error that stopped parsing, if the journal was damaged.
    /// Everything before the offending line was still applied.
    pub rejected: Option<JournalError>,
}

/// Why [`ClusterService::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The JSON did not parse as a [`ServiceSnapshot`].
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

    /// Rejects task indices that point past the task table — in the
    /// pending queue or in a heap event — and a task-state table of the
    /// wrong length: a damaged snapshot, not an index for the next
    /// [`ClusterService::step`] to trip over.
    fn check_task_indices(&self) -> Result<(), RestoreError> {
        let n = self.specs.len();
        if self.states.len() != n {
            return Err(RestoreError::Parse(format!(
                "{} task states for {n} admitted tasks",
                self.states.len()
            )));
        }
        let in_events = self.events.iter().filter_map(|e| match e.kind {
            EventKind::Submit(i) | EventKind::Requeue(i) | EventKind::Finish { task: i, .. } => {
                Some(i)
            }
            _ => None,
        });
        let mut named = self.pending.iter().copied().chain(in_events);
        match named.find(|&i| i as usize >= n) {
            Some(i) => Err(RestoreError::Parse(format!(
                "task {i} was never admitted ({n} tasks)"
            ))),
            None => Ok(()),
        }
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

/// The engine's event loop as a long-running, crash-safe object — see
/// the [module docs](self) for the lifecycle, snapshot format, journal
/// layout and recovery protocol.
#[derive(Debug)]
pub struct ClusterService {
    cfg: SimConfig,
    cluster: Cluster,
    report: SimReport,
    heap: EventHeap,
    seq: u64,
    specs: Vec<Arc<TaskSpec>>,
    states: Vec<TaskState>,
    id_to_idx: HashMap<TaskId, u32>,
    pending: PendingQueue,
    unfinished: usize,
    avail: AvailabilityTracker,
    now: SimTime,
    /// Event batches processed so far — the replay anchor journal records
    /// are pinned to.
    steps: u64,
    started: bool,
    journal: Option<Journal>,
    journal_seq: u64,
    /// Reused same-timestamp batch buffer (always empty between steps).
    batch_scratch: Vec<Event>,
}

/// Clusters at or above this node count get *bounded* per-node sample
/// series: below it, every sample is retained (small runs keep full
/// fidelity and historical reports stay byte-identical).
const NODE_SAMPLE_BOUND_THRESHOLD: usize = 2048;
/// Target retained samples per node row on bounded clusters. Stride
/// doubling keeps each row within roughly `[CAP/2, CAP]` entries.
const NODE_SAMPLE_CAP: u64 = 256;

/// Downsampling stride for per-node series at sample ordinal `o` (a pure
/// function of serialized state, so bounded sampling survives
/// snapshot/restore): doubles every time the retained count would exceed
/// [`NODE_SAMPLE_CAP`].
fn node_sample_stride(ordinal: u64) -> u64 {
    (ordinal / NODE_SAMPLE_CAP + 1).next_power_of_two()
}

impl ClusterService {
    /// Creates an idle service over `cluster`: nothing admitted, nothing
    /// armed, journal disabled (enable with
    /// [`ClusterService::enable_journal`] before admitting).
    #[must_use]
    pub fn new(cluster: Cluster, cfg: SimConfig) -> Self {
        let report = SimReport {
            node_alloc_samples: if cfg.record_node_alloc {
                vec![Vec::new(); cluster.nodes().len()]
            } else {
                Vec::new()
            },
            ..SimReport::default()
        };
        let avail = AvailabilityTracker::new(cluster.static_capacity(None));
        ClusterService {
            cfg,
            cluster,
            report,
            heap: EventHeap::new(),
            seq: 0,
            specs: Vec::new(),
            states: Vec::new(),
            id_to_idx: HashMap::new(),
            pending: PendingQueue::default(),
            unfinished: 0,
            avail,
            now: SimTime::ZERO,
            steps: 0,
            started: false,
            journal: None,
            journal_seq: 0,
            batch_scratch: Vec::new(),
        }
    }

    /// Current simulated time (the last processed batch's timestamp).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether [`ClusterService::start`] has run.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Tasks admitted but not yet finished.
    #[must_use]
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Event batches processed so far — the monotonic counter journal
    /// records anchor replay to. Harnesses use it to place admissions and
    /// crashes at reproducible batch boundaries.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Counters over the scheduling passes run so far by *this* object
    /// (a restored service starts from zero): pure observation, outside
    /// every snapshot, state hash and report.
    #[must_use]
    pub fn pass_stats(&self) -> PassStats {
        self.pending.stats()
    }

    /// The live cluster state.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The report as accumulated so far (tail accrual happens in
    /// [`ClusterService::finish`]).
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Records capacity-market cost totals into the report (absolute
    /// values, so checkpointing the same meter twice is idempotent).
    /// Market drivers (`gfs_market`) call this at every decision
    /// boundary; because the report rides the service snapshot, the
    /// accumulators survive a crash and a recovered driver resumes the
    /// integral instead of restarting it.
    pub fn record_market_costs(
        &mut self,
        gpu_hours_bought: f64,
        spend_usd: f64,
        stranded_gpu_hours: f64,
    ) {
        self.report.gpu_hours_bought = gpu_hours_bought;
        self.report.market_spend_usd = spend_usd;
        self.report.stranded_gpu_hours = stranded_gpu_hours;
    }

    /// Turns on the write-ahead journal; admissions from here on are
    /// journaled before they are applied. On a freshly-restored service
    /// the journal continues from the snapshot's admission counter.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Journal::with_seq(self.journal_seq));
        }
    }

    /// The write-ahead journal, when enabled.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    fn journal_admission(&mut self, event: &AdmittedEvent) {
        if let Some(j) = &mut self.journal {
            self.journal_seq = j.append(self.now, self.steps, event);
        } else {
            self.journal_seq += 1;
        }
    }

    /// Admits a batch of task arrivals (write-ahead journaled, then
    /// applied). Submissions in the past clamp to the current instant.
    pub fn admit_tasks(&mut self, tasks: Vec<TaskSpec>) {
        let ev = AdmittedEvent::Tasks(tasks);
        self.journal_admission(&ev);
        self.apply_admission(ev);
    }

    /// Admits a cluster-dynamics plan mid-run (write-ahead journaled,
    /// then applied). Events in the past clamp to the current instant.
    pub fn admit_plan(&mut self, plan: &DynamicsPlan) {
        let ev = AdmittedEvent::Plan(plan.clone());
        self.journal_admission(&ev);
        self.apply_admission(ev);
    }

    /// Arms the sample/tick chains and the configured dynamics timeline
    /// (write-ahead journaled, then applied). Call once, after the
    /// initial admissions; sequence numbers then reproduce the batch
    /// engine exactly.
    pub fn start(&mut self) {
        let ev = AdmittedEvent::Start;
        self.journal_admission(&ev);
        self.apply_admission(ev);
    }

    fn apply_admission(&mut self, ev: AdmittedEvent) {
        match ev {
            AdmittedEvent::Start => {
                if self.started {
                    return; // replay tolerance: arming twice is a no-op
                }
                self.started = true;
                push(&mut self.heap, &mut self.seq, self.now, EventKind::Sample);
                push(
                    &mut self.heap,
                    &mut self.seq,
                    self.now + self.cfg.tick_interval_secs,
                    EventKind::Tick,
                );
                // dynamics events enqueue last so an empty plan leaves
                // every sequence number — and therefore every scheduling
                // outcome — untouched
                let plan = std::mem::take(&mut self.cfg.dynamics);
                self.push_plan(&plan);
                self.cfg.dynamics = plan;
            }
            AdmittedEvent::Tasks(tasks) => {
                for t in tasks {
                    let at = t.submit_at.max(self.now);
                    let i = self.specs.len() as u32;
                    let spec = Arc::new(t);
                    self.id_to_idx.insert(spec.id, i);
                    self.specs.push(spec);
                    self.states.push(TaskState::default());
                    self.unfinished += 1;
                    push(&mut self.heap, &mut self.seq, at, EventKind::Submit(i));
                }
            }
            AdmittedEvent::Plan(plan) => self.push_plan(&plan),
        }
    }

    fn push_plan(&mut self, plan: &DynamicsPlan) {
        for ev in plan.events() {
            let kind = match ev.kind {
                ClusterEventKind::NodeDown => EventKind::NodeDown(ev.node),
                ClusterEventKind::NodeUp => EventKind::NodeUp(ev.node),
                ClusterEventKind::Drain { notice_secs } => EventKind::Drain {
                    node: ev.node,
                    notice: notice_secs,
                },
                ClusterEventKind::AddNode { group } => EventKind::AddNode {
                    model: group.model,
                    gpus: group.gpus,
                },
            };
            push(&mut self.heap, &mut self.seq, ev.at.max(self.now), kind);
        }
    }

    /// Processes one batch of same-timestamp events plus the scheduling
    /// pass that follows it. Returns `false` without touching the heap
    /// when there is nothing (or nothing admissible) left: the heap is
    /// empty, every task finished, or the next event lies past the
    /// configured horizon (the clock then parks at the horizon).
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        let Some(head_at) = self.heap.peek().map(|e| e.at) else {
            return false;
        };
        if self.unfinished == 0 {
            return false;
        }
        if let Some(limit) = self.cfg.max_time_secs.map(SimTime::from_secs) {
            if head_at > limit {
                self.now = limit;
                return false;
            }
        }
        let ev = self.heap.pop().expect("peeked event exists");
        self.now = ev.at;
        let now = self.now;
        let mut dirty = false;

        // process the entire same-timestamp batch before scheduling
        // (scratch buffer: always drained back empty at the end of step)
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.push(ev);
        while let Some(next) = self.heap.peek() {
            if next.at == now {
                batch.push(self.heap.pop().expect("peeked event exists"));
            } else {
                break;
            }
        }

        for ev in batch.drain(..) {
            match ev.kind {
                EventKind::Submit(i) => {
                    let spec = &self.specs[i as usize];
                    let id = spec.id;
                    self.states[i as usize].rec = self.report.tasks.len() as u32;
                    self.states[i as usize].enqueue = now;
                    self.report.tasks.push(TaskRecord {
                        id,
                        priority: spec.priority,
                        org: spec.org,
                        total_gpus: spec.total_gpus(),
                        pods: spec.pods,
                        work_secs: spec.duration_secs,
                        submit: now,
                        first_start: None,
                        finish: None,
                        queued_secs: 0,
                        runs: 0,
                        evictions: 0,
                        displacements: 0,
                        migrations: 0,
                    });
                    scheduler.on_event(
                        &TaskEvent::Submitted {
                            task: id,
                            priority: spec.priority,
                            at: now,
                        },
                        &self.cluster,
                    );
                    self.pending.enqueue(i, &self.specs, scheduler);
                    dirty = true;
                }
                EventKind::Finish { task, epoch } => {
                    let st = &mut self.states[task as usize];
                    if st.epoch != epoch {
                        continue; // stale: the run was preempted
                    }
                    let id = self.specs[task as usize].id;
                    if self.cluster.running_task(id).is_none() {
                        continue;
                    }
                    let rt = self
                        .cluster
                        .finish_task(id, now)
                        .expect("task verified running");
                    st.carried = 0; // progress state dies with the task
                    let rec = &mut self.report.tasks[st.rec as usize];
                    rec.finish = Some(now);
                    self.unfinished -= 1;
                    scheduler.on_event(
                        &TaskEvent::Finished {
                            task: id,
                            priority: rt.spec.priority,
                            at: now,
                        },
                        &self.cluster,
                    );
                    dirty = true;
                }
                EventKind::Requeue(task) => {
                    self.states[task as usize].enqueue = now;
                    self.pending.enqueue(task, &self.specs, scheduler);
                    dirty = true;
                }
                EventKind::Tick => {
                    scheduler.on_tick(now, &self.cluster);
                    if self.unfinished > 0 {
                        push(
                            &mut self.heap,
                            &mut self.seq,
                            now + self.cfg.tick_interval_secs,
                            EventKind::Tick,
                        );
                    }
                    dirty = true;
                }
                EventKind::NodeDown(node) => {
                    // a down/unknown node makes the event a no-op, so
                    // overlapping hand-built schedules degrade gracefully
                    dirty |= apply_node_down(
                        node,
                        now,
                        &mut self.cluster,
                        scheduler,
                        &mut self.report,
                        &mut self.states,
                        &self.id_to_idx,
                        &mut self.heap,
                        &mut self.seq,
                        &mut self.avail,
                        self.cfg.requeue_delay_secs,
                    );
                }
                EventKind::NodeUp(node) => {
                    // an Up for a draining node cancels the drain (its
                    // capacity never left the availability accounting)
                    let was_down = self.cluster.node(node).ok().is_some_and(|n| !n.is_up());
                    if self.cluster.restore_node(node, now).is_err() {
                        continue; // already up / unknown: no-op
                    }
                    self.report.node_ups += 1;
                    let restored = self.cluster.nodes()[node.index()].total_gpus();
                    if was_down {
                        self.avail.change(now, -f64::from(restored));
                    }
                    scheduler.on_event(
                        &TaskEvent::NodeUp {
                            node,
                            restored_gpus: restored,
                            at: now,
                        },
                        &self.cluster,
                    );
                    dirty = true;
                }
                EventKind::Drain { node, notice } => {
                    let deadline = now + notice;
                    if self.cluster.drain_node(node, deadline).is_err() {
                        continue; // down / unknown / already draining: no-op
                    }
                    self.report.node_drains += 1;
                    // the scheduler chooses per gang: migrate now —
                    // gracefully, with checkpointed progress — or ride out
                    // the window (finish in place, or checkpoint until the
                    // forced deadline). The default Scheduler::drain_decision
                    // reproduces the historical rule (migrate exactly the
                    // gangs that cannot finish inside the window);
                    // ascending id order via the ordered running registry
                    let to_move: Vec<TaskId> = self
                        .cluster
                        .running()
                        .filter(|rt| rt.placements.iter().any(|p| p.node == node))
                        .filter(|rt| {
                            scheduler.drain_decision(rt, notice, &self.cluster, now)
                                == gfs_cluster::DrainDecision::Migrate
                        })
                        .map(|rt| rt.spec.id)
                        .collect();
                    for id in to_move {
                        let (rt, preserved) = self
                            .cluster
                            .migrate_task(id, now)
                            .expect("collected from the registry");
                        exit_and_requeue(
                            Exit::Migrated,
                            id,
                            rt.spec.priority,
                            preserved,
                            now,
                            &self.cluster,
                            scheduler,
                            &mut self.report,
                            &mut self.states,
                            &self.id_to_idx,
                            &mut self.heap,
                            &mut self.seq,
                            self.cfg.requeue_delay_secs,
                        );
                    }
                    scheduler.on_event(
                        &TaskEvent::DrainNotice {
                            node,
                            deadline,
                            at: now,
                        },
                        &self.cluster,
                    );
                    push(
                        &mut self.heap,
                        &mut self.seq,
                        deadline,
                        EventKind::DrainDeadline(node),
                    );
                    dirty = true;
                }
                EventKind::DrainDeadline(node) => {
                    // fires only for a drain still in progress with this
                    // exact deadline: an Up inside the window cancelled
                    // it, a re-drain armed a different deadline
                    let armed = self
                        .cluster
                        .node(node)
                        .ok()
                        .is_some_and(|n| n.drain_deadline() == Some(now));
                    if !armed {
                        continue;
                    }
                    dirty |= apply_node_down(
                        node,
                        now,
                        &mut self.cluster,
                        scheduler,
                        &mut self.report,
                        &mut self.states,
                        &self.id_to_idx,
                        &mut self.heap,
                        &mut self.seq,
                        &mut self.avail,
                        self.cfg.requeue_delay_secs,
                    );
                }
                EventKind::AddNode { model, gpus } => {
                    let node = self.cluster.add_node(model, gpus);
                    self.report.nodes_added += 1;
                    self.report.gpus_added += u64::from(gpus);
                    self.avail.add_static(now, f64::from(gpus));
                    if self.cfg.record_node_alloc {
                        // pad the new node's series so every row shares one
                        // time origin (zero allocated before it existed)
                        let len = self.report.node_alloc_samples.first().map_or(0, Vec::len);
                        self.report.node_alloc_samples.push(vec![0.0; len]);
                    }
                    scheduler.on_event(
                        &TaskEvent::NodeAdded {
                            node,
                            added_gpus: gpus,
                            at: now,
                        },
                        &self.cluster,
                    );
                    dirty = true;
                }
                EventKind::Sample => {
                    let cap = self.cluster.capacity(None).max(1.0);
                    self.report.alloc_samples.push(AllocSample {
                        at: now,
                        total: self.cluster.allocation_rate(None),
                        hp: self.cluster.hp_allocated(None) / cap,
                        spot: self.cluster.spot_allocated(None) / cap,
                    });
                    if self.cfg.record_node_alloc {
                        self.record_node_samples();
                    }
                    if self.unfinished > 0 {
                        push(
                            &mut self.heap,
                            &mut self.seq,
                            now + self.cfg.alloc_sample_interval_secs,
                            EventKind::Sample,
                        );
                    }
                }
            }
        }
        self.batch_scratch = batch;

        if dirty && !self.pending.is_empty() {
            self.scheduling_pass(scheduler);
        }
        self.steps += 1;
        true
    }

    /// Appends one per-node allocation sample per row. Small clusters
    /// retain every sample; at or above [`NODE_SAMPLE_BOUND_THRESHOLD`]
    /// nodes the series is stride-downsampled (and compacted in place
    /// whenever the stride doubles), bounding every row near
    /// [`NODE_SAMPLE_CAP`] entries regardless of run length. The
    /// keep/skip decision depends only on serialized state (the fleet
    /// sample count and the row count), so it is snapshot-safe. A
    /// cluster that *grows past* the threshold mid-run keeps its already
    /// dense prefix and simply samples sparsely from there on.
    fn record_node_samples(&mut self) {
        if self.report.node_alloc_samples.len() >= NODE_SAMPLE_BOUND_THRESHOLD {
            let ordinal = (self.report.alloc_samples.len().max(1) - 1) as u64;
            let stride = node_sample_stride(ordinal);
            if ordinal > 0 && stride != node_sample_stride(ordinal - 1) {
                // stride doubled: keep every other retained sample
                for row in &mut self.report.node_alloc_samples {
                    let mut keep = 0;
                    let mut i = 0;
                    while i < row.len() {
                        row[keep] = row[i];
                        keep += 1;
                        i += 2;
                    }
                    row.truncate(keep);
                }
            }
            if !ordinal.is_multiple_of(stride) {
                return;
            }
        }
        for (i, n) in self.cluster.nodes().iter().enumerate() {
            self.report.node_alloc_samples[i].push(n.allocated());
        }
    }

    /// One scheduling pass: [`PendingQueue::pass`] picks whom to offer,
    /// this commits what the scheduler decides.
    fn scheduling_pass(&mut self, scheduler: &mut dyn Scheduler) {
        let ClusterService {
            cfg,
            cluster,
            report,
            heap,
            seq,
            specs,
            states,
            id_to_idx,
            pending,
            now,
            ..
        } = self;
        let now = *now;
        pending.pass(specs, scheduler, |scheduler, idx| {
            let task = &specs[idx as usize];
            let Some(decision) = scheduler.schedule(task, cluster, now) else {
                return Offer::Refused;
            };
            for victim in &decision.preemptions {
                match cluster.evict_task(*victim, now) {
                    Ok((rt, preserved)) => exit_and_requeue(
                        Exit::Evicted,
                        *victim,
                        rt.spec.priority,
                        preserved,
                        now,
                        cluster,
                        scheduler,
                        report,
                        states,
                        id_to_idx,
                        heap,
                        seq,
                        cfg.requeue_delay_secs,
                    ),
                    Err(_) => report.failed_commits += 1,
                }
            }
            let carry = states[idx as usize].carried;
            if cluster
                .start_task(Arc::clone(task), &decision.pod_nodes, now, carry)
                .is_err()
            {
                report.failed_commits += 1;
                return Offer::Failed;
            }
            let st = &mut states[idx as usize];
            st.epoch += 1;
            let epoch = st.epoch;
            let remaining = task.duration_secs.saturating_sub(carry).max(1);
            push(
                heap,
                seq,
                now + remaining,
                EventKind::Finish { task: idx, epoch },
            );
            let queued = now.since(st.enqueue);
            let rec = &mut report.tasks[st.rec as usize];
            rec.queued_secs += queued;
            rec.runs += 1;
            if rec.first_start.is_none() {
                rec.first_start = Some(now);
            }
            if task.priority.is_spot() {
                report.spot_start_times.push(now);
            }
            scheduler.on_event(
                &TaskEvent::Started {
                    task: task.id,
                    priority: task.priority,
                    queued_secs: queued,
                    at: now,
                },
                cluster,
            );
            Offer::Started {
                preemptive: !decision.preemptions.is_empty(),
            }
        });
    }

    /// Steps until the next event lies strictly after `t` (or the run
    /// ends). After this, admissions happen "at `t`" in the journal's
    /// sense — the replay protocol reproduces exactly this call.
    pub fn run_until(&mut self, t: SimTime, scheduler: &mut dyn Scheduler) {
        while self.heap.peek().is_some_and(|e| e.at <= t) {
            if !self.step(scheduler) {
                break;
            }
        }
    }

    /// Steps until nothing remains: every task finished, the heap
    /// drained, or the horizon reached.
    pub fn run_to_end(&mut self, scheduler: &mut dyn Scheduler) {
        while self.step(scheduler) {}
    }

    /// Consumes the service and closes the report: tasks still queued
    /// accrue waiting time up to `now`, the availability integral closes,
    /// and the makespan is stamped.
    #[must_use]
    pub fn finish(self) -> SimReport {
        let mut report = self.report;
        for idx in self.pending.tasks() {
            let st = &self.states[idx as usize];
            report.tasks[st.rec as usize].queued_secs += self.now.since(st.enqueue);
        }
        report.unavailability = self.avail.unavailability(self.now);
        report.makespan = self.now;
        report
    }

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
        let mut out = String::new();
        out.push_str("{\"version\":");
        SNAPSHOT_VERSION.serialize_json(&mut out);
        out.push_str(",\"cfg\":");
        self.cfg.serialize_json(&mut out);
        out.push_str(",\"cluster\":");
        self.cluster.snapshot_json_into(&mut out);
        out.push_str(",\"report\":");
        self.report.serialize_json(&mut out);
        out.push_str(",\"events\":");
        let mut events: Vec<&Event> = self.heap.iter().collect();
        events.sort_by(|a, b| a.at.cmp(&b.at).then(a.seq.cmp(&b.seq)));
        events.serialize_json(&mut out);
        out.push_str(",\"seq\":");
        self.seq.serialize_json(&mut out);
        out.push_str(",\"specs\":[");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            (**s).serialize_json(&mut out);
        }
        out.push_str("],\"states\":");
        self.states.serialize_json(&mut out);
        out.push_str(",\"pending\":");
        self.pending
            .merged(&self.specs, scheduler)
            .serialize_json(&mut out);
        out.push_str(",\"unfinished\":");
        (self.unfinished as u64).serialize_json(&mut out);
        out.push_str(",\"avail\":");
        self.avail.serialize_json(&mut out);
        out.push_str(",\"now\":");
        self.now.serialize_json(&mut out);
        out.push_str(",\"steps\":");
        self.steps.serialize_json(&mut out);
        out.push_str(",\"started\":");
        self.started.serialize_json(&mut out);
        out.push_str(",\"journal_seq\":");
        self.journal_seq.serialize_json(&mut out);
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
    /// [`RestoreError::Parse`] when a task index (pending queue, heap
    /// event) points past the task table or the task states do not match
    /// it; [`RestoreError::SchedulerState`] when the scheduler and the
    /// snapshot disagree about saved state (wrong scheduler for the
    /// snapshot, or a corrupted blob).
    pub fn restore(
        snap: ServiceSnapshot,
        scheduler: &mut dyn Scheduler,
    ) -> Result<Self, RestoreError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(RestoreError::Version {
                found: snap.version,
            });
        }
        snap.check_task_indices()?;
        match &snap.scheduler {
            Some(blob) => {
                if !scheduler.restore_state(blob) {
                    return Err(RestoreError::SchedulerState);
                }
            }
            None => {
                if scheduler.save_state().is_some() {
                    // a stateful scheduler paired with a stateless
                    // snapshot: the factory and the snapshot disagree
                    return Err(RestoreError::SchedulerState);
                }
            }
        }
        let specs: Vec<Arc<TaskSpec>> = snap.specs.into_iter().map(Arc::new).collect();
        // the snapshot stores the merged order; the classes are the
        // restoring scheduler's to declare
        let pending = PendingQueue::from_merged(&snap.pending, &specs, scheduler);
        let id_to_idx: HashMap<TaskId, u32> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i as u32))
            .collect();
        Ok(ClusterService {
            cfg: snap.cfg,
            cluster: Cluster::from_snapshot(snap.cluster),
            report: snap.report,
            heap: snap.events.into_iter().collect(),
            seq: snap.seq,
            specs,
            states: snap.states,
            id_to_idx,
            pending,
            unfinished: snap.unfinished as usize,
            avail: snap.avail,
            now: snap.now,
            steps: snap.steps,
            started: snap.started,
            journal: None,
            journal_seq: snap.journal_seq,
            batch_scratch: Vec::new(),
        })
    }

    /// Replays a journal against this service: records already folded
    /// into the restoring snapshot (`seq ≤` the snapshot's counter) are
    /// skipped; each remaining record advances the run to the batch count
    /// it was admitted at and re-applies the admission — reproducing the
    /// original interleaving exactly. A damaged tail is rejected — the
    /// valid prefix is applied, the error is reported in
    /// [`JournalReplay::rejected`]. When this service's own journal is
    /// enabled, applied records are re-appended verbatim so the journal
    /// stays continuous across the recovery.
    pub fn replay_journal(&mut self, text: &str, scheduler: &mut dyn Scheduler) -> JournalReplay {
        let (records, rejected) = parse_journal(text);
        let mut applied = 0;
        let mut skipped = 0;
        for rec in records {
            if rec.seq <= self.journal_seq {
                skipped += 1;
                continue;
            }
            while self.steps < rec.steps {
                if !self.step(scheduler) {
                    break;
                }
            }
            if let Some(j) = &mut self.journal {
                j.append_record(&rec);
            }
            self.journal_seq = rec.seq;
            self.apply_admission(rec.event);
            applied += 1;
        }
        JournalReplay {
            applied,
            skipped,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_cluster::Decision;
    use gfs_types::{ClusterEvent, GpuDemand, Priority};

    /// Minimal first-fit policy (stateless) to exercise the service.
    struct FirstFit;

    impl Scheduler for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }

        fn schedule(
            &mut self,
            task: &TaskSpec,
            cluster: &Cluster,
            _now: SimTime,
        ) -> Option<Decision> {
            let need = task.gpus_per_pod.whole_cards().unwrap_or(1);
            let candidates = cluster.whole_fit_candidates(task.gpu_model, need);
            let mut budget: HashMap<NodeId, u32> = HashMap::new();
            let mut nodes = Vec::with_capacity(task.pods as usize);
            for _ in 0..task.pods {
                let slot = candidates
                    .iter()
                    .map(|&id| (NodeId::new(id), &cluster.nodes()[id as usize]))
                    .find(|(id, n)| {
                        budget.get(id).copied().unwrap_or_else(|| n.idle_gpus()) >= need
                    })
                    .map(|(id, _)| id)?;
                let entry = budget
                    .entry(slot)
                    .or_insert_with(|| cluster.nodes()[slot.index()].idle_gpus());
                *entry -= need;
                nodes.push(slot);
            }
            Some(Decision::place(nodes))
        }
    }

    fn task(id: u64, priority: Priority, gpus: u32, dur: u64, submit: u64) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(dur)
            .submit_at(SimTime::from_secs(submit))
            .checkpoint(gfs_types::CheckpointPlan::Periodic { interval: 60 })
            .build()
            .unwrap()
    }

    fn trace(n: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                task(
                    i,
                    if i % 3 == 0 {
                        Priority::Spot
                    } else {
                        Priority::Hp
                    },
                    (i % 4 + 1) as u32,
                    400 + i * 37,
                    i * 55,
                )
            })
            .collect()
    }

    fn churn_cfg() -> SimConfig {
        SimConfig {
            dynamics: DynamicsPlan::new(vec![
                ClusterEvent::down(NodeId::new(0), SimTime::from_secs(700)),
                ClusterEvent::up(NodeId::new(0), SimTime::from_secs(1_900)),
                ClusterEvent::drain(NodeId::new(1), SimTime::from_secs(1_200), 400),
                ClusterEvent::up(NodeId::new(1), SimTime::from_secs(2_500)),
            ])
            .unwrap(),
            ..SimConfig::default()
        }
    }

    fn golden() -> SimReport {
        let mut s = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
        s.admit_tasks(trace(24));
        s.start();
        s.run_to_end(&mut FirstFit);
        s.finish()
    }

    #[test]
    fn service_matches_engine_run() {
        let direct = crate::run(
            Cluster::homogeneous(3, GpuModel::A100, 8),
            &mut FirstFit,
            trace(24),
            &churn_cfg(),
        );
        assert_eq!(golden(), direct);
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical() {
        let mut s = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
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
        let mut s = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
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
    fn crash_at_any_point_replays_to_the_same_report() {
        let golden = golden();
        for crash_after in [1usize, 7, 19, 33, 61] {
            let mut s =
                ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
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
    fn journal_alone_recovers_a_run_from_nothing() {
        // original: journaled admissions, crashes before any snapshot
        let mut s = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
        s.enable_journal();
        s.admit_tasks(trace(24));
        s.start();
        for _ in 0..10 {
            s.step(&mut FirstFit);
        }
        let journal = s.journal().unwrap().text().to_string();
        drop(s); // the crash — no snapshot ever taken

        // recovery: a fresh service + full journal replay
        let mut r = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
        let mut sched = FirstFit;
        let outcome = r.replay_journal(&journal, &mut sched);
        assert_eq!(outcome.applied, 2, "tasks + start");
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.rejected, None);
        r.run_to_end(&mut sched);
        assert_eq!(r.finish(), golden());
    }

    #[test]
    fn snapshot_plus_journal_suffix_recovers_mid_stream_admissions() {
        let seed = trace(16);
        let late: Vec<TaskSpec> = trace(24).split_off(16);
        let late_at = SimTime::from_secs(600);

        // golden: uninterrupted run with a mid-stream admission at 600 s
        let run_golden = || {
            let mut s =
                ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
            s.admit_tasks(seed.clone());
            s.start();
            s.run_until(late_at, &mut FirstFit);
            s.admit_tasks(late.clone());
            s.run_to_end(&mut FirstFit);
            s.finish()
        };

        // journaled original: snapshot early, admit late batch, crash
        let mut s = ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg());
        s.enable_journal();
        s.admit_tasks(seed.clone());
        s.start();
        for _ in 0..5 {
            s.step(&mut FirstFit);
        }
        let snap_json = s.snapshot_json(&FirstFit);
        s.run_until(late_at, &mut FirstFit);
        s.admit_tasks(late.clone());
        for _ in 0..3 {
            s.step(&mut FirstFit);
        }
        let journal = s.journal().unwrap().text().to_string();
        drop(s); // the crash

        let mut sched = FirstFit;
        let mut r =
            ClusterService::restore(ServiceSnapshot::from_json(&snap_json).unwrap(), &mut sched)
                .unwrap();
        let outcome = r.replay_journal(&journal, &mut sched);
        assert_eq!(
            outcome.skipped, 2,
            "seed tasks + start predate the snapshot"
        );
        assert_eq!(outcome.applied, 1, "the late batch replays");
        assert_eq!(outcome.rejected, None);
        r.run_to_end(&mut sched);
        assert_eq!(r.finish(), run_golden());
    }

    #[test]
    fn truncated_journal_tail_is_detected_and_prefix_applied() {
        let mut s = ClusterService::new(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            SimConfig::default(),
        );
        s.enable_journal();
        s.admit_tasks(trace(4));
        s.start();
        let full = s.journal().unwrap().text().to_string();
        // tear the last record mid-line, as a crash mid-append would
        let torn = &full[..full.len() - 9];
        let (records, err) = parse_journal(torn);
        assert_eq!(records.len(), 1, "the first record survives");
        assert_eq!(err, Some(JournalError::Truncated { line: 2 }));

        // recovery still applies the valid prefix
        let mut r = ClusterService::new(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            SimConfig::default(),
        );
        let outcome = r.replay_journal(torn, &mut FirstFit);
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.rejected, Some(JournalError::Truncated { line: 2 }));
        assert!(!r.is_started(), "the torn Start record must not apply");
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let mut s = ClusterService::new(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            SimConfig::default(),
        );
        s.enable_journal();
        s.admit_tasks(trace(4));
        s.start();
        let full = s.journal().unwrap().text().to_string();
        // flip one digit inside the first record's payload (a task id
        // field), keeping the line syntactically valid JSON
        let corrupted = full.replacen("\"pods\":1", "\"pods\":7", 1);
        assert_ne!(corrupted, full, "the pattern must exist to corrupt");
        let (records, err) = parse_journal(&corrupted);
        assert_eq!(records.len(), 0);
        assert_eq!(
            err,
            Some(JournalError::Corrupt {
                line: 1,
                reason: "checksum mismatch".to_string()
            })
        );
    }

    #[test]
    fn duplicate_sequence_numbers_are_rejected() {
        let mut s = ClusterService::new(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            SimConfig::default(),
        );
        s.enable_journal();
        s.admit_tasks(trace(2));
        let line = s.journal().unwrap().text().to_string();
        let doubled = format!("{line}{line}");
        let (records, err) = parse_journal(&doubled);
        assert_eq!(records.len(), 1);
        assert_eq!(err, Some(JournalError::DuplicateSeq { line: 2, seq: 1 }));
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
        // event — or a state table of the wrong length is a damaged
        // snapshot, not an index to trip over in the next step
        let mut state = String::new();
        TaskState::default().serialize_json(&mut state);
        for (from, to) in [
            ("\"pending\":[]", "\"pending\":[7]".to_string()),
            ("{\"Submit\":0}", "{\"Submit\":7}".to_string()),
            ("{\"Submit\":0}", "{\"Requeue\":7}".to_string()),
            (
                "{\"Submit\":0}",
                "{\"Finish\":{\"task\":7,\"epoch\":0}}".to_string(),
            ),
            ("\"states\":[", format!("\"states\":[{state},")),
        ] {
            let damaged = json.replacen(from, &to, 1);
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
    }

    #[test]
    fn event_heap_pops_in_binary_heap_order() {
        // adversarial interleaving of pushes (near / mid / far / past /
        // same-instant) and pops, cross-checked against a plain binary
        // heap; a fixed LCG keeps it deterministic
        let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
        let mut rnd = move |m: u64| {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) % m
        };
        let mut calendar = EventHeap::new();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut base = 0u64;
        for seq in 0..20_000u64 {
            let op = rnd(3);
            if op < 2 {
                let at = match rnd(4) {
                    0 => base + rnd(128),               // active / near slots
                    1 => base + rnd(50_000),            // inside the window
                    2 => base + 70_000 + rnd(1 << 21),  // far heap
                    _ => base.saturating_sub(rnd(200)), // at or before cursor
                };
                let ev = Event {
                    at: SimTime::from_secs(at),
                    seq,
                    kind: EventKind::Tick,
                };
                calendar.push(ev.clone());
                reference.push(ev);
            } else {
                let got = calendar.pop();
                let want = reference.pop();
                assert_eq!(got, want);
                if let Some(e) = got {
                    base = e.at.as_secs();
                }
            }
        }
        loop {
            let got = calendar.pop();
            let want = reference.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn event_heap_iter_round_trips_through_snapshot_order() {
        let mut h = EventHeap::new();
        let mut seq = 0u64;
        for &t in &[5u64, 5, 100_000, 3, 70_000, 0, 1 << 22] {
            push(&mut h, &mut seq, SimTime::from_secs(t), EventKind::Tick);
        }
        let mut events: Vec<Event> = h.iter().cloned().collect();
        events.sort_by(|a, b| a.at.cmp(&b.at).then(a.seq.cmp(&b.seq)));
        let mut rebuilt: EventHeap = events.clone().into_iter().collect();
        for want in events {
            assert_eq!(rebuilt.pop(), Some(want));
        }
        assert_eq!(rebuilt.pop(), None);
    }

    #[test]
    fn node_sample_stride_doubles_and_bounds_the_series() {
        assert_eq!(node_sample_stride(0), 1);
        assert_eq!(node_sample_stride(255), 1);
        assert_eq!(node_sample_stride(256), 2);
        assert_eq!(node_sample_stride(511), 2);
        assert_eq!(node_sample_stride(512), 4);
        assert_eq!(node_sample_stride(2048), 16);
        // simulate the retention loop: the retained count never exceeds
        // CAP + 1, and every transition compacts to exactly half
        let mut row: Vec<u64> = Vec::new();
        for o in 0..100_000u64 {
            let stride = node_sample_stride(o);
            if o > 0 && stride != node_sample_stride(o - 1) {
                let mut keep = 0;
                let mut i = 0;
                while i < row.len() {
                    row[keep] = row[i];
                    keep += 1;
                    i += 2;
                }
                row.truncate(keep);
            }
            if o % stride == 0 {
                row.push(o);
            }
            assert!(row.len() <= NODE_SAMPLE_CAP as usize + 1, "ordinal {o}");
            // retained ordinals stay evenly strided
            for w in row.windows(2) {
                assert_eq!(w[1] - w[0], stride, "ordinal {o}");
            }
        }
    }

    #[test]
    fn parked_at_horizon_step_is_idempotent() {
        let mut s = ClusterService::new(
            Cluster::homogeneous(1, GpuModel::A100, 8),
            SimConfig {
                max_time_secs: Some(100),
                ..SimConfig::default()
            },
        );
        s.admit_tasks(vec![task(1, Priority::Hp, 16, 50, 0)]); // never fits
        s.start();
        s.run_to_end(&mut FirstFit);
        assert_eq!(s.now(), SimTime::from_secs(100));
        assert!(!s.step(&mut FirstFit), "parked: stepping stays a no-op");
        assert_eq!(s.now(), SimTime::from_secs(100));
        let report = s.finish();
        assert_eq!(report.makespan, SimTime::from_secs(100));
    }
}
