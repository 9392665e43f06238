//! Crash-safe long-running cluster service: the engine's event loop as a
//! resident object. Its snapshot codec lives in [`crate::snapshot`], its
//! write-ahead journal and the recovery protocol in [`crate::journal`].
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
//! [`DynamicsPlan`]: gfs_types::DynamicsPlan

use std::collections::HashMap;
use std::sync::Arc;

use gfs_cluster::{Cluster, DrainDecision, Scheduler, TaskEvent};
use gfs_types::{
    ClusterEventKind, DynamicsPlan, GpuModel, NodeId, SimDuration, SimTime, TaskId, TaskSpec,
};
use serde::{Deserialize, Serialize};

use crate::dynamics::AvailabilityTracker;
use crate::engine::SimConfig;
use crate::event_heap::{Event, EventHeap, EventKind};
use crate::journal::{AdmittedEvent, Journal};
use crate::pending::{Offer, PassStats, PendingQueue};
use crate::report::{AllocSample, SimReport, TaskRecord};

/// Dense per-task simulation state, indexed by trace position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TaskState {
    /// Index of the task's record in the report (records are appended in
    /// submission-event order, which can differ from trace order).
    pub(crate) rec: u32,
    /// Run-segment epoch; a `Finish` event is stale unless epochs match.
    epoch: u32,
    /// Checkpointed progress carried across evictions; cleared on finish.
    carried: SimDuration,
    /// When the task last entered the pending queue.
    enqueue: SimTime,
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

/// The run state every event handler mutates. It is kept apart from the
/// task table and the pending queue so that a scheduling pass can borrow
/// all three at once: the queue picks whom to offer, [`Live::offer`]
/// commits what the scheduler decides.
///
/// A handler's `bool` says whether its event may have changed what a
/// scheduling pass would decide (the batch is then *dirty*).
#[derive(Debug)]
pub(crate) struct Live {
    /// The instant of the batch being handled.
    pub(crate) now: SimTime,
    pub(crate) cluster: Cluster,
    pub(crate) report: SimReport,
    pub(crate) heap: EventHeap,
    pub(crate) states: Vec<TaskState>,
    pub(crate) id_to_idx: HashMap<TaskId, u32>,
    pub(crate) avail: AvailabilityTracker,
    /// Tasks admitted but not yet finished.
    pub(crate) unfinished: usize,
    /// [`SimConfig::requeue_delay_secs`]: how long an exited task waits
    /// before it re-enters the queue.
    pub(crate) requeue_delay: SimDuration,
}

/// The engine's event loop as a long-running, crash-safe object — see
/// the [module docs](self) for the lifecycle and the pending queue,
/// [`crate::snapshot`] for the snapshot format and [`crate::journal`] for
/// the journal layout and recovery protocol.
#[derive(Debug)]
pub struct ClusterService {
    pub(crate) cfg: SimConfig,
    pub(crate) live: Live,
    pub(crate) specs: Vec<Arc<TaskSpec>>,
    pub(crate) pending: PendingQueue,
    /// Event batches processed so far — the replay anchor journal records
    /// are pinned to.
    pub(crate) steps: u64,
    pub(crate) started: bool,
    pub(crate) journal: Journal,
    /// Reused same-timestamp batch buffer (always empty between steps).
    pub(crate) batch_scratch: Vec<Event>,
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

impl Live {
    /// Knocks one running task off the cluster: stales its pending `Finish`
    /// via the epoch, carries the checkpointed progress, records it under
    /// its [`Exit`]'s counter, notifies the scheduler and schedules the
    /// requeue after the grace period. The one task-exit path — requeue
    /// semantics must never drift between preemption, forced and graceful
    /// exits.
    fn exit_and_requeue(
        &mut self,
        exit: Exit,
        spec: &TaskSpec,
        preserved: SimDuration,
        scheduler: &mut dyn Scheduler,
    ) {
        let now = self.now;
        let idx = self.id_to_idx[&spec.id];
        let st = &mut self.states[idx as usize];
        st.epoch += 1; // the pending Finish is now stale
        st.carried = preserved;
        let rec = &mut self.report.tasks[st.rec as usize];
        let (count, times) = match exit {
            Exit::Evicted => (&mut rec.evictions, &mut self.report.eviction_times),
            Exit::Displaced => (&mut rec.displacements, &mut self.report.displacement_times),
            Exit::Migrated => (&mut rec.migrations, &mut self.report.migration_times),
        };
        *count += 1;
        times.push(now);
        let event = match exit {
            Exit::Evicted => TaskEvent::Evicted {
                task: spec.id,
                at: now,
            },
            Exit::Displaced | Exit::Migrated => TaskEvent::Displaced {
                task: spec.id,
                priority: spec.priority,
                at: now,
            },
        };
        scheduler.on_event(&event, &self.cluster);
        self.heap
            .schedule(now + self.requeue_delay, EventKind::Requeue(idx));
    }

    /// Takes `node` out of service (abrupt failure or drain deadline):
    /// displaces every pod through [`Cluster::fail_node`], accounts the lost
    /// capacity, requeues the victims with their checkpointed progress and
    /// notifies the scheduler. A down or unknown node makes this a no-op,
    /// so overlapping hand-built schedules degrade gracefully.
    fn node_down(&mut self, node: NodeId, scheduler: &mut dyn Scheduler) -> bool {
        let now = self.now;
        let Ok(drained) = self.cluster.fail_node(node, now) else {
            return false;
        };
        self.report.node_downs += 1;
        let lost = self.cluster.nodes()[node.index()].total_gpus();
        self.avail.change(now, f64::from(lost));
        for d in drained {
            self.exit_and_requeue(Exit::Displaced, &d.task.spec, d.preserved, scheduler);
        }
        scheduler.on_event(
            &TaskEvent::NodeDown {
                node,
                lost_gpus: lost,
                at: now,
            },
            &self.cluster,
        );
        true
    }

    /// Offers task `idx` to the scheduler and commits the decision:
    /// evicts its victims, starts it, schedules its `Finish` and folds the
    /// start into the report.
    fn offer(&mut self, idx: u32, task: &Arc<TaskSpec>, scheduler: &mut dyn Scheduler) -> Offer {
        let now = self.now;
        let Some(decision) = scheduler.schedule(task, &self.cluster, now) else {
            return Offer::Refused;
        };
        for victim in &decision.preemptions {
            match self.cluster.evict_task(*victim, now) {
                Ok((rt, preserved)) => {
                    self.exit_and_requeue(Exit::Evicted, &rt.spec, preserved, scheduler);
                }
                Err(_) => self.report.failed_commits += 1,
            }
        }
        let carry = self.states[idx as usize].carried;
        if self
            .cluster
            .start_task(Arc::clone(task), &decision.pod_nodes, now, carry)
            .is_err()
        {
            self.report.failed_commits += 1;
            return Offer::Failed;
        }
        let st = &mut self.states[idx as usize];
        st.epoch += 1;
        let remaining = task.duration_secs.saturating_sub(carry).max(1);
        self.heap.schedule(
            now + remaining,
            EventKind::Finish {
                task: idx,
                epoch: st.epoch,
            },
        );
        let queued = now.since(st.enqueue);
        let rec = &mut self.report.tasks[st.rec as usize];
        rec.queued_secs += queued;
        rec.runs += 1;
        if rec.first_start.is_none() {
            rec.first_start = Some(now);
        }
        if task.priority.is_spot() {
            self.report.spot_start_times.push(now);
        }
        scheduler.on_event(
            &TaskEvent::Started {
                task: task.id,
                priority: task.priority,
                queued_secs: queued,
                at: now,
            },
            &self.cluster,
        );
        Offer::Started {
            preemptive: !decision.preemptions.is_empty(),
        }
    }

    /// Opens task `i`'s report record; the caller queues it.
    fn on_submit(&mut self, i: u32, spec: &TaskSpec, scheduler: &mut dyn Scheduler) {
        let now = self.now;
        let st = &mut self.states[i as usize];
        st.rec = self.report.tasks.len() as u32;
        st.enqueue = now;
        self.report.tasks.push(TaskRecord {
            id: spec.id,
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
                task: spec.id,
                priority: spec.priority,
                at: now,
            },
            &self.cluster,
        );
    }

    /// Completes task `i` (id `id`) unless the event is stale: the run it
    /// was scheduled for was preempted, or the task is not running.
    fn on_finish(&mut self, i: u32, epoch: u32, id: TaskId, scheduler: &mut dyn Scheduler) -> bool {
        let now = self.now;
        let st = &mut self.states[i as usize];
        if st.epoch != epoch {
            return false;
        }
        let Ok(rt) = self.cluster.finish_task(id, now) else {
            return false;
        };
        st.carried = 0; // progress state dies with the task
        self.report.tasks[st.rec as usize].finish = Some(now);
        self.unfinished -= 1;
        scheduler.on_event(
            &TaskEvent::Finished {
                task: id,
                priority: rt.spec.priority,
                at: now,
            },
            &self.cluster,
        );
        true
    }

    fn on_tick(&mut self, cfg: &SimConfig, scheduler: &mut dyn Scheduler) -> bool {
        scheduler.on_tick(self.now, &self.cluster);
        if self.unfinished > 0 {
            let next = self.now + cfg.tick_interval_secs;
            self.heap.schedule(next, EventKind::Tick);
        }
        true
    }

    /// Samples the allocation rate; never dirties the batch.
    fn on_sample(&mut self, cfg: &SimConfig) -> bool {
        let now = self.now;
        let cap = self.cluster.capacity(None).max(1.0);
        self.report.alloc_samples.push(AllocSample {
            at: now,
            total: self.cluster.allocation_rate(None),
            hp: self.cluster.hp_allocated(None) / cap,
            spot: self.cluster.spot_allocated(None) / cap,
        });
        if cfg.record_node_alloc {
            self.record_node_samples();
        }
        if self.unfinished > 0 {
            let next = now + cfg.alloc_sample_interval_secs;
            self.heap.schedule(next, EventKind::Sample);
        }
        false
    }

    /// Brings `node` back; an Up for a draining node cancels the drain
    /// (its capacity never left the availability accounting), and one for
    /// an up or unknown node is a no-op.
    fn on_node_up(&mut self, node: NodeId, scheduler: &mut dyn Scheduler) -> bool {
        let now = self.now;
        let was_down = self.cluster.node(node).ok().is_some_and(|n| !n.is_up());
        if self.cluster.restore_node(node, now).is_err() {
            return false;
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
        true
    }

    /// Starts draining `node` (a no-op when it is down, unknown or already
    /// draining) and arms its forced-shutdown deadline.
    fn on_drain(
        &mut self,
        node: NodeId,
        notice: SimDuration,
        scheduler: &mut dyn Scheduler,
    ) -> bool {
        let now = self.now;
        let deadline = now + notice;
        if self.cluster.drain_node(node, deadline).is_err() {
            return false;
        }
        self.report.node_drains += 1;
        // the scheduler chooses per gang: migrate now — gracefully, with
        // checkpointed progress — or ride out the window (finish in place,
        // or checkpoint until the forced deadline). The default
        // Scheduler::drain_decision reproduces the historical rule
        // (migrate exactly the gangs that cannot finish inside the
        // window); ascending id order via the ordered running registry
        let to_move: Vec<TaskId> = self
            .cluster
            .running()
            .filter(|rt| rt.placements.iter().any(|p| p.node == node))
            .filter(|rt| {
                scheduler.drain_decision(rt, notice, &self.cluster, now) == DrainDecision::Migrate
            })
            .map(|rt| rt.spec.id)
            .collect();
        for id in to_move {
            let (rt, preserved) = self
                .cluster
                .migrate_task(id, now)
                .expect("collected from the registry");
            self.exit_and_requeue(Exit::Migrated, &rt.spec, preserved, scheduler);
        }
        scheduler.on_event(
            &TaskEvent::DrainNotice {
                node,
                deadline,
                at: now,
            },
            &self.cluster,
        );
        self.heap.schedule(deadline, EventKind::DrainDeadline(node));
        true
    }

    /// Forces a drain's shutdown — only for a drain still in progress with
    /// this exact deadline: an Up inside the window cancelled it, a
    /// re-drain armed a different deadline.
    fn on_drain_deadline(&mut self, node: NodeId, scheduler: &mut dyn Scheduler) -> bool {
        let deadline = self
            .cluster
            .node(node)
            .ok()
            .and_then(|n| n.drain_deadline());
        deadline == Some(self.now) && self.node_down(node, scheduler)
    }

    fn on_add_node(
        &mut self,
        model: GpuModel,
        gpus: u32,
        cfg: &SimConfig,
        scheduler: &mut dyn Scheduler,
    ) -> bool {
        let now = self.now;
        let node = self.cluster.add_node(model, gpus);
        self.report.nodes_added += 1;
        self.report.gpus_added += u64::from(gpus);
        self.avail.add_static(now, f64::from(gpus));
        if cfg.record_node_alloc {
            // pad the new node's series so every row shares one time
            // origin (zero allocated before it existed)
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
        true
    }

    /// Queues a dynamics plan's events; those in the past clamp to now.
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
            self.heap.schedule(ev.at.max(self.now), kind);
        }
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
                    let mut i = 0;
                    row.retain(|_| {
                        i += 1;
                        i % 2 == 1
                    });
                }
            }
            if !ordinal.is_multiple_of(stride) {
                return;
            }
        }
        for (i, n) in self.cluster.nodes().iter().enumerate() {
            self.report.node_alloc_samples[i].push(n.allocated().as_f64());
        }
    }
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
            live: Live {
                now: SimTime::ZERO,
                cluster,
                report,
                heap: EventHeap::default(),
                states: Vec::new(),
                id_to_idx: HashMap::new(),
                avail,
                unfinished: 0,
                requeue_delay: cfg.requeue_delay_secs,
            },
            cfg,
            specs: Vec::new(),
            pending: PendingQueue::default(),
            steps: 0,
            started: false,
            journal: Journal::default(),
            batch_scratch: Vec::new(),
        }
    }

    /// Current simulated time (the last processed batch's timestamp).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.live.now
    }

    /// Whether [`ClusterService::start`] has run.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Tasks admitted but not yet finished.
    #[must_use]
    pub fn unfinished(&self) -> usize {
        self.live.unfinished
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
        &self.live.cluster
    }

    /// The report as accumulated so far (tail accrual happens in
    /// [`ClusterService::finish`]).
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.live.report
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
        let report = &mut self.live.report;
        report.gpu_hours_bought = gpu_hours_bought;
        report.market_spend_usd = spend_usd;
        report.stranded_gpu_hours = stranded_gpu_hours;
    }

    /// Turns on the write-ahead journal; admissions from here on are
    /// journaled before they are applied. On a freshly-restored service
    /// the journal continues from the snapshot's admission counter.
    pub fn enable_journal(&mut self) {
        self.journal.enable();
    }

    /// The write-ahead journal, when enabled.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.is_enabled().then_some(&self.journal)
    }

    /// Admits a batch of task arrivals (write-ahead journaled, then
    /// applied). Submissions in the past clamp to the current instant.
    pub fn admit_tasks(&mut self, tasks: Vec<TaskSpec>) {
        self.admit(AdmittedEvent::Tasks(tasks));
    }

    /// Admits a cluster-dynamics plan mid-run (write-ahead journaled,
    /// then applied). Events in the past clamp to the current instant.
    pub fn admit_plan(&mut self, plan: &DynamicsPlan) {
        self.admit(AdmittedEvent::Plan(plan.clone()));
    }

    /// Arms the sample/tick chains and the configured dynamics timeline
    /// (write-ahead journaled, then applied). Call once, after the
    /// initial admissions; sequence numbers then reproduce the batch
    /// engine exactly.
    pub fn start(&mut self) {
        self.admit(AdmittedEvent::Start);
    }

    fn admit(&mut self, ev: AdmittedEvent) {
        self.journal.append(self.live.now, self.steps, &ev);
        self.apply_admission(ev);
    }

    pub(crate) fn apply_admission(&mut self, ev: AdmittedEvent) {
        let live = &mut self.live;
        let now = live.now;
        match ev {
            AdmittedEvent::Start => {
                if self.started {
                    return; // replay tolerance: arming twice is a no-op
                }
                self.started = true;
                live.heap.schedule(now, EventKind::Sample);
                live.heap
                    .schedule(now + self.cfg.tick_interval_secs, EventKind::Tick);
                // dynamics events enqueue last so an empty plan leaves
                // every sequence number — and therefore every scheduling
                // outcome — untouched
                live.push_plan(&self.cfg.dynamics);
            }
            AdmittedEvent::Tasks(tasks) => {
                for t in tasks {
                    let at = t.submit_at.max(now);
                    let i = self.specs.len() as u32;
                    let spec = Arc::new(t);
                    live.id_to_idx.insert(spec.id, i);
                    self.specs.push(spec);
                    live.states.push(TaskState::default());
                    live.unfinished += 1;
                    live.heap.schedule(at, EventKind::Submit(i));
                }
            }
            AdmittedEvent::Plan(plan) => live.push_plan(&plan),
        }
    }

    /// Processes one batch of same-timestamp events plus the scheduling
    /// pass that follows it. Returns `false` without touching the heap
    /// when there is nothing (or nothing admissible) left: the heap is
    /// empty, every task finished, or the next event lies past the
    /// configured horizon (the clock then parks at the horizon).
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        let next = self.live.heap.peek().map(|e| e.at);
        let Some(now) = next.filter(|_| self.live.unfinished > 0) else {
            return false;
        };
        let horizon = self.cfg.max_time_secs.map(SimTime::from_secs);
        if let Some(limit) = horizon.filter(|&limit| now > limit) {
            self.live.now = limit;
            return false;
        }
        self.live.now = now;
        // take the entire same-timestamp batch before handling any of it
        // (scratch buffer: always drained back empty at the end of step)
        let mut batch = std::mem::take(&mut self.batch_scratch);
        while let Some(ev) = self.live.heap.pop_at(now) {
            batch.push(ev);
        }
        let mut dirty = false;
        for ev in batch.drain(..) {
            dirty |= self.dispatch(ev.kind, scheduler);
        }
        self.batch_scratch = batch;
        if dirty && !self.pending.is_empty() {
            self.scheduling_pass(scheduler);
        }
        self.steps += 1;
        true
    }

    /// Hands one event to its handler; `true` when the batch is dirty.
    fn dispatch(&mut self, kind: EventKind, scheduler: &mut dyn Scheduler) -> bool {
        let (live, cfg) = (&mut self.live, &self.cfg);
        match kind {
            EventKind::Submit(i) => {
                live.on_submit(i, &self.specs[i as usize], scheduler);
                self.pending.enqueue(i, &self.specs, scheduler);
                true
            }
            EventKind::Requeue(i) => {
                live.states[i as usize].enqueue = live.now;
                self.pending.enqueue(i, &self.specs, scheduler);
                true
            }
            EventKind::Finish { task, epoch } => {
                live.on_finish(task, epoch, self.specs[task as usize].id, scheduler)
            }
            EventKind::Tick => live.on_tick(cfg, scheduler),
            EventKind::Sample => live.on_sample(cfg),
            EventKind::NodeDown(node) => live.node_down(node, scheduler),
            EventKind::NodeUp(node) => live.on_node_up(node, scheduler),
            EventKind::Drain { node, notice } => live.on_drain(node, notice, scheduler),
            EventKind::DrainDeadline(node) => live.on_drain_deadline(node, scheduler),
            EventKind::AddNode { model, gpus } => live.on_add_node(model, gpus, cfg, scheduler),
        }
    }

    /// One scheduling pass: [`PendingQueue::pass`] picks whom to offer,
    /// [`Live::offer`] commits what the scheduler decides.
    fn scheduling_pass(&mut self, scheduler: &mut dyn Scheduler) {
        let (live, specs) = (&mut self.live, &self.specs);
        self.pending.pass(specs, scheduler, |scheduler, idx| {
            live.offer(idx, &specs[idx as usize], scheduler)
        });
    }

    /// Steps until the next event lies strictly after `t` (or the run
    /// ends). After this, admissions happen "at `t`" in the journal's
    /// sense — the replay protocol reproduces exactly this call.
    pub fn run_until(&mut self, t: SimTime, scheduler: &mut dyn Scheduler) {
        while self.live.heap.peek().is_some_and(|e| e.at <= t) && self.step(scheduler) {}
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
        let mut live = self.live;
        for idx in self.pending.tasks() {
            let st = &live.states[idx as usize];
            live.report.tasks[st.rec as usize].queued_secs += live.now.since(st.enqueue);
        }
        live.report.unavailability = live.avail.unavailability(live.now);
        live.report.makespan = live.now;
        live.report
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gfs_cluster::Decision;
    use gfs_types::{ClusterEvent, GpuDemand, Priority};

    /// Minimal first-fit policy (stateless) to exercise the service.
    pub(crate) struct FirstFit;

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
            let need = task.gpus_per_pod.cards().ceil_cards();
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

    pub(crate) fn trace(n: u64) -> Vec<TaskSpec> {
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

    pub(crate) fn churn_cfg() -> SimConfig {
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

    /// A fresh churn-config service over three 8-GPU nodes.
    pub(crate) fn churn_service() -> ClusterService {
        ClusterService::new(Cluster::homogeneous(3, GpuModel::A100, 8), churn_cfg())
    }

    /// The uninterrupted 24-task churn run every recovery test must match.
    pub(crate) fn golden() -> SimReport {
        let mut s = churn_service();
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
