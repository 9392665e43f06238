//! `TracedScheduler`: a proxy on the `sim` ↔ `core`/`sched` boundary.
//!
//! It implements `gfs_cluster::Scheduler`, forwards every call to the
//! wrapped scheduler unchanged, and times and counts the calls as they
//! pass. It is a passive observer: a wrapped run ends in the same
//! `report_hash` as a bare one (the crate's smoke test asserts it).
//!
//! `schedule` can be called hundreds of millions of times in a pass, a few
//! nanoseconds each (a queued spot task refused by the quota gate), so
//! every call is counted but only one in [`SCHEDULE_STRIDE`] starts a timed
//! sample. What a sample is depends on where in a scheduling pass it
//! falls:
//!
//! * among the first [`LONG_PASS`] calls of a pass (the usual case: one
//!   call a step, microseconds each) it is that one call;
//! * further into a pass it is a *run* of up to [`RUN_CALLS`] consecutive
//!   calls under one pair of clock reads. A refusal timed on its own reads
//!   18-20 ns where the pending loop gets through one in 12 ns, because
//!   the clock reads keep consecutive calls from overlapping their cache
//!   misses; summed over 289 M calls that is more time than the steps
//!   they ran in. A run ends early at a call that returns a decision (the
//!   service commits it before the next call) and is dropped if the pass
//!   ends first, so the last few calls of a long pass are sampled less.
//!
//! Busy time is the sampled mean per call times the call count. It holds
//! the proxy's own forwarding (about 3 ns a call: `bench.trace_overhead_pct`
//! is measured against the untraced pass); the cost of the clock reads,
//! calibrated once per process, is taken off every sample.
//!
//! Counters live in plain fields and are handed over once, when the
//! proxy is dropped, so the hot path takes no lock. `run_fleet` builds,
//! uses and drops one scheduler per shard, which makes the proxy's
//! lifetime the shard's run time — measured from outside.

use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gfs::cluster::{Cluster, Decision, DrainDecision, RunningTask, Scheduler, TaskEvent};
use gfs::types::{SimDuration, SimTime, TaskSpec};

use crate::stats::Samples;

/// A timed run starts at one `schedule` call in this many. Prime, so the
/// sample does not lock onto a period of the pending queue.
pub const SCHEDULE_STRIDE: u32 = 61;

/// Calls in a timed run, at most.
pub const RUN_CALLS: u32 = 16;

/// A scheduling pass that has made this many calls is a loop long enough
/// to be timed in runs: few of them are then cut short by its end.
pub const LONG_PASS: u64 = 8 * RUN_CALLS as u64;

/// What an empty timed region reads: the median of 10,001 back-to-back
/// clock pairs, measured once per process.
fn clock_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut reads: Vec<Duration> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed()
            })
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

/// Time since `t`, less the clock's own cost.
fn since(t: Instant) -> Duration {
    t.elapsed().saturating_sub(clock_cost())
}

/// What one proxy saw over its lifetime.
#[derive(Debug, Default)]
pub struct BoundaryStats {
    /// `run_fleet` shard index (0 for a single service).
    pub shard: usize,
    /// Seconds from construction to drop.
    pub lifetime_s: f64,
    pub schedule_calls: u64,
    /// Mean call duration of every timed run.
    pub schedule: Samples,
    /// Calls inside timed runs, and the nanoseconds those runs took.
    pub schedule_timed_calls: u64,
    pub schedule_timed_ns: u64,
    pub tick: Samples,
    pub on_event: Samples,
    pub placed: u64,
    pub preemptive: u64,
    pub refused: u64,
    pub victims: u64,
    pub queue_cmp_calls: u64,
}

/// Where dropped proxies leave their stats. `run_fleet` wants a `Sync`
/// scheduler factory, hence the mutex; it is locked once per proxy.
pub type Sink = Arc<Mutex<Vec<BoundaryStats>>>;

pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    stats: BoundaryStats,
    /// `schedule` calls until the next turn: a run opens, or the open one
    /// is full and closes.
    until_turn: u32,
    /// When the open timed run started.
    run: Option<Instant>,
    /// `schedule_calls` at the last step boundary.
    pass_started_at: u64,
    queue_cmp_calls: Cell<u64>,
    born: Instant,
    sink: Sink,
}

impl TracedScheduler {
    #[must_use]
    pub fn new(inner: Box<dyn Scheduler>, shard: usize, sink: Sink) -> Self {
        clock_cost(); // calibrate before the first timed call, not inside it
        TracedScheduler {
            inner,
            stats: BoundaryStats {
                shard,
                ..BoundaryStats::default()
            },
            until_turn: SCHEDULE_STRIDE,
            run: None,
            pass_started_at: 0,
            queue_cmp_calls: Cell::new(0),
            born: Instant::now(),
            sink,
        }
    }

    /// Records a timed sample of `calls` calls.
    fn sample(&mut self, took: Duration, calls: u32) {
        self.stats.schedule.push(took / calls);
        self.stats.schedule_timed_calls += u64::from(calls);
        self.stats.schedule_timed_ns += took.as_nanos() as u64;
        self.until_turn = SCHEDULE_STRIDE;
    }

    /// At the entry of the `schedule` call the countdown ends on. The open
    /// run has had its [`RUN_CALLS`] calls and closes; or none is open and,
    /// far enough into a pass, one opens. Otherwise this call is to be
    /// timed on its own: returns `true`.
    #[cold]
    fn turn(&mut self) -> bool {
        match self.run.take() {
            Some(start) => self.sample(since(start), RUN_CALLS),
            None if self.stats.schedule_calls - self.pass_started_at > LONG_PASS => {
                self.run = Some(Instant::now());
                self.until_turn = RUN_CALLS;
            }
            None => return true,
        }
        false
    }

    fn count(&mut self, decision: &Decision) {
        self.stats.placed += 1;
        if decision.is_preemptive() {
            self.stats.preemptive += 1;
            self.stats.victims += decision.preemptions.len() as u64;
        }
    }

    /// `on_tick` and `on_event` come between scheduling passes: a run the
    /// pass before left open is dropped.
    fn step_boundary(&mut self) {
        self.pass_started_at = self.stats.schedule_calls;
        if self.run.take().is_some() {
            self.until_turn = SCHEDULE_STRIDE;
        }
    }
}

impl Drop for TracedScheduler {
    fn drop(&mut self) {
        let mut stats = std::mem::take(&mut self.stats);
        stats.lifetime_s = self.born.elapsed().as_secs_f64();
        stats.refused = stats.schedule_calls - stats.placed;
        stats.queue_cmp_calls = self.queue_cmp_calls.get();
        // a poisoned sink means another proxy's owner panicked; the run is
        // already lost, and Drop must not panic on top of it
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(stats);
        }
    }
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        self.stats.schedule_calls += 1;
        self.until_turn -= 1;
        if self.until_turn == 0 && self.turn() {
            let t = Instant::now();
            let decision = self.inner.schedule(task, cluster, now);
            self.sample(since(t), 1);
            if let Some(d) = &decision {
                self.count(d);
            }
            return decision;
        }
        // a refusal is rebuilt, not moved: moving the whole `Option` reads
        // back, in one wide load, bytes the callee has just written in a
        // narrow one, and the stall costs as much as the call
        let d = self.inner.schedule(task, cluster, now)?;
        self.count(&d);
        // the service commits the decision before the next call
        if let Some(start) = self.run.take() {
            self.sample(since(start), RUN_CALLS - self.until_turn + 1);
        }
        Some(d)
    }

    fn on_tick(&mut self, now: SimTime, cluster: &Cluster) {
        self.step_boundary();
        let t = Instant::now();
        self.inner.on_tick(now, cluster);
        self.stats.tick.push(since(t));
    }

    fn on_event(&mut self, event: &TaskEvent, cluster: &Cluster) {
        self.step_boundary();
        let t = Instant::now();
        self.inner.on_event(event, cluster);
        self.stats.on_event.push(since(t));
    }

    fn demand_forecast(&self, p: f64, h: usize) -> Option<f64> {
        self.inner.demand_forecast(p, h)
    }

    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        self.inner.drain_decision(task, notice, cluster, now)
    }

    // counted, not timed: a comparison is a few nanoseconds and two clock
    // reads around it would measure the clock
    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> Ordering {
        self.queue_cmp_calls.set(self.queue_cmp_calls.get() + 1);
        self.inner.queue_cmp(a, b)
    }

    fn sort_queue(&self, queue: &mut Vec<TaskSpec>) {
        self.inner.sort_queue(queue);
    }

    fn save_state(&self) -> Option<String> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &str) -> bool {
        self.inner.restore_state(state)
    }
}

impl BoundaryStats {
    /// Mean `schedule` call inside the timed runs, nanoseconds.
    #[must_use]
    pub fn schedule_mean_ns(&self) -> f64 {
        self.schedule_timed_ns as f64 / self.schedule_timed_calls.max(1) as f64
    }

    /// Seconds inside `schedule`: the sampled mean over every call.
    #[must_use]
    pub fn schedule_busy_s(&self) -> f64 {
        self.schedule_mean_ns() * 1e-9 * self.schedule_calls as f64
    }
}

/// Takes everything the sink has collected so far.
///
/// # Panics
///
/// Panics when a proxy's owner panicked while the sink was locked.
#[must_use]
pub fn drain(sink: &Sink) -> Vec<BoundaryStats> {
    let mut all = std::mem::take(&mut *sink.lock().expect("a proxy owner panicked"));
    all.sort_by_key(|s| s.shard);
    all
}
