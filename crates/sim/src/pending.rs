//! The service's pending queue, split by refusal class so that a
//! scheduling pass costs in proportion to what can change rather than to
//! how many tasks are waiting.
//!
//! Tasks wait in one [`Scheduler::queue_cmp`]-sorted queue per
//! [`Scheduler::refusal_class`] (every unclassed task shares one queue). A
//! pass visits the queues by k-way merge in the global order a single
//! sorted queue would have — `queue_cmp`, ties by arrival — so with no
//! class declared it is one linear sweep of one queue. When a task of a
//! declared class is refused, the class is *parked*: by the scheduler's
//! contract every later member would be refused too, so none is offered.
//! A commit that evicts (or fails half-way) can free capacity, so it
//! re-activates every parked class — from the first member ordered after
//! the committing task: the members before it had their turn in this pass
//! already, and offering them again would start them one pass early.
//!
//! Parking never outlives a pass. `now`, the spot quota and the eviction
//! windows are constant inside one, which is what makes the memo sound;
//! the next pass starts from the head of every queue again.
//!
//! In debug builds every skipped task is offered anyway, at the moment the
//! merge passes it, and the pass panics unless the scheduler refuses — so
//! each test that drives a service checks the classed pass against the
//! exhaustive one.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use gfs_cluster::Scheduler;
use gfs_types::TaskSpec;

/// Counters over a service's scheduling passes — what the pass did, as
/// opposed to what the scheduler was asked (which a proxy around the
/// scheduler can count). Pure observation: not part of any snapshot,
/// state hash or report, and reset by [`ClusterService::restore`].
///
/// [`ClusterService::restore`]: crate::ClusterService::restore
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Scheduling passes run (one per dirty event batch with a non-empty
    /// queue).
    pub passes: u64,
    /// Tasks offered to [`Scheduler::schedule`] by those passes (the
    /// debug-build oracle's re-offers of skipped tasks are not counted).
    pub offers: u64,
    /// Offers that ended in a committed placement.
    pub placed: u64,
    /// Times a refusal parked a class for the rest of its pass.
    pub class_parks: u64,
    /// Parked classes re-activated by a preemptive or failed commit.
    pub wakes: u64,
    /// Longest queue any pass started with.
    pub max_pending: u64,
}

/// What became of one offer, as the pass needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The scheduler left the task pending.
    Refused,
    /// The decision was committed and the task left the queue;
    /// `preemptive` when it evicted anything on the way.
    Started { preemptive: bool },
    /// The decision's commit failed: the task stays queued, but victims
    /// may already have been evicted.
    Failed,
}

/// A queued task: its trace index and arrival stamp (the FIFO tie-break
/// across classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    task: u32,
    seq: u64,
}

#[derive(Debug)]
struct Class {
    /// Whether a refusal parks the queue (a declared class) or only moves
    /// on to the next entry (the shared unclassed queue).
    parks: bool,
    /// Sorted by `(queue_cmp, seq)`.
    entries: VecDeque<Entry>,
    /// Next entry to offer; meaningful during a pass only.
    cursor: usize,
    /// While parked: the first entry the oracle has not re-offered yet.
    #[cfg(debug_assertions)]
    checked: usize,
}

/// The global queue order: `queue_cmp`, ties by arrival.
fn global_cmp(a: Entry, b: Entry, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) -> Ordering {
    s.queue_cmp(&specs[a.task as usize], &specs[b.task as usize])
        .then(a.seq.cmp(&b.seq))
}

fn before(a: Entry, b: Entry, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) -> bool {
    global_cmp(a, b, specs, s) == Ordering::Less
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    classes: Vec<Class>,
    slot_of: BTreeMap<Option<u64>, u32>,
    /// The non-empty classes, ascending by their first entry: the merge
    /// order every pass starts from, maintained as heads change.
    order: Vec<u32>,
    len: usize,
    next_seq: u64,
    stats: PassStats,
    /// Pass scratch: classes still in the merge, *descending* by the
    /// entry under their cursor (the next to offer is at the back).
    active: Vec<u32>,
    /// Pass scratch: classes parked by a refusal.
    parked: Vec<u32>,
}

impl PendingQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn stats(&self) -> PassStats {
        self.stats
    }

    /// Queues trace index `task`: into its class, behind every entry that
    /// does not compare greater (FIFO among equals).
    pub(crate) fn enqueue(&mut self, task: u32, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) {
        let spec = &specs[task as usize];
        let key = s.refusal_class(spec);
        let slot = *self.slot_of.entry(key).or_insert_with(|| {
            self.classes.push(Class {
                parks: key.is_some(),
                entries: VecDeque::new(),
                cursor: 0,
                #[cfg(debug_assertions)]
                checked: 0,
            });
            (self.classes.len() - 1) as u32
        });
        let entries = &mut self.classes[slot as usize].entries;
        let pos = entries
            .partition_point(|e| s.queue_cmp(&specs[e.task as usize], spec) != Ordering::Greater);
        entries.insert(
            pos,
            Entry {
                task,
                seq: self.next_seq,
            },
        );
        self.next_seq += 1;
        self.len += 1;
        if pos == 0 {
            self.reposition(slot, specs, s);
        }
    }

    /// Rebuilds the queue from its merged order (a snapshot's `pending`).
    pub(crate) fn from_merged(merged: &[u32], specs: &[Arc<TaskSpec>], s: &dyn Scheduler) -> Self {
        let mut q = PendingQueue::default();
        for &task in merged {
            q.enqueue(task, specs, s);
        }
        q
    }

    /// Every queued trace index in the global queue order — the form the
    /// snapshot stores, independent of how the scheduler classes tasks.
    pub(crate) fn merged(&self, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) -> Vec<u32> {
        let mut all: Vec<Entry> = self.entries().collect();
        // concatenated sorted runs: the stable sort merges them
        all.sort_by(|&a, &b| global_cmp(a, b, specs, s));
        all.into_iter().map(|e| e.task).collect()
    }

    /// Every queued trace index, in no particular order.
    pub(crate) fn tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries().map(|e| e.task)
    }

    fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.classes.iter().flat_map(|c| c.entries.iter().copied())
    }

    /// Puts class `c` where its (new) first entry belongs in `order`, or
    /// drops it when it has emptied.
    fn reposition(&mut self, c: u32, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) {
        if let Some(i) = self.order.iter().position(|&x| x == c) {
            self.order.remove(i);
        }
        if let Some(&head) = self.classes[c as usize].entries.front() {
            let pos = self
                .order
                .partition_point(|&x| before(self.classes[x as usize].entries[0], head, specs, s));
            self.order.insert(pos, c);
        }
    }

    /// Entry under class `c`'s cursor.
    fn current(&self, c: u32) -> Entry {
        let class = &self.classes[c as usize];
        class.entries[class.cursor]
    }

    /// Enters class `c` into the merge at the entry under its cursor, if
    /// it has one left.
    fn activate(&mut self, c: u32, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) {
        let class = &self.classes[c as usize];
        if class.cursor < class.entries.len() {
            let e = self.current(c);
            let pos = self
                .active
                .partition_point(|&x| before(e, self.current(x), specs, s));
            self.active.insert(pos, c);
        }
    }

    /// The class the merge continues with after an offer from `c` that
    /// left it in the merge.
    fn merge_next(&mut self, c: u32, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) -> Option<u32> {
        let class = &self.classes[c as usize];
        let leads = |&d: &u32| before(self.current(c), self.current(d), specs, s);
        // `c` goes on while it holds the earliest entry — always, when no
        // class is declared: a linear sweep that compares nothing
        if class.cursor < class.entries.len() && self.active.last().is_none_or(leads) {
            return Some(c);
        }
        self.activate(c, specs, s);
        self.active.pop()
    }

    /// Re-activates every parked class behind the committing entry `by`.
    fn wake(&mut self, by: Entry, specs: &[Arc<TaskSpec>], s: &dyn Scheduler) {
        while let Some(p) = self.parked.pop() {
            let class = &mut self.classes[p as usize];
            // everything ordered before `by` had its turn in this pass:
            // offered up to the cursor, refused by contract behind it
            class.cursor = class.entries.partition_point(|&e| before(e, by, specs, s));
            #[cfg(debug_assertions)]
            assert_eq!(
                class.cursor, class.checked,
                "the oracle re-offered exactly the entries a wake skips"
            );
            self.stats.wakes += 1;
            self.activate(p, specs, s);
        }
    }

    /// The oracle: offers every entry of a parked class that the merge
    /// has passed (`upto`: the entry about to be offered; `None` at the
    /// end of the pass) and demands a refusal. Refusals change nothing,
    /// so the cluster is in exactly the state these entries would have
    /// been offered in.
    #[cfg(debug_assertions)]
    fn recheck_skipped(
        &mut self,
        upto: Option<Entry>,
        specs: &[Arc<TaskSpec>],
        scheduler: &mut dyn Scheduler,
        offer: &mut impl FnMut(&mut dyn Scheduler, u32) -> Offer,
    ) {
        for &p in &self.parked {
            let class = &mut self.classes[p as usize];
            while let Some(&e) = class.entries.get(class.checked) {
                if upto.is_some_and(|u| !before(e, u, specs, &*scheduler)) {
                    break;
                }
                assert_eq!(
                    offer(scheduler, e.task),
                    Offer::Refused,
                    "refusal_class contract broken by {}: task #{} was skipped \
                     after a refusal of its class but would have been placed",
                    scheduler.name(),
                    e.task,
                );
                class.checked += 1;
            }
        }
    }

    /// One scheduling pass: offers queued tasks in the global queue
    /// order, skipping parked classes. `offer` schedules and commits one
    /// task (by trace index) and reports what happened.
    pub(crate) fn pass(
        &mut self,
        specs: &[Arc<TaskSpec>],
        scheduler: &mut dyn Scheduler,
        mut offer: impl FnMut(&mut dyn Scheduler, u32) -> Offer,
    ) {
        self.stats.passes += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len as u64);
        for &c in self.order.iter().rev() {
            self.classes[c as usize].cursor = 0;
            self.active.push(c);
        }
        let mut next = self.active.pop();
        while let Some(c) = next {
            let entry = self.current(c);
            #[cfg(debug_assertions)]
            self.recheck_skipped(Some(entry), specs, scheduler, &mut offer);
            self.stats.offers += 1;
            let outcome = offer(scheduler, entry.task);
            let class = &mut self.classes[c as usize];
            match outcome {
                Offer::Refused if class.parks => {
                    self.stats.class_parks += 1;
                    #[cfg(debug_assertions)]
                    {
                        class.checked = class.cursor + 1;
                    }
                    self.parked.push(c);
                    next = self.active.pop();
                    continue;
                }
                Offer::Refused | Offer::Failed => class.cursor += 1,
                Offer::Started { .. } => {
                    class.entries.remove(class.cursor);
                    self.len -= 1;
                    self.stats.placed += 1;
                    if class.cursor == 0 {
                        self.reposition(c, specs, &*scheduler);
                    }
                }
            }
            if matches!(outcome, Offer::Failed | Offer::Started { preemptive: true }) {
                self.wake(entry, specs, &*scheduler);
            }
            next = self.merge_next(c, specs, &*scheduler);
        }
        #[cfg(debug_assertions)]
        self.recheck_skipped(None, specs, scheduler, &mut offer);
        self.parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_cluster::{Cluster, Decision};
    use gfs_types::{GpuDemand, SimTime};

    /// FIFO queue order (the default `queue_cmp`), one class per pod
    /// count, nine-pod tasks unclassed. Never consulted for decisions:
    /// the tests script every outcome through the `offer` closure.
    struct ByPods;

    impl Scheduler for ByPods {
        fn name(&self) -> &str {
            "by-pods"
        }
        fn schedule(&mut self, _: &TaskSpec, _: &Cluster, _: SimTime) -> Option<Decision> {
            None
        }
        fn refusal_class(&self, task: &TaskSpec) -> Option<u64> {
            (task.pods < 9).then_some(u64::from(task.pods))
        }
    }

    const PODS: [u32; 9] = [1, 2, 1, 9, 2, 9, 1, 3, 2];

    fn queue() -> (PendingQueue, Vec<Arc<TaskSpec>>) {
        let specs: Vec<Arc<TaskSpec>> = PODS
            .iter()
            .enumerate()
            .map(|(i, &pods)| {
                let spec = TaskSpec::builder(i as u64)
                    .pods(pods)
                    .gpus_per_pod(GpuDemand::whole(1))
                    .build();
                Arc::new(spec.expect("valid"))
            })
            .collect();
        let mut q = PendingQueue::default();
        for i in 0..specs.len() as u32 {
            q.enqueue(i, &specs, &ByPods);
        }
        (q, specs)
    }

    /// Runs one pass with scripted outcomes (`Refused` unless listed) and
    /// returns every task the closure was asked about, in call order.
    fn scripted(
        q: &mut PendingQueue,
        specs: &[Arc<TaskSpec>],
        script: &[(u32, Offer)],
    ) -> Vec<u32> {
        let mut calls = Vec::new();
        q.pass(specs, &mut ByPods, |_, task| {
            calls.push(task);
            let scripted = script.iter().find(|(t, _)| *t == task);
            scripted.map_or(Offer::Refused, |&(_, outcome)| outcome)
        });
        calls
    }

    #[test]
    fn merge_keeps_arrival_order_across_classes_and_parks_on_refusal() {
        let (mut q, specs) = queue();
        assert_eq!(q.merged(&specs, &ByPods), (0..9).collect::<Vec<u32>>());
        let calls = scripted(&mut q, &specs, &[]);
        if cfg!(debug_assertions) {
            // the oracle turns the pass back into the exhaustive sweep
            assert_eq!(calls, (0..9).collect::<Vec<u32>>());
        } else {
            // one offer per class, every unclassed task
            assert_eq!(calls, [0, 1, 3, 5, 7]);
        }
        let stats = q.stats();
        assert_eq!((stats.offers, stats.class_parks, stats.placed), (5, 3, 0));
        assert_eq!(stats.max_pending, 9);
    }

    #[test]
    fn a_wake_resumes_each_class_behind_the_committing_task() {
        let (mut q, specs) = queue();
        let script = [
            // frees capacity: class 1 (parked by task 0) resumes at task 2
            (1, Offer::Started { preemptive: true }),
            // fails after task 2 parked class 1 again: it resumes at task 6
            (3, Offer::Failed),
            (6, Offer::Started { preemptive: false }),
        ];
        let calls = scripted(&mut q, &specs, &script);
        if cfg!(debug_assertions) {
            assert_eq!(calls, (0..9).collect::<Vec<u32>>());
        } else {
            assert_eq!(calls, [0, 1, 2, 3, 4, 5, 6, 7], "task 8's class is parked");
        }
        let stats = q.stats();
        assert_eq!((stats.offers, stats.placed), (8, 2));
        assert_eq!((stats.class_parks, stats.wakes), (4, 2));

        // started tasks left; the failed one kept its place
        let merged = q.merged(&specs, &ByPods);
        assert_eq!(merged, [0, 2, 3, 4, 5, 7, 8]);
        let mut restored = PendingQueue::from_merged(&merged, &specs, &ByPods);
        assert_eq!(restored.merged(&specs, &ByPods), merged);
        // nothing is remembered between passes: both start from the heads
        let expect: &[u32] = if cfg!(debug_assertions) {
            &merged
        } else {
            &[0, 3, 4, 5, 7]
        };
        assert_eq!(scripted(&mut q, &specs, &[]), expect);
        assert_eq!(scripted(&mut restored, &specs, &[]), expect);
    }
}
