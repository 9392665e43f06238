//! The service's event queue: what can happen ([`EventKind`]), when it is
//! due ([`Event`]), and the calendar queue that hands events back in
//! exactly `(at, seq)` order ([`EventHeap`]). The heap owns the sequence
//! counter, so events due at one instant pop in the order they were
//! scheduled — the order every scheduling outcome and snapshot byte
//! depends on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gfs_types::{GpuModel, NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

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

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Event {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
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
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    /// Sequence number of the last scheduled event.
    seq: u64,
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
    /// Rebuilds a heap from a snapshot: its events and its sequence
    /// counter.
    pub(crate) fn restore(events: Vec<Event>, seq: u64) -> Self {
        let mut h = EventHeap {
            seq,
            ..EventHeap::default()
        };
        for ev in events {
            h.push(ev);
        }
        h
    }

    /// Queues `kind` at `at` under the next sequence number.
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.push(Event {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Sequence number of the last scheduled event.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
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
    pub(crate) fn peek(&mut self) -> Option<&Event> {
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

    /// Pops the earliest event if it is due exactly at `at`.
    pub(crate) fn pop_at(&mut self, at: SimTime) -> Option<Event> {
        if self.peek()?.at == at {
            self.pop()
        } else {
            None
        }
    }

    /// Every queued event in `(at, seq)` order — the canonical form a
    /// snapshot stores.
    pub(crate) fn sorted(&self) -> Vec<&Event> {
        let mut events: Vec<&Event> = self
            .active
            .iter()
            .chain(self.near.iter().flatten())
            .chain(self.far.iter())
            .collect();
        events.sort_by_key(|e| (e.at, e.seq));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut calendar = EventHeap::default();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut base = 0u64;
        for _ in 0..20_000 {
            let op = rnd(3);
            if op < 2 {
                let at = SimTime::from_secs(match rnd(4) {
                    0 => base + rnd(128),               // active / near slots
                    1 => base + rnd(50_000),            // inside the window
                    2 => base + 70_000 + rnd(1 << 21),  // far heap
                    _ => base.saturating_sub(rnd(200)), // at or before cursor
                });
                calendar.schedule(at, EventKind::Tick);
                reference.push(Event {
                    at,
                    seq: calendar.seq(),
                    kind: EventKind::Tick,
                });
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
    fn event_heap_restores_from_snapshot_order() {
        let mut h = EventHeap::default();
        for &t in &[5u64, 5, 100_000, 3, 70_000, 0, 1 << 22] {
            h.schedule(SimTime::from_secs(t), EventKind::Tick);
        }
        let events: Vec<Event> = h.sorted().into_iter().cloned().collect();
        let mut rebuilt = EventHeap::restore(events.clone(), h.seq());
        for want in events {
            assert_eq!(rebuilt.pop(), Some(want));
        }
        assert_eq!(rebuilt.pop(), None);
        rebuilt.schedule(SimTime::ZERO, EventKind::Sample);
        assert_eq!(
            rebuilt.pop().map(|e| e.seq),
            Some(8),
            "the sequence continues"
        );
    }
}
