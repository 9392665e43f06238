//! Per-cluster mutation log feeding epoch-invalidated read-side caches.
//!
//! Placement caches (the score index in `gfs_core`) need to know *which
//! nodes changed* since they last looked, without the cluster knowing who
//! is listening. The [`ChangeLog`] answers that with a bounded ring of
//! touched node ids plus a monotone cursor:
//!
//! * every cluster mutation that can affect a placement score appends the
//!   node id (occupancy changes, eviction records, fail/drain/restore,
//!   scale-out);
//! * a reader remembers the cursor from its last sync and calls
//!   [`ChangeLog::replay`] to visit exactly the ids touched since then;
//! * the ring is bounded — a reader that slept through more than the ring
//!   capacity gets `false` and must rebuild from the full cluster, so the
//!   log never grows with run length.
//!
//! Cursors are only meaningful against the *same* log instance: clones
//! and snapshot restores mint a fresh [`ChangeLog::instance`] id, so a
//! cache synced to one cluster can never silently mis-apply its cursor to
//! a copy. Declaring a failure-domain topology mints one too — it can
//! change what every node's cached key should be.

use std::sync::atomic::{AtomicU64, Ordering};

/// Ring capacity in entries. Power of two; 32k ids (128 KiB) comfortably
/// covers the mutations between two scheduling passes at fleet scale.
const RING_CAP: usize = 1 << 15;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn mint_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Bounded log of node ids touched by cluster mutations. See the module
/// docs for the reader protocol.
#[derive(Debug)]
pub struct ChangeLog {
    instance: u64,
    total: u64,
    ring: Vec<u32>,
}

impl Default for ChangeLog {
    fn default() -> Self {
        ChangeLog {
            instance: mint_instance(),
            total: 0,
            ring: Vec::new(),
        }
    }
}

impl Clone for ChangeLog {
    /// A cloned cluster is a *different* cluster as far as cursors are
    /// concerned: the clone carries the history but mints a fresh
    /// instance id, so readers synced to the original rebuild instead of
    /// replaying against diverging state.
    fn clone(&self) -> Self {
        ChangeLog {
            instance: mint_instance(),
            total: self.total,
            ring: self.ring.clone(),
        }
    }
}

impl ChangeLog {
    /// Identity of this log; unique per cluster value (clones and
    /// snapshot restores mint fresh ids).
    #[must_use]
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Cursor positioned after everything recorded so far.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.total
    }

    /// Records that `id` changed. Every call appends: collapsing even
    /// consecutive duplicates would be unsound, because a reader whose
    /// cursor already passed the earlier entry would never learn about
    /// the new mutation.
    pub fn note(&mut self, id: u32) {
        if self.ring.is_empty() {
            self.ring = vec![0; RING_CAP];
        }
        self.ring[(self.total as usize) & (RING_CAP - 1)] = id;
        self.total += 1;
    }

    /// Visits every id recorded since `from` (a cursor previously taken
    /// with [`ChangeLog::cursor`]), oldest first, possibly with
    /// duplicates. Returns `false` without calling `f` when the window
    /// has left the ring — the reader must rebuild from the cluster.
    pub fn replay(&self, from: u64, mut f: impl FnMut(u32)) -> bool {
        if from > self.total {
            return false;
        }
        let span = self.total - from;
        if span as usize > RING_CAP {
            return false;
        }
        for i in from..self.total {
            f(self.ring[(i as usize) & (RING_CAP - 1)]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_sees_exactly_the_window() {
        let mut log = ChangeLog::default();
        log.note(1);
        log.note(2);
        let cur = log.cursor();
        log.note(3);
        log.note(4);
        let mut seen = Vec::new();
        assert!(log.replay(cur, |id| seen.push(id)));
        assert_eq!(seen, vec![3, 4]);
    }

    #[test]
    fn duplicates_are_preserved_for_already_synced_readers() {
        let mut log = ChangeLog::default();
        log.note(7);
        let cur = log.cursor(); // reader consumed the first 7
        log.note(7); // same node mutated again — must still be visible
        let mut seen = Vec::new();
        assert!(log.replay(cur, |id| seen.push(id)));
        assert_eq!(seen, vec![7]);
    }

    #[test]
    fn overflow_demands_rebuild() {
        let mut log = ChangeLog::default();
        for i in 0..(RING_CAP as u32 + 10) {
            log.note(i);
        }
        assert!(!log.replay(0, |_| {}), "window fell off the ring");
        let cur = log.cursor();
        log.note(1);
        let mut seen = Vec::new();
        assert!(log.replay(cur, |id| seen.push(id)), "fresh cursor replays");
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn clones_mint_fresh_instances() {
        let log = ChangeLog::default();
        let copy = log.clone();
        assert_ne!(log.instance(), copy.instance());
    }

    #[test]
    fn future_cursor_is_rejected() {
        let log = ChangeLog::default();
        assert!(!log.replay(5, |_| {}));
    }
}
