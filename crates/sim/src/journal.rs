//! The write-ahead admission journal and the recovery protocol built on
//! it.
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
//! Admissions always happen at batch boundaries (between
//! [`ClusterService::step`] calls), and the journal's `steps` anchor
//! reproduces exactly that boundary.

use gfs_cluster::Scheduler;
use gfs_types::{DynamicsPlan, SimTime, TaskSpec};
use serde::{Deserialize, Serialize};

use crate::service::ClusterService;
use crate::snapshot::fnv1a;

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
    let mut out: Vec<JournalRecord> = Vec::new();
    for (i, record) in lines.iter().enumerate() {
        if record.trim().is_empty() {
            continue;
        }
        let line = i + 1;
        let corrupt = |reason: &str| JournalError::Corrupt {
            line,
            reason: reason.to_string(),
        };
        let mut p = serde::de::Parser::new(record);
        let parsed = JournalRecord::deserialize_json(&mut p).ok();
        let err = match parsed.filter(|_| p.at_end()) {
            None if line == lines.len() => JournalError::Truncated { line },
            None => corrupt("unparseable record"),
            Some(rec) if !rec.checksum_ok() => corrupt("checksum mismatch"),
            Some(rec) if rec.seq <= out.last().map_or(0, |last| last.seq) => {
                JournalError::DuplicateSeq { line, seq: rec.seq }
            }
            Some(rec) => {
                out.push(rec);
                continue;
            }
        };
        return (out, Some(err));
    }
    (out, None)
}

/// The write-ahead journal: the admission counter, plus the JSONL text
/// once enabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// `None` while disabled: admissions are counted, not written.
    text: Option<String>,
    seq: u64,
}

impl Journal {
    /// A disabled journal that continues from admission number `seq`.
    pub(crate) fn resume(seq: u64) -> Self {
        Journal { text: None, seq }
    }

    /// Starts writing records; a no-op when already enabled.
    pub(crate) fn enable(&mut self) {
        self.text.get_or_insert_with(String::new);
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.text.is_some()
    }

    /// Counts one admission and, when enabled, writes its record.
    pub(crate) fn append(&mut self, at: SimTime, steps: u64, event: &AdmittedEvent) {
        if self.is_enabled() {
            let rec = JournalRecord::new(self.seq + 1, at, steps, event.clone());
            self.append_record(&rec);
        } else {
            self.seq += 1;
        }
    }

    /// Takes over a replayed record's admission number and, when
    /// enabled, re-writes it verbatim.
    pub(crate) fn append_record(&mut self, rec: &JournalRecord) {
        if let Some(text) = &mut self.text {
            rec.serialize_json(text);
            text.push('\n');
        }
        self.seq = rec.seq;
    }

    /// The journal as JSONL text (what would sit on durable storage).
    #[must_use]
    pub fn text(&self) -> &str {
        self.text.as_deref().unwrap_or_default()
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

impl ClusterService {
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
            if rec.seq <= self.journal.last_seq() {
                skipped += 1;
                continue;
            }
            while self.steps() < rec.steps && self.step(scheduler) {}
            self.journal.append_record(&rec);
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
    use crate::service::tests::{churn_service, golden, trace, FirstFit};
    use crate::{ServiceSnapshot, SimConfig};
    use gfs_cluster::Cluster;
    use gfs_types::GpuModel;

    #[test]
    fn journal_alone_recovers_a_run_from_nothing() {
        // original: journaled admissions, crashes before any snapshot
        let mut s = churn_service();
        s.enable_journal();
        s.admit_tasks(trace(24));
        s.start();
        for _ in 0..10 {
            s.step(&mut FirstFit);
        }
        let journal = s.journal().unwrap().text().to_string();
        drop(s); // the crash — no snapshot ever taken

        // recovery: a fresh service + full journal replay
        let mut r = churn_service();
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
            let mut s = churn_service();
            s.admit_tasks(seed.clone());
            s.start();
            s.run_until(late_at, &mut FirstFit);
            s.admit_tasks(late.clone());
            s.run_to_end(&mut FirstFit);
            s.finish()
        };

        // journaled original: snapshot early, admit late batch, crash
        let mut s = churn_service();
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
}
