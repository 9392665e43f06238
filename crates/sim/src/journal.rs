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
//! FNV-1a checksum over the canonical JSON of `seq|at|steps|` followed by
//! the `event` bytes exactly as written, and `event` an [`AdmittedEvent`]
//! (`Start`, `Tasks`, or `Plan`). The writer encodes the event once,
//! straight into the journal, and checksums those bytes. Records are
//! self-checking: a flipped byte fails the checksum, a chopped line fails
//! to parse, and a non-increasing `seq` is rejected as a duplicate.
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
//!    (already folded into the snapshot) — they are still checked for
//!    syntax and checksum, but their events are never decoded — and each
//!    remaining record first advances the service to the batch count it
//!    was admitted at and then re-applies the admission;
//! 3. a truncated or corrupted journal tail is detected, *rejected*, and
//!    reported via [`JournalReplay::rejected`] — the valid prefix is
//!    still applied, never the damaged suffix;
//! 4. drive the service to the end as usual. The result is bit-identical
//!    to the uninterrupted run (pinned by the `lab_recovery` grid).
//!
//! Admissions always happen at batch boundaries (between
//! [`ClusterService::step`] calls), and the journal's `steps` anchor
//! reproduces exactly that boundary.
//!
//! Because the checksum covers the event bytes as written, an event that
//! decodes to the same value but is spelled differently (inserted
//! whitespace, escaped keys, `1.50` for `1.5`) fails it: only the
//! canonical encoding the writer produced is accepted.

use gfs_cluster::Scheduler;
use gfs_types::{DynamicsPlan, SimTime, TaskSpec};
use serde::de::{DeError, Parser};
use serde::{Deserialize, Serialize};

use crate::service::ClusterService;
use crate::snapshot::{fnv1a, fnv1a_from};

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
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(Serialize, Deserialize))]
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
    /// FNV-1a over `seq|at|steps|` and the event bytes as written.
    pub crc: u64,
    /// The admission itself.
    pub event: AdmittedEvent,
}

/// FNV-1a over the canonical `seq|at|steps|` followed by `event`, the
/// event's bytes as they stand in the journal.
fn record_crc(seq: u64, at: SimTime, steps: u64, event: &str) -> u64 {
    let mut head = String::new();
    seq.serialize_json(&mut head);
    head.push('|');
    at.serialize_json(&mut head);
    head.push('|');
    steps.serialize_json(&mut head);
    head.push('|');
    fnv1a_from(fnv1a(head.as_bytes()), event.as_bytes())
}

/// Writes a record line up to its event:
/// `{"seq":N,"at":T,"steps":S,"crc":C,"event":`.
fn write_head(out: &mut String, seq: u64, at: SimTime, steps: u64, crc: u64) {
    out.push_str("{\"seq\":");
    seq.serialize_json(out);
    out.push_str(",\"at\":");
    at.serialize_json(out);
    out.push_str(",\"steps\":");
    steps.serialize_json(out);
    out.push_str(",\"crc\":");
    crc.serialize_json(out);
    out.push_str(",\"event\":");
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

/// A journal line read as a record: its header decoded, its event still
/// the bytes it was written as.
struct RawRecord<'a> {
    /// 1-based journal line.
    line: usize,
    /// Whether this is the journal's last line.
    last: bool,
    seq: u64,
    at: SimTime,
    steps: u64,
    crc: u64,
    event: &'a str,
}

/// The error for a record that does not parse: a torn tail on the last
/// line, damage anywhere else.
fn unparseable(line: usize, last: bool) -> JournalError {
    if last {
        JournalError::Truncated { line }
    } else {
        JournalError::Corrupt {
            line,
            reason: "unparseable record".to_string(),
        }
    }
}

impl RawRecord<'_> {
    /// Decodes the event. Only records a caller applies pay for this.
    fn decode_event(&self) -> Result<AdmittedEvent, JournalError> {
        let mut p = Parser::new(self.event);
        AdmittedEvent::deserialize_json(&mut p)
            .ok()
            .filter(|_| p.at_end())
            .ok_or_else(|| unparseable(self.line, self.last))
    }
}

/// Reads one record line — `seq`, `at`, `steps` and `crc` decoded, the
/// event taken as its raw text — with the derived decoders' rules: keys
/// in any order, unknown keys skipped, the last of a repeated key wins.
fn scan_line(text: &str, line: usize, last: bool) -> Result<RawRecord<'_>, DeError> {
    let mut p = Parser::new(text);
    let (mut seq, mut at, mut steps, mut crc, mut event) = (None, None, None, None, None);
    p.expect_char('{')?;
    if !p.consume_char('}') {
        loop {
            let key = p.parse_str()?;
            p.expect_char(':')?;
            match &*key {
                "seq" => seq = Some(u64::deserialize_json(&mut p)?),
                "at" => at = Some(SimTime::deserialize_json(&mut p)?),
                "steps" => steps = Some(u64::deserialize_json(&mut p)?),
                "crc" => crc = Some(u64::deserialize_json(&mut p)?),
                "event" => event = Some(p.raw_value()?),
                _ => p.skip_value()?,
            }
            if !p.consume_char(',') {
                p.expect_char('}')?;
                break;
            }
        }
    }
    if !p.at_end() {
        return Err(DeError::msg("trailing characters"));
    }
    Ok(RawRecord {
        line,
        last,
        seq: seq.ok_or_else(|| DeError::missing("seq"))?,
        at: at.ok_or_else(|| DeError::missing("at"))?,
        steps: steps.ok_or_else(|| DeError::missing("steps"))?,
        crc: crc.ok_or_else(|| DeError::missing("crc"))?,
        event: event.ok_or_else(|| DeError::missing("event"))?,
    })
}

/// Checks one non-blank line: syntax, then the checksum over the event
/// bytes as written, then the sequence number — the precedence of the
/// error classes.
fn check_line(
    text: &str,
    line: usize,
    last: bool,
    last_seq: u64,
) -> Result<RawRecord<'_>, JournalError> {
    let rec = scan_line(text, line, last).map_err(|_| unparseable(line, last))?;
    if record_crc(rec.seq, rec.at, rec.steps, rec.event) != rec.crc {
        // a record whose event does not decode was unparseable before it
        // was corrupt
        rec.decode_event()?;
        return Err(JournalError::Corrupt {
            line,
            reason: "checksum mismatch".to_string(),
        });
    }
    if rec.seq <= last_seq {
        return Err(JournalError::DuplicateSeq { line, seq: rec.seq });
    }
    Ok(rec)
}

/// The one journal scanner, behind both [`parse_journal`] and
/// [`ClusterService::replay_journal`]: hands the records of the longest
/// valid prefix to `visit` in order, their events undecoded, and returns
/// the error that ended the prefix — a damaged line, or the first error
/// `visit` returns.
fn scan_journal<'a>(
    text: &'a str,
    mut visit: impl FnMut(RawRecord<'a>) -> Result<(), JournalError>,
) -> Option<JournalError> {
    let mut lines = text.lines().enumerate().peekable();
    let mut last_seq = 0;
    while let Some((i, text)) = lines.next() {
        if text.trim().is_empty() {
            continue;
        }
        let checked = check_line(text, i + 1, lines.peek().is_none(), last_seq).and_then(|rec| {
            last_seq = rec.seq;
            visit(rec)
        });
        if let Err(e) = checked {
            return Some(e);
        }
    }
    None
}

/// Parses a JSONL journal into its longest valid prefix. Returns the
/// parsed records plus the error that stopped parsing, if any: a parse
/// failure on the *last* line is [`JournalError::Truncated`] (a torn
/// append), anywhere else — or any checksum mismatch — is
/// [`JournalError::Corrupt`], and a non-increasing sequence number is
/// [`JournalError::DuplicateSeq`].
#[must_use]
pub fn parse_journal(text: &str) -> (Vec<JournalRecord>, Option<JournalError>) {
    let mut out: Vec<JournalRecord> = Vec::new();
    let rejected = scan_journal(text, |rec| {
        out.push(JournalRecord {
            seq: rec.seq,
            at: rec.at,
            steps: rec.steps,
            crc: rec.crc,
            event: rec.decode_event()?,
        });
        Ok(())
    });
    (out, rejected)
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

    /// Counts one admission and, when enabled, writes its record: the
    /// event is encoded once, in place, and checksummed as written.
    pub(crate) fn append(&mut self, at: SimTime, steps: u64, event: &AdmittedEvent) {
        self.seq += 1;
        if let Some(text) = &mut self.text {
            let start = text.len();
            event.serialize_json(text);
            let crc = record_crc(self.seq, at, steps, &text[start..]);
            let mut head = String::new();
            write_head(&mut head, self.seq, at, steps, crc);
            text.insert_str(start, &head);
            text.push_str("}\n");
        }
    }

    /// Takes over a replayed record's admission number and, when
    /// enabled, re-writes it verbatim.
    fn append_record(&mut self, rec: &RawRecord<'_>) {
        if let Some(text) = &mut self.text {
            write_head(text, rec.seq, rec.at, rec.steps, rec.crc);
            text.push_str(rec.event);
            text.push_str("}\n");
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
    /// checked and skipped without decoding their events; each remaining
    /// record advances the run to the batch count it was admitted at and
    /// re-applies the admission — reproducing the original interleaving
    /// exactly. A damaged tail is rejected — the valid prefix is applied,
    /// the error is reported in [`JournalReplay::rejected`]. When this
    /// service's own journal is enabled, applied records are re-appended
    /// verbatim so the journal stays continuous across the recovery.
    pub fn replay_journal(&mut self, text: &str, scheduler: &mut dyn Scheduler) -> JournalReplay {
        let covered = self.journal.last_seq();
        let (mut applied, mut skipped) = (0, 0);
        let rejected = scan_journal(text, |rec| {
            if rec.seq <= covered {
                skipped += 1;
                return Ok(());
            }
            let event = rec.decode_event()?;
            while self.steps() < rec.steps && self.step(scheduler) {}
            self.journal.append_record(&rec);
            self.apply_admission(event);
            applied += 1;
            Ok(())
        });
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
    use gfs_types::{ClusterEvent, GpuModel, NodeId};

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

    /// The journal algorithm before the scanner, kept as its reference:
    /// decode each whole record, re-encode `seq|at|steps|event`, checksum
    /// the re-encoding.
    fn reference_parse(text: &str) -> (Vec<JournalRecord>, Option<JournalError>) {
        let lines: Vec<&str> = text.lines().collect();
        let mut out: Vec<JournalRecord> = Vec::new();
        for (i, record) in lines.iter().enumerate() {
            if record.trim().is_empty() {
                continue;
            }
            let line = i + 1;
            let mut p = Parser::new(record);
            let parsed = JournalRecord::deserialize_json(&mut p).ok();
            let err = match parsed.filter(|_| p.at_end()) {
                None => unparseable(line, line == lines.len()),
                Some(rec)
                    if record_crc(rec.seq, rec.at, rec.steps, &canonical(&rec)) != rec.crc =>
                {
                    JournalError::Corrupt {
                        line,
                        reason: "checksum mismatch".to_string(),
                    }
                }
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

    /// The canonical encoding of a record's event.
    fn canonical(rec: &JournalRecord) -> String {
        serde_json::to_string(&rec.event).unwrap()
    }

    /// The replay loop before the scanner, over already-parsed records.
    fn reference_replay(
        s: &mut ClusterService,
        (records, rejected): (Vec<JournalRecord>, Option<JournalError>),
    ) -> JournalReplay {
        let (mut applied, mut skipped) = (0, 0);
        for rec in records {
            if rec.seq <= s.journal.last_seq() {
                skipped += 1;
                continue;
            }
            while s.steps() < rec.steps && s.step(&mut FirstFit) {}
            s.journal = Journal::resume(rec.seq);
            s.apply_admission(rec.event);
            applied += 1;
        }
        JournalReplay {
            applied,
            skipped,
            rejected,
        }
    }

    fn small_service() -> ClusterService {
        ClusterService::new(
            Cluster::homogeneous(2, GpuModel::A100, 8),
            SimConfig::default(),
        )
    }

    /// A `Tasks`, `Start`, `Plan` journal, plus a snapshot taken after the
    /// first two records.
    fn three_record_journal() -> (String, String) {
        let mut s = small_service();
        s.enable_journal();
        s.admit_tasks(trace(2));
        s.start();
        s.step(&mut FirstFit);
        let snap = s.snapshot_json(&FirstFit);
        s.admit_plan(
            &DynamicsPlan::new(vec![ClusterEvent::down(
                NodeId::new(1),
                SimTime::from_secs(900),
            )])
            .unwrap(),
        );
        s.step(&mut FirstFit);
        let text = s.journal().unwrap().text().to_string();
        assert_eq!(text.lines().count(), 3);
        (text, snap)
    }

    /// Replays `text` on a fresh service and on one restored from `snap`
    /// (which covers the first two records), with the scanner and with the
    /// reference over `expected`; both must agree, state included.
    fn assert_replays_agree(
        text: &str,
        snap: &str,
        expected: &(Vec<JournalRecord>, Option<JournalError>),
    ) {
        let fresh = || small_service();
        let restored = || {
            ClusterService::restore(ServiceSnapshot::from_json(snap).unwrap(), &mut FirstFit)
                .unwrap()
        };
        for start in [&fresh as &dyn Fn() -> ClusterService, &restored] {
            let mut new = start();
            let mut reference = start();
            assert_eq!(
                new.replay_journal(text, &mut FirstFit),
                reference_replay(&mut reference, expected.clone()),
                "{text:?}"
            );
            assert_eq!(
                new.state_hash(&FirstFit),
                reference.state_hash(&FirstFit),
                "{text:?}"
            );
        }
    }

    /// Checks one damaged journal against the reference. The scanner may
    /// differ in one way only: a record the reference accepts because its
    /// event re-encodes canonically, although the bytes on the line are
    /// not that encoding, is a checksum mismatch now.
    fn assert_matches_reference(text: &str, snap: &str) {
        let new = parse_journal(text);
        let reference = reference_parse(text);
        if new != reference {
            let k = new.0.len();
            let line = match &new.1 {
                Some(JournalError::Corrupt { line, reason }) if reason == "checksum mismatch" => {
                    *line
                }
                other => panic!("{text:?}: {other:?} where the reference gives {reference:?}"),
            };
            assert_eq!(new.0[..], reference.0[..k], "{text:?}");
            let accepted = reference
                .0
                .get(k)
                .expect("the reference accepted the record");
            let raw = scan_line(text.lines().nth(line - 1).unwrap(), line, false).unwrap();
            assert_ne!(
                raw.event,
                canonical(accepted),
                "{text:?}: a canonical event rejected"
            );
        }
        assert_replays_agree(text, snap, &new);
    }

    #[test]
    fn scanner_agrees_with_the_reference_on_every_truncation_and_flip() {
        let (text, snap) = three_record_journal();
        assert_eq!(parse_journal(&text), reference_parse(&text));
        assert_eq!(parse_journal(&text).0.len(), 3);
        for cut in 0..text.len() {
            assert_matches_reference(&text[..cut], &snap);
        }
        // every flip of one of the seven low bits keeps the journal ASCII
        for at in 0..text.len() {
            for bit in 0..7 {
                let mut bytes = text.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                let flipped = String::from_utf8(bytes).expect("ASCII stays ASCII");
                assert_matches_reference(&flipped, &snap);
            }
        }
    }

    #[test]
    fn non_canonical_event_bytes_fail_the_checksum() {
        let (text, _) = three_record_journal();
        let tasks = text.lines().next().unwrap();
        // the same event with whitespace inside it: it decodes and
        // re-encodes to the checksummed bytes, but is not those bytes
        let spaced = tasks.replacen("{\"Tasks\":[", "{\"Tasks\": [", 1);
        assert_ne!(spaced, tasks);
        assert_eq!(
            reference_parse(&spaced).0.len(),
            1,
            "the reference accepts it"
        );
        assert_eq!(
            parse_journal(&spaced),
            (
                Vec::new(),
                Some(JournalError::Corrupt {
                    line: 1,
                    reason: "checksum mismatch".to_string()
                })
            )
        );
        // an escaped key inside the event is the same kind of re-spelling
        let escaped = tasks.replacen("\"pods\":", "\"p\\u006fds\":", 1);
        assert_eq!(reference_parse(&escaped).0.len(), 1);
        assert!(parse_journal(&escaped).1.is_some());
        // whitespace *before* the event is not part of its bytes
        let leading = tasks.replacen("\"event\":", "\"event\": ", 1);
        assert_eq!(parse_journal(&leading).0.len(), 1);
    }

    #[test]
    fn replay_stops_at_a_damaged_record_the_snapshot_covers() {
        let (text, snap) = three_record_journal();
        let first = text.lines().next().unwrap();
        let damaged = text.replacen(first, &first.replacen("\"pods\":1", "\"pods\":2", 1), 1);
        assert_ne!(damaged, text);
        let mut r =
            ClusterService::restore(ServiceSnapshot::from_json(&snap).unwrap(), &mut FirstFit)
                .unwrap();
        assert_eq!(
            r.journal.last_seq(),
            2,
            "the snapshot covers Tasks and Start"
        );
        assert_eq!(
            r.replay_journal(&damaged, &mut FirstFit),
            JournalReplay {
                applied: 0,
                skipped: 0,
                rejected: Some(JournalError::Corrupt {
                    line: 1,
                    reason: "checksum mismatch".to_string()
                }),
            }
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let (text, _) = three_record_journal();
        let nested = |depth: usize| {
            let extra = format!("{{\"x\":{}{},", "[".repeat(depth), "]".repeat(depth));
            text.replacen('{', &extra, 1)
        };
        assert_eq!(parse_journal(&nested(100)), parse_journal(&text));
        assert_eq!(
            parse_journal(&nested(100_000)),
            (
                Vec::new(),
                Some(JournalError::Corrupt {
                    line: 1,
                    reason: "unparseable record".to_string()
                })
            )
        );
        let line = format!(
            "{{\"seq\":1,\"x\":{}{}}}",
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        assert_eq!(
            parse_journal(&line).1,
            Some(JournalError::Truncated { line: 1 })
        );
        let mut s = small_service();
        assert!(s
            .replay_journal(&nested(100_000), &mut FirstFit)
            .rejected
            .is_some());
    }

    #[test]
    fn the_writer_encodes_each_record_as_the_derived_encoder_would() {
        let (text, _) = three_record_journal();
        let records = reference_parse(&text).0;
        assert_eq!(records.len(), 3);
        for (line, rec) in text.lines().zip(records) {
            assert_eq!(line, serde_json::to_string(&rec).unwrap());
        }
    }
}
