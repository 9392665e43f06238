//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer (no product code is touched).
//!
//! Coarse spans — the parts of set-up, every checkpoint, every drill and
//! its parts, `finish` — stay individual: name, start, end, parent. The
//! millions of per-`step` and per-`schedule` calls never become spans;
//! they fold into [`Aggregate`]s (count, busy, self, p50, p99) as they
//! close. Everything is written out once, when the traced run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A folded family of calls too numerous to keep as spans.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub name: &'static str,
    /// Name of the span or aggregate these calls run inside.
    pub parent: &'static str,
    pub count: u64,
    pub busy_s: f64,
    /// Busy time minus the busy time of the aggregates nested inside.
    pub self_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Aggregate {
    #[must_use]
    pub fn from_samples(
        name: &'static str,
        parent: &'static str,
        samples: &mut Samples,
        nested_busy_s: f64,
    ) -> Self {
        let busy_s = samples.sum_secs();
        Aggregate {
            name,
            parent,
            count: samples.len() as u64,
            busy_s,
            self_s: busy_s - nested_busy_s,
            p50_us: samples.percentile_us(0.50),
            p99_us: samples.percentile_us(0.99),
        }
    }
}

/// The span recorder of one pass. All spans of a pass share its session
/// id (workload, seed, pass number).
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    #[must_use]
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the harness.
    pub fn close(&mut self, id: usize) -> Duration {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `f` inside a span; `f` may open nested spans.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    #[must_use]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    #[must_use]
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        self.secs_of(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Seconds covered by the direct children of span `id`.
    #[must_use]
    pub fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// Serialises the pass as one JSON document: the session id, every
    /// span with its self time, and the aggregates.
    #[must_use]
    pub fn to_json(&self, session: &str, aggregates: &[Aggregate]) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"session\":\"{session}\",\"spans\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_s = s.secs() - self.children_secs(id);
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{self_s:.9}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"aggregates\":[");
        for (i, a) in aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"parent\":\"{}\",\"count\":{},\"busy_s\":{:.9},\"self_s\":{:.9},\"p50_us\":{:.3},\"p99_us\":{:.3}}}",
                a.name, a.parent, a.count, a.busy_s, a.self_s, a.p50_us, a.p99_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut spans = Spans::new();
        let outer = spans.open("outer");
        spans.scope("inner", |s| {
            s.scope("leaf", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        spans.close(outer);
        let all = spans.all();
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert!(all[0].secs() >= all[1].secs() && all[1].secs() >= all[2].secs());
        assert!(spans.children_secs(0) >= 0.002);
        let json = spans.to_json("t/1/0", &[]);
        assert!(json.contains("\"name\":\"leaf\""));
    }
}
