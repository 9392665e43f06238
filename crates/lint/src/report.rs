//! Finding representation and the stable machine-readable report
//! encoding.
//!
//! # Report encoding
//!
//! Findings are always emitted sorted by `(path, line, rule)` — byte-wise
//! on the path, numerically on the line — so two runs over the same tree
//! produce byte-identical reports (the same property every golden pin in
//! this repo relies on). The JSON shape is fixed:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     {"path": "crates/core/src/sqa.rs", "line": 65, "rule": "det-iter", "message": "…"}
//!   ]
//! }
//! ```

use std::fmt::Write as _;

/// The rules the engine knows. See the crate docs for what each protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No iteration over `HashMap`/`HashSet` in decision paths.
    DetIter,
    /// No wall-clock reads outside the bench/timing allowlists.
    DetClock,
    /// Every `skip_serializing_if` field also carries `default`.
    GoldenSerde,
    /// Score-relevant cluster mutations go through logged helpers.
    ChangelogCoverage,
    /// No `unwrap`/`expect` in `ClusterService` journal/recovery paths.
    ServiceUnwrap,
    /// No heap allocation (`Box::new`, `Rc::new`, `.clone()`, `Vec::new`,
    /// `vec![]`) inside `// gfs-lint: hot(tape)` functions of `crates/nn`.
    TapeAlloc,
    /// A `gfs-lint:` pragma that does not parse (never suppressible).
    BadPragma,
}

impl RuleId {
    /// The rule's stable name, as used in reports and pragmas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::DetIter => "det-iter",
            RuleId::DetClock => "det-clock",
            RuleId::GoldenSerde => "golden-serde",
            RuleId::ChangelogCoverage => "changelog-coverage",
            RuleId::ServiceUnwrap => "service-unwrap",
            RuleId::TapeAlloc => "tape-alloc",
            RuleId::BadPragma => "bad-pragma",
        }
    }

    /// Parses a rule name (as written in a pragma or a report).
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        Some(match s {
            "det-iter" => RuleId::DetIter,
            "det-clock" => RuleId::DetClock,
            "golden-serde" => RuleId::GoldenSerde,
            "changelog-coverage" => RuleId::ChangelogCoverage,
            "service-unwrap" => RuleId::ServiceUnwrap,
            "tape-alloc" => RuleId::TapeAlloc,
            "bad-pragma" => RuleId::BadPragma,
            _ => return None,
        })
    }

    /// Every rule, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::DetIter,
        RuleId::DetClock,
        RuleId::GoldenSerde,
        RuleId::ChangelogCoverage,
        RuleId::ServiceUnwrap,
        RuleId::TapeAlloc,
        RuleId::BadPragma,
    ];
}

/// One finding: `path:line:rule` plus a human explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// What was found and why it matters.
    pub message: String,
}

/// Sorts findings into the canonical report order `(path, line, rule)`.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.name()).cmp(&(b.path.as_str(), b.line, b.rule.name()))
    });
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the canonical sorted JSON report. Byte-stable: the same
/// findings always produce the same bytes.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut sorted: Vec<Finding> = findings.to_vec();
    sort_findings(&mut sorted);
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"path\": \"");
        escape_json(&f.path, &mut out);
        let _ = write!(
            out,
            "\", \"line\": {}, \"rule\": \"{}\", \"message\": \"",
            f.line,
            f.rule.name()
        );
        escape_json(&f.message, &mut out);
        out.push_str("\"}");
    }
    if sorted.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Renders the human table: one aligned `path:line  rule  message` row per
/// finding, in canonical order.
#[must_use]
pub fn render_table(findings: &[Finding]) -> String {
    let mut sorted: Vec<Finding> = findings.to_vec();
    sort_findings(&mut sorted);
    if sorted.is_empty() {
        return "no findings\n".to_string();
    }
    let loc_w = sorted
        .iter()
        .map(|f| f.path.len() + 1 + digits(f.line))
        .max()
        .unwrap_or(0);
    let rule_w = sorted
        .iter()
        .map(|f| f.rule.name().len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for f in &sorted {
        let loc = format!("{}:{}", f.path, f.line);
        let _ = writeln!(
            out,
            "{loc:<loc_w$}  {rule:<rule_w$}  {msg}",
            rule = f.rule.name(),
            msg = f.message
        );
    }
    out
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("nope"), None);
    }
}
