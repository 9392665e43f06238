//! Runs over several workloads or several repetitions, each in a child
//! process of this same binary (`peak_rss_mb` is per process, and a child
//! is exactly what the acceptance driver starts):
//!
//! * `--workload all`: the four workloads once — all 28 end-to-end pairs,
//!   or with `--trace 1` every per-layer metric of every workload;
//! * `--aa K`: K alternating sets A, B of full runs of the same binary —
//!   for each pair the two medians, their relative difference and the
//!   bound; fails if two sets of the same code disagree by more than it.

use std::path::Path;
use std::process::{Command, Stdio};

use std::fmt::Write as _;

use crate::metrics::end_to_end;
use crate::stats::median;
use crate::workloads::Workload;

/// The result line of one child run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// One JSON object with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`: the last line of standard output.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.find(key).map(|i| &text[i + key.len()..])
}

fn scalar<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = after(text, key)?;
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Parses the result line this binary prints (not JSON in general).
#[must_use]
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let correct = scalar(line, "\"correct\": ")?.parse().ok()?;
    let attempted = scalar(line, "\"attempted\": ")?.parse().ok()?;
    let failed = scalar(line, "\"failed\": ")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = after(line, "\"metrics\": {")?;
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..open].rfind('"')? + 1..open];
        let body = &rest[open..];
        let value = scalar(body, "\"value\": ")?.parse().ok()?;
        let unit_text = after(body, "\"unit\": \"")?;
        let unit = &unit_text[..unit_text.find('"')?];
        metrics.push((name.to_string(), value, unit.to_string()));
        rest = after(body, "}")?;
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs one workload in a child process and parses its result line; a
/// run with failed operations still has one. With a `log`, the child's
/// whole standard output is kept under `out/`.
fn child(
    workload: Workload,
    seed: u64,
    trace: bool,
    log: Option<&str>,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if let Some(log) = log {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{log}.{}.seed{seed}.txt", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, stdout.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let line = stdout.lines().last().unwrap_or_default();
    let mut result = parse_result_line(line)
        .ok_or_else(|| format!("{}: no result line (exit {})", workload.name(), out.status))?;
    result.correct &= out.status.success();
    Ok(result)
}

fn value(result: &ResultLine, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

/// `--workload all`: every workload once, each metric on its own line,
/// then one result line over all of them (metrics named
/// `<workload>.<metric>`). Fails if any workload had a failed operation.
pub fn all(seed: u64, trace: bool) -> Result<(), String> {
    let mut total = ResultLine {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    println!("{:<14} {:<34} {:>16} unit", "workload", "metric", "value");
    for workload in Workload::ALL {
        let result = child(workload, seed, trace, None)?;
        for (name, value, unit) in &result.metrics {
            println!("{:<14} {name:<34} {value:>16.4} {unit}", workload.name());
        }
        println!(
            "{:<14} operations: {} attempted, {} failed",
            workload.name(),
            result.attempted,
            result.failed
        );
        total.correct &= result.correct;
        total.attempted += result.attempted;
        total.failed += result.failed;
        total.metrics.extend(
            result
                .metrics
                .into_iter()
                .map(|(name, value, unit)| (format!("{}.{name}", workload.name()), value, unit)),
        );
    }
    println!("{}", total.to_line());
    if total.correct {
        Ok(())
    } else {
        Err(format!(
            "{} of {} operations failed",
            total.failed, total.attempted
        ))
    }
}

/// `--aa K`: two sets of runs of the same code must agree within the
/// benchmark's own bounds on every pair.
pub fn aa(k: usize, seed: u64) -> Result<(), String> {
    // sets[side][workload] = the runs of that side, in order
    let mut sets: [Vec<Vec<ResultLine>>; 2] = [
        vec![Vec::new(); Workload::ALL.len()],
        vec![Vec::new(); Workload::ALL.len()],
    ];
    for round in 0..k {
        for (side, label) in ["A", "B"].into_iter().enumerate() {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!("set {label}{} {}", round + 1, workload.name());
                let log = format!("aa.{label}{}", round + 1);
                let run = child(workload, seed, false, Some(&log))?;
                if !run.correct {
                    return Err(format!(
                        "{}: {} of {} operations failed",
                        workload.name(),
                        run.failed,
                        run.attempted
                    ));
                }
                sets[side][w].push(run);
            }
        }
    }
    println!(
        "{:<14} {:<14} {:>13} {:>13} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    let mut over = 0;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for m in end_to_end() {
            let (name, bound) = (m.name, m.bound.expect("end-to-end metrics have bounds"));
            let side = |s: usize| {
                median(
                    &sets[s][w]
                        .iter()
                        .map(|r| value(r, name))
                        .collect::<Vec<_>>(),
                )
            };
            let (a, b) = (side(0), side(1));
            let diff = (b - a) / a;
            let flag = if diff.abs() > bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "{:<14} {name:<14} {a:>13.4} {b:>13.4} {:>+7.2}% {:>5.0}%{flag}",
                workload.name(),
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    if over > 0 {
        return Err(format!(
            "{over} of 28 pairs differ between A and B by more than their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"tasks_per_s\": {\"value\": 9000.5, \"unit\": \"tasks/s\"}}}";
        let r = parse_result_line(line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(
            r.metrics,
            vec![
                ("setup_s".to_string(), 1.25, "s".to_string()),
                ("tasks_per_s".to_string(), 9000.5, "tasks/s".to_string()),
            ]
        );
        assert_eq!(r.to_line(), line);
        assert_eq!(parse_result_line("cargo: error"), None);
    }
}
