//! One benchmark run of one workload: the passes, the best over them, the
//! checks, and the text that is printed.
//!
//! Noise rules (the reasons are in `README.md`):
//! 1. an untraced run is [`PASSES`] full passes, set-up included, in one
//!    process, whatever the host and whatever `--seconds`; every
//!    end-to-end metric is the best of its per-pass values (interference
//!    on a shared host only ever slows a pass);
//! 2. no end-to-end metric is a single timed call;
//! 3. one driver thread, no workers;
//! 4. bounds are fixed in `BENCHMARK.json`, each from the spread measured
//!    for its metric;
//! 5. forecaster speed is a per-layer metric.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::compare::ResultLine;
use crate::metrics::{end_to_end, per_layer, unit_of};
use crate::session::{run_pass, Pass};
use crate::workloads::{Scale, Workload, DEFAULT_SEED};

/// Passes in an untraced run. Fixed, so that parent and change, a quiet
/// hour and a busy one, are all measured over the same work: the best of
/// more passes is a better number.
pub const PASSES: usize = 3;

/// `report_hash` (`fleet_hash` for `fleet_sparse`) of each workload at
/// [`DEFAULT_SEED`] and full scale. A change that speeds the simulator up
/// must leave these, and every `sim.*` statistic, as they are.
#[must_use]
pub fn pinned_fingerprint(workload: Workload) -> u64 {
    match workload {
        Workload::PaperLight => 0x7670_6a10_adc9_8024,
        Workload::PaperBacklog => 0x200a_7ea3_f063_3f16,
        Workload::FleetSparse => 0x8725_7139_44f1_dceb,
        Workload::ChurnRecover => 0xf34a_bc63_872d_d584,
    }
}

/// What a run reports: the contract's result line plus the text above it.
pub struct RunResult {
    pub attempted: u64,
    /// One line per failed operation or check; empty means correct.
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable report: per-pass lines, sample counts, `sim.*`.
    pub text: String,
}

impl RunResult {
    /// The last line of standard output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        ResultLine {
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failures.len() as u64,
            metrics: self
                .metrics
                .iter()
                .map(|&(name, value)| (name.to_string(), value, unit_of(name).to_string()))
                .collect(),
        }
        .to_line()
    }
}

/// Checks that apply to every pass of a run: the default-seed pin, and
/// that every pass ends in the fingerprint and the exact statistics of the
/// first.
fn cross_pass_checks(
    workload: Workload,
    seed: u64,
    scale: Scale,
    passes: &[Pass],
    failures: &mut Vec<String>,
) {
    let first = &passes[0];
    if seed == DEFAULT_SEED && scale == Scale::FULL {
        let pin = pinned_fingerprint(workload);
        if first.fingerprint != pin {
            failures.push(format!(
                "fingerprint {:016x} != pinned {pin:016x}",
                first.fingerprint
            ));
        }
    }
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.fingerprint != first.fingerprint {
            failures.push(format!(
                "pass {i} fingerprint {:016x} != pass 0 {:016x}",
                pass.fingerprint, first.fingerprint
            ));
        }
        for (name, value) in &pass.exact {
            match first.exact.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.to_bits() != value.to_bits() => {
                    failures.push(format!("{name}: pass {i} has {value}, pass 0 has {v}"));
                }
                _ => {} // a count only the traced pass takes
            }
        }
    }
}

fn describe_pass(text: &mut String, i: usize, pass: &mut Pass) {
    let _ = writeln!(
        text,
        "pass {i}: setup {:.3} s | {} tasks in {:.2} s = {:.0} tasks/s | step p50 {:.2} us p99 {:.1} us ({} samples, {} beyond p99) | checkpoint {:.2} ms x{} | recover {:.1} ms x{} | wall {:.2} s | peak rss {:.1} MB",
        pass.setup_s,
        pass.driver_tasks,
        pass.driver_tasks as f64 / pass.tasks_per_s(),
        pass.tasks_per_s(),
        pass.steps.percentile_us(0.50),
        pass.steps.percentile_us(0.99),
        pass.steps.len(),
        pass.steps.beyond(0.99),
        pass.checkpoint_ms(),
        pass.checkpoints,
        pass.recover_ms(),
        pass.drills,
        pass.wall_s,
        pass.peak_rss_mb.unwrap_or(0.0),
    );
}

fn describe_exact(text: &mut String, pass: &Pass) {
    let _ = writeln!(text, "fingerprint {:016x}", pass.fingerprint);
    for (name, value) in &pass.exact {
        let _ = writeln!(text, "  {name:<34} {value} {}", unit_of(name));
    }
}

/// A value that cannot be printed as a JSON number is a failed check.
fn finite(name: &str, value: f64, failures: &mut Vec<String>) -> f64 {
    if value.is_finite() {
        value
    } else {
        failures.push(format!("{name} is not a finite number"));
        0.0
    }
}

/// The untraced run: [`PASSES`] full passes. Gives the end-to-end metrics.
#[must_use]
pub fn run_untraced(workload: Workload, seed: u64, scale: Scale) -> RunResult {
    let started = Instant::now();
    let mut passes: Vec<Pass> = (0..PASSES)
        .map(|_| run_pass(workload, seed, scale, false))
        .collect();
    let measured_s = started.elapsed().as_secs_f64();

    let mut text = String::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for (i, pass) in passes.iter_mut().enumerate() {
        describe_pass(&mut text, i, pass);
        attempted += pass.attempted;
        failures.extend(pass.failures.iter().map(|f| format!("pass {i}: {f}")));
    }
    cross_pass_checks(workload, seed, scale, &passes, &mut failures);

    // at exit: covers every pass, so a leak from one pass to the next shows
    let peak_rss = passes[PASSES - 1].peak_rss_mb.unwrap_or_else(|| {
        failures.push("no VmHWM in /proc/self/status".into());
        0.0
    });
    // the best pass: the least disturbed one, metric by metric
    let metrics: Vec<(&'static str, f64)> = end_to_end()
        .iter()
        .map(|m| {
            let per_pass: Vec<f64> = passes
                .iter_mut()
                .map(|p| match m.name {
                    "setup_s" => p.setup_s,
                    "tasks_per_s" => p.tasks_per_s(),
                    "step_p50_us" => p.steps.percentile_us(0.50),
                    "step_p99_us" => p.steps.percentile_us(0.99),
                    "checkpoint_ms" => p.checkpoint_ms(),
                    "recover_ms" => p.recover_ms(),
                    "peak_rss_mb" => peak_rss, // one reading per run
                    other => panic!("BENCHMARK.json lists {other}, which no pass measures"),
                })
                .collect();
            let best = if m.better == "higher" {
                per_pass.iter().copied().fold(0.0, f64::max)
            } else {
                per_pass.iter().copied().fold(f64::INFINITY, f64::min)
            };
            (m.name, finite(m.name, best, &mut failures))
        })
        .collect();

    let _ = writeln!(
        text,
        "best of {PASSES} passes ({measured_s:.1} s measured):"
    );
    for (name, value) in &metrics {
        let _ = writeln!(text, "  {name:<34} {value:.4} {}", unit_of(name));
    }
    describe_exact(&mut text, &passes[0]);
    RunResult {
        attempted,
        failures,
        metrics,
        text,
    }
}

/// What each workload must keep stressing: `(what, measured, at least)`.
fn dominance(workload: Workload, traced: &Pass, reference: &Pass) -> (&'static str, f64, f64) {
    let shares = traced.shares.expect("a traced pass has step shares");
    match workload {
        Workload::PaperLight => ("on_tick share of step time", shares.tick, 0.50),
        Workload::PaperBacklog => ("schedule share of step time", shares.schedule, 0.60),
        Workload::FleetSparse => ("service self share of step time", shares.service_self, 0.50),
        Workload::ChurnRecover => (
            "checkpoint + drill share of the untraced pass wall",
            reference.crash_safety_share(),
            0.50,
        ),
    }
}

/// The traced run: one untraced reference pass, then one pass with the
/// boundary proxy and the midpoint probes. Gives the per-layer metrics,
/// checks that tracing changed nothing and that the workload still
/// stresses what it is for, and writes the spans to
/// `<out_dir>/<workload>.trace.json`.
#[must_use]
pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    out_dir: Option<&Path>,
) -> RunResult {
    let mut reference = run_pass(workload, seed, scale, false);
    let mut traced = run_pass(workload, seed, scale, true);

    let mut text = String::new();
    describe_pass(&mut text, 0, &mut reference);
    describe_pass(&mut text, 1, &mut traced);
    let mut failures: Vec<String> = Vec::new();
    failures.extend(
        reference
            .failures
            .iter()
            .map(|f| format!("untraced pass: {f}")),
    );
    failures.extend(traced.failures.iter().map(|f| format!("traced pass: {f}")));
    let attempted = reference.attempted + traced.attempted;

    let overhead =
        100.0 * (traced.simulation_s() - reference.simulation_s()) / reference.simulation_s();
    traced.layers.push(("bench.trace_overhead_pct", overhead));

    let (what, measured, at_least) = dominance(workload, &traced, &reference);
    let _ = writeln!(
        text,
        "dominance: {what} = {measured:.3} (at least {at_least})"
    );
    if scale == Scale::FULL && measured < at_least {
        failures.push(format!(
            "{} no longer stresses its layer: {what} is {measured:.3}, below {at_least}; re-size the workload",
            workload.name()
        ));
    }
    let accounted = traced
        .layers
        .iter()
        .find(|(n, _)| *n == "bench.accounted_pct")
        .map_or(0.0, |(_, v)| *v);
    if accounted < 95.0 {
        failures.push(format!(
            "only {accounted:.1} % of the traced pass wall is inside a named span"
        ));
    }

    let metrics: Vec<(&'static str, f64)> = per_layer()
        .iter()
        .map(|m| {
            let value = traced
                .layers
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, finite(m.name, value, &mut failures))
        })
        .collect();
    for (name, _) in &traced.layers {
        assert!(
            per_layer().iter().any(|m| m.name == *name),
            "{name} is measured but not in BENCHMARK.json"
        );
    }

    let passes = [reference, traced];
    cross_pass_checks(workload, seed, scale, &passes, &mut failures);
    let [_, traced] = passes;

    if let Some(dir) = out_dir {
        let session = format!("{}/seed{seed}/traced", workload.name());
        let path = dir.join(format!("{}.trace.json", workload.name()));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, traced.spans.to_json(&session, &traced.aggregates))
        });
        match written {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "trace: {} spans -> {}",
                    traced.spans.all().len(),
                    path.display()
                );
            }
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let _ = writeln!(text, "per-layer metrics (traced pass):");
    for (name, value) in &metrics {
        let _ = writeln!(text, "  {name:<34} {value:.6} {}", unit_of(name));
    }
    let _ = writeln!(text, "fingerprint {:016x}", traced.fingerprint);
    RunResult {
        attempted,
        failures,
        metrics,
        text,
    }
}
