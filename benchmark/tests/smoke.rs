//! A 1/20-scale run of all four sessions, checking what the benchmark
//! promises about its output rather than how fast anything is: every
//! end-to-end pair present with its unit, every per-layer metric of
//! `BENCHMARK.json` reported under a well-formed name, percentile sample
//! counts printed, no
//! failed operation, and the boundary proxy a passive observer (a wrapped
//! and a bare run give one `report_hash`).

use gfs_benchmark::compare::parse_result_line;
use gfs_benchmark::metrics::{end_to_end, per_layer, workload_names};
use gfs_benchmark::run::{run_traced, run_untraced, PASSES};
use gfs_benchmark::workloads::{Scale, Workload, DEFAULT_SEED};

const SMOKE: Scale = Scale(0.05);

#[test]
fn untraced_runs_report_every_end_to_end_pair() {
    for workload in Workload::ALL {
        let result = run_untraced(workload, DEFAULT_SEED, SMOKE);
        assert_eq!(result.failures, Vec::<String>::new(), "{}", workload.name());
        assert!(result.attempted >= 1);

        let line = parse_result_line(&result.result_line()).expect("the result line parses");
        assert!(line.correct && line.failed == 0);
        assert_eq!(line.attempted, result.attempted);
        let reported: Vec<(&str, &str)> = line
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.as_str(), unit.as_str()))
            .collect();
        let promised: Vec<(&str, &str)> = end_to_end().iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(reported, promised, "{}", workload.name());
        for (name, value, _) in &line.metrics {
            assert!(*value > 0.0, "{} {name} must never be 0", workload.name());
        }

        // a percentile is only as good as the samples behind it: both
        // counts are printed beside it, once per pass
        assert_eq!(result.text.matches(" samples, ").count(), PASSES);
        assert_eq!(result.text.matches(" beyond p99)").count(), PASSES);
        assert!(result.text.contains("sim.completed"));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        // run_traced runs the session bare and then wrapped in the proxy,
        // and fails unless both end in the same fingerprint, the same sim.*
        // statistics and the same exact counts: the proxy only observes
        let result = run_traced(workload, DEFAULT_SEED, SMOKE, None);
        assert_eq!(result.failures, Vec::<String>::new(), "{}", workload.name());
        let reported: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let promised: Vec<&str> = per_layer().iter().map(|m| m.name).collect();
        assert_eq!(reported, promised);
        for (name, value) in &result.metrics {
            assert!(value.is_finite(), "{name}");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}

#[test]
fn manifest_names_the_workloads_and_keeps_the_contract() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workload_names(), names);
    for m in end_to_end() {
        let bound = m.bound.expect("an end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
    }
    assert!(end_to_end()
        .iter()
        .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
}
