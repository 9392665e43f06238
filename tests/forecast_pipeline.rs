//! Integration of the forecasting stack with the scenario glue: training
//! on generated org demand and feeding the SQA quota computation.

use gfs::forecast::dataset::Sample;
use gfs::prelude::*;
use gfs::scenario::{org_template, org_template_scaled, trained_gde, GdeModel};

#[test]
fn orglinear_beats_naive_peak_on_org_demand() {
    let data = org_template(6, 168, 24, 17);
    let cfg = TrainConfig {
        epochs: 12,
        stride: 7,
        ..TrainConfig::default()
    };
    let mut org = OrgLinear::new(&data, 3);
    let org_scores = gfs::forecast::evaluate(&mut org, &data, &cfg);
    let mut peak = LastWeekPeak::new();
    let peak_scores = gfs::forecast::evaluate(&mut peak, &data, &cfg);
    assert!(
        org_scores.mae < peak_scores.mae,
        "OrgLinear MAE {:.2} must beat LastWeekPeak {:.2}",
        org_scores.mae,
        peak_scores.mae
    );
    assert!(org_scores.maqe90.is_some(), "OrgLinear is probabilistic");
}

/// The GDE of the quota pipeline: OrgLinear trained on three weeks of org
/// demand scaled to a mean of 120 GPUs, forecasting `H = 4` hours.
fn pipeline_gde() -> (DemandEstimator, usize) {
    let template = org_template_scaled(3, 168, 4, 5, Some(120.0));
    let mut cfg = TrainConfig::fast();
    cfg.epochs = 8;
    cfg.stride = 7;
    let gde = trained_gde(&template, GdeModel::OrgLinear, &cfg, 5);
    (gde, template.horizon())
}

#[test]
fn gde_quota_pipeline_produces_sane_inventory() {
    let (gde, _) = pipeline_gde();
    let agg = gde.aggregate_upper(0.9, 1);
    // p90 aggregate must sit near-but-above the scaled mean of 120
    assert!(agg > 90.0 && agg < 240.0, "aggregate p90 demand {agg}");
    let cluster = Cluster::homogeneous(32, GpuModel::A100, 8); // 256 GPUs
    let mut sqa = gfs::core::SpotQuotaAllocator::new(GfsParams::default());
    sqa.update(SimTime::from_secs(300), &cluster, agg);
    assert!(
        sqa.quota() > 0.0,
        "a half-loaded forecast must leave spot inventory"
    );
    assert!(sqa.quota() <= 256.0);
}

/// Eq. 9–10 are monotone. `aggregate_upper(p, h)` is
/// `Σ_o max(0, ŷ_o|p[1]…ŷ_o|p[h])`: raising `h` adds terms to each max,
/// and each `ŷ_o|p = μ + σ·z(p)` with `σ ≥ 0` (OrgLinear floors it) and
/// `z` the monotone Gaussian quantile, so raising `p` raises no term —
/// IEEE `+`, `max` and `×` by a non-negative factor are monotone. The
/// quota `min(η·max(0, C − upper), idle + spot)` at fixed `η` therefore
/// never rises with the forecast. Checked exactly, on the trained GDE.
#[test]
fn gde_forecast_and_quota_are_monotone() {
    let (gde, horizon) = pipeline_gde();
    let ps: Vec<f64> = (50..100).map(|c| f64::from(c) / 100.0).collect();
    let grid: Vec<Vec<f64>> = ps
        .iter()
        .map(|&p| (1..=horizon).map(|h| gde.aggregate_upper(p, h)).collect())
        .collect();
    for (i, row) in grid.iter().enumerate() {
        for h in 1..horizon {
            assert!(
                row[h - 1] <= row[h],
                "p {}: h {h} gives {} > h {} gives {}",
                ps[i],
                row[h - 1],
                h + 1,
                row[h]
            );
        }
        if let Some(next) = grid.get(i + 1) {
            for h in 0..horizon {
                assert!(
                    row[h] <= next[h],
                    "h {}: p {} gives {} > p {} gives {}",
                    h + 1,
                    ps[i],
                    row[h],
                    ps[i + 1],
                    next[h]
                );
            }
        }
    }
    // the quota of a fresh allocator at each forecast, smallest first,
    // with both clamps in range
    let cluster = Cluster::homogeneous(32, GpuModel::A100, 8);
    let mut uppers: Vec<f64> = grid.into_iter().flatten().collect();
    uppers.extend([0.0, 2.0 * cluster.capacity(None)]);
    uppers.sort_by(f64::total_cmp);
    let quota = |upper: f64| {
        let mut sqa = gfs::core::SpotQuotaAllocator::new(GfsParams::default());
        sqa.update(SimTime::from_secs(300), &cluster, upper);
        sqa.quota()
    };
    for pair in uppers.windows(2) {
        let (lo, hi) = (quota(pair[0]), quota(pair[1]));
        assert!(
            hi <= lo,
            "forecast {} gives quota {lo}, larger forecast {} gives {hi}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn forecast_quantiles_are_ordered() {
    let data = org_template(4, 168, 24, 8);
    let mut cfg = TrainConfig::fast();
    cfg.epochs = 6;
    let mut m = OrgLinear::new(&data, 2);
    m.fit(&data, &cfg);
    let f = m.predict(&data, Sample { org: 1, start: 200 });
    let q50 = f.quantile(0.5);
    let q90 = f.quantile(0.9);
    let q99 = f.quantile(0.99);
    for i in 0..q50.len() {
        assert!(
            q50[i] <= q90[i] && q90[i] <= q99[i],
            "quantile crossing at {i}"
        );
    }
}

#[test]
fn trace_round_trip_preserves_workload() {
    let tasks = WorkloadGenerator::new(WorkloadConfig {
        hp_tasks: 50,
        spot_tasks: 10,
        seed: 9,
        ..WorkloadConfig::default()
    })
    .generate();
    let tf = gfs::trace::TraceFile::new("integration", tasks.clone());
    let mut buf = Vec::new();
    tf.write_json(&mut buf).expect("serialize");
    let back = gfs::trace::TraceFile::read_json(buf.as_slice()).expect("parse");
    assert_eq!(back.tasks, tasks);
}
