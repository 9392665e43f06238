//! Integration of the forecasting stack with the scenario glue: training
//! on generated org demand and feeding the SQA quota computation.

use gfs::core::SpotQuotaAllocator;
use gfs::forecast::dataset::Sample;
use gfs::prelude::*;
use gfs::scenario::{org_template, org_template_scaled, trained_gde, GdeModel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

/// One recorded spot outcome of the Eq. 11 relations, by task id.
#[derive(Debug, Clone, Copy)]
enum Spot {
    Submitted(u64),
    /// A run start after this many seconds in the queue.
    Started(u64, u64),
    Evicted(u64),
}

/// η after one `update` at `now` of a fresh default allocator that
/// recorded `history` in time order (the eviction window is a queue).
fn eta_after(history: &[(SimTime, Spot)], now: SimTime) -> f64 {
    let mut events = history.to_vec();
    events.sort_by_key(|&(at, _)| at);
    let mut sqa = SpotQuotaAllocator::new(GfsParams::default());
    for (at, spot) in events {
        match spot {
            Spot::Submitted(t) => sqa.record_spot_submitted(TaskId::new(t), at),
            Spot::Started(t, queued) => sqa.record_spot_start(TaskId::new(t), at, queued),
            Spot::Evicted(t) => sqa.record_eviction(TaskId::new(t), at),
        }
    }
    sqa.update(now, &Cluster::homogeneous(4, GpuModel::A100, 8), 0.0);
    sqa.eta()
}

/// A seeded three-hour spot history: every task is submitted and most
/// start after a queueing delay, a share of those is evicted. The delay
/// bound, the share of tasks that never start and the eviction share vary
/// by seed, so Eq. 11 shrinks, grows and holds η across seeds.
fn spot_history(rng: &mut ChaCha8Rng) -> Vec<(SimTime, Spot)> {
    let span = 3 * HOUR;
    let max_queue = [600, 2 * HOUR][rng.gen_range(0..2usize)];
    let stall = [0.0, 0.2][rng.gen_range(0..2usize)];
    let evict_share = [0.0, 0.02, 0.1, 0.4][rng.gen_range(0..4usize)];
    let mut events = Vec::new();
    for task in 0..rng.gen_range(0..60u64) {
        let submit = rng.gen_range(0..span);
        events.push((SimTime::from_secs(submit), Spot::Submitted(task)));
        let start = submit + rng.gen_range(0..max_queue);
        if start >= span || rng.gen_bool(stall) {
            continue;
        }
        let started = Spot::Started(task, start - submit);
        events.push((SimTime::from_secs(start), started));
        if rng.gen_bool(evict_share) {
            let at = rng.gen_range(start..span);
            events.push((SimTime::from_secs(at), Spot::Evicted(task)));
        }
    }
    events
}

/// Eq. 11 points the right way, with everything else fixed:
///
/// - **An earlier submission never lowers η.** Moving a still-waiting
///   task's submission earlier changes neither `e` nor the outcome count;
///   it can only raise `l`, the longest wait. The shrink branch reads only
///   `e` and the count, the growth branch's factor `1.5 − e/budget` reads
///   only `e`, and a larger `l` can only move an unadjusted update into
///   the growth branch. The clamp is monotone. So η does not fall.
/// - **One more eviction inside the feedback window never raises η.** It
///   raises `e` (and the count), which can only move the update from
///   growth to no change to shrink and makes either factor smaller. Its
///   task re-enters the waiting set at the eviction time, a wait of at
///   most the window `H`, which under the default `θ = H` cannot lift
///   `l` past `θ` by itself.
/// - **Finding: one more eviction older than the window can raise η.**
///   `update` retires it from `e`, but `record_eviction` still puts its
///   task into the waiting set at the eviction time, so its wait can
///   exceed `θ` and open the growth branch. Such an eviction acts exactly
///   like an earlier submission, so the test asserts η does not fall,
///   and pins the smallest counterexample.
#[test]
fn sqa_eta_points_the_right_way() {
    let now = SimTime::from_secs(3 * HOUR);
    let window = GfsParams::default().guarantee_secs();
    let mut outcomes = [0usize; 3];
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for case in 0..400 {
        let history = spot_history(&mut rng);
        let base = eta_after(&history, now);
        outcomes[usize::from(base >= 1.0) + usize::from(base > 1.0)] += 1;

        let at = SimTime::from_secs(rng.gen_range(0..3 * HOUR));
        let with = |spot: Spot, at: SimTime| {
            let mut h = history.clone();
            h.push((at, spot));
            eta_after(&h, now)
        };
        let eta = with(Spot::Evicted(1_000), at);
        if now.since(at) <= window {
            assert!(
                eta <= base,
                "case {case}: eviction at {at:?} raised η {base} to {eta}"
            );
        } else {
            assert!(
                eta >= base,
                "case {case}: old eviction at {at:?} lowered η {base} to {eta}"
            );
        }

        // a task still waiting, submitted within the last hour or earlier
        let late = rng.gen_range(2 * HOUR..3 * HOUR);
        let earlier = SimTime::from_secs(rng.gen_range(0..late + 1));
        let late = SimTime::from_secs(late);
        let eta_late = with(Spot::Submitted(2_000), late);
        let eta = with(Spot::Submitted(2_000), earlier);
        assert!(
            eta >= eta_late,
            "case {case}: submission at {earlier:?} gives η {eta} < {eta_late} at {late:?}"
        );
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "the histories must shrink, hold and grow η: {outcomes:?}"
    );
    // the finding: one eviction two hours ago, nothing else, grows η
    let old = [(SimTime::ZERO, Spot::Evicted(0))];
    let later = SimTime::from_hours(2);
    assert_eq!(eta_after(&[], later), 1.0);
    assert_eq!(eta_after(&old, later), 1.5);
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
