//! Ready-made experiment scenarios: glue that assembles generators,
//! forecasters and schedulers the way the paper's evaluation does.

use gfs_core::{DemandEstimator, GfsScheduler, PtsScheduler, PtsVariant};
use gfs_forecast::dataset::{OrgDataset, OrgInfo};
use gfs_forecast::{Forecaster, LastWeekPeak, OrgLinear, TrainConfig};
use gfs_sched::PlacementPolicy;
use gfs_trace::{default_attr_vocab, generate_all, paper_orgs};
use gfs_types::GfsParams;

/// Builds the per-organization demand dataset used to train the GDE:
/// `weeks` of hourly history for the four Fig. 4 archetypes.
///
/// # Panics
///
/// Panics if `weeks == 0` or the window does not fit the history.
#[must_use]
pub fn org_template(weeks: usize, input_len: usize, horizon: usize, seed: u64) -> OrgDataset {
    org_template_scaled(weeks, input_len, horizon, seed, None)
}

/// Like [`org_template`], but linearly rescales all series so their summed
/// mean equals `target_total_mean` GPUs. Use this to make the warm-up
/// history consistent with the simulated cluster's expected HP load —
/// otherwise the Fig. 4 absolute levels (~300 GPUs across four orgs) would
/// saturate small clusters and Eq. 9 would never release spot inventory.
///
/// # Panics
///
/// Panics if `weeks == 0` or the window does not fit the history.
#[must_use]
pub fn org_template_scaled(
    weeks: usize,
    input_len: usize,
    horizon: usize,
    seed: u64,
    target_total_mean: Option<f64>,
) -> OrgDataset {
    assert!(weeks > 0, "need at least one week of history");
    let hours = weeks * 168;
    let archs = paper_orgs();
    let mut series = generate_all(&archs, hours, seed);
    if let Some(target) = target_total_mean {
        let total_mean: f64 = series
            .iter()
            .map(|s| s.iter().sum::<f64>() / s.len() as f64)
            .sum();
        if total_mean > 0.0 {
            let k = target / total_mean;
            for s in &mut series {
                for v in s.iter_mut() {
                    *v *= k;
                }
            }
        }
    }
    let orgs = archs
        .iter()
        .map(|a| OrgInfo {
            name: a.name.clone(),
            attrs: a.attrs.clone(),
        })
        .collect();
    OrgDataset::new(
        series,
        orgs,
        default_attr_vocab(),
        Vec::new(),
        input_len,
        horizon,
    )
    .expect("generated history fits the window")
}

/// Which forecaster drives the GDE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GdeModel {
    /// The paper's OrgLinear (§3.2).
    OrgLinear,
    /// The naive last-week-peak heuristic (`GFS-e` ablation, Table 8).
    LastWeekPeak,
}

/// Builds and trains a [`DemandEstimator`] on the template.
#[must_use]
pub fn trained_gde(
    template: &OrgDataset,
    model: GdeModel,
    train: &TrainConfig,
    seed: u64,
) -> DemandEstimator {
    let forecaster: Box<dyn Forecaster> = match model {
        GdeModel::OrgLinear => Box::new(OrgLinear::new(template, seed)),
        GdeModel::LastWeekPeak => Box::new(LastWeekPeak::new()),
    };
    let mut gde = DemandEstimator::new(forecaster, template);
    gde.fit(template, train);
    gde
}

/// Assembles the full GFS scheduler the way §4 deploys it: OrgLinear GDE
/// trained on `weeks` of history scaled to `expected_hp_gpus` (the mean HP
/// demand of the simulated workload), default Table 4 parameters.
#[must_use]
pub fn gfs_full(params: GfsParams, weeks: usize, seed: u64, expected_hp_gpus: f64) -> GfsScheduler {
    assemble(
        params,
        weeks,
        seed,
        expected_hp_gpus,
        GdeModel::OrgLinear,
        PtsVariant::Full,
        PlacementPolicy::naive(),
    )
}

fn assemble(
    params: GfsParams,
    weeks: usize,
    seed: u64,
    expected_hp_gpus: f64,
    model: GdeModel,
    variant: PtsVariant,
    policy: PlacementPolicy,
) -> GfsScheduler {
    let horizon = (params.guarantee_hours as usize).max(4);
    let template = org_template_scaled(weeks, 168, horizon, seed, Some(expected_hp_gpus));
    let cfg = TrainConfig {
        epochs: 15,
        stride: 7,
        seed,
        ..TrainConfig::default()
    };
    let gde = trained_gde(&template, model, &cfg, seed);
    GfsScheduler::with_policy(params, variant, Some(gde), policy)
}

/// A grid-ready GFS constructor named `name`: each run trains a `model`
/// GDE on `weeks` of history scaled to `hp_load` of the cell's cluster
/// capacity, seeded with the run seed, with the `variant` PTS and the
/// cell's parameter override and placement policy.
fn trained_spec(
    name: &'static str,
    weeks: usize,
    hp_load: f64,
    model: GdeModel,
    variant: PtsVariant,
) -> gfs_lab::SchedulerSpec {
    gfs_lab::SchedulerSpec::new(name, move |ctx| {
        let mut s = assemble(
            ctx.params.clone(),
            weeks,
            ctx.seed,
            hp_load * ctx.shape.capacity_gpus(),
            model,
            variant,
            ctx.policy.clone(),
        );
        s.set_display_name(name);
        Box::new(s)
    })
}

/// Grid-ready constructor for the full GFS framework (§4 deployment):
/// each run trains an OrgLinear GDE on `weeks` of history scaled to
/// `hp_load` of the cell's cluster capacity, seeded with the run seed and
/// configured with the cell's parameter override.
///
/// ```no_run
/// use gfs::lab::{ClusterShape, Grid, SchedulerSpec, Threads, WorkloadAxis};
/// use gfs::scenario;
/// use gfs_trace::WorkloadConfig;
///
/// let grid = Grid::new()
///     .schedulers(SchedulerSpec::baselines())
///     .scheduler(scenario::gfs_spec(3, 0.6))
///     .shape(ClusterShape::a100(32, 8))
///     .workload(WorkloadAxis::generated("medium", WorkloadConfig::default()))
///     .seeds([1, 2, 3]);
/// let result = grid.run(Threads::Auto);
/// ```
#[must_use]
pub fn gfs_spec(weeks: usize, hp_load: f64) -> gfs_lab::SchedulerSpec {
    trained_spec("GFS", weeks, hp_load, GdeModel::OrgLinear, PtsVariant::Full)
}

/// Grid-ready constructor for the `GFS-e` ablation (naive peak predictor
/// in the GDE, Table 8).
#[must_use]
pub fn gfs_naive_spec(weeks: usize, hp_load: f64) -> gfs_lab::SchedulerSpec {
    trained_spec(
        "GFS-e",
        weeks,
        hp_load,
        GdeModel::LastWeekPeak,
        PtsVariant::Full,
    )
}

/// Grid-ready constructor for one PTS ablation of Table 10 — `GFS-s`
/// (packing-only scoring), `GFS-p` (random preemption), `GFS-sp` (both)
/// or the full `GFS` — with the OrgLinear GDE of [`gfs_spec`].
#[must_use]
pub fn gfs_pts_spec(variant: PtsVariant, weeks: usize, hp_load: f64) -> gfs_lab::SchedulerSpec {
    let name = match variant {
        PtsVariant::Full => "GFS",
        PtsVariant::SimpleScoring => "GFS-s",
        PtsVariant::RandomPreemption => "GFS-p",
        PtsVariant::Degraded => "GFS-sp",
    };
    trained_spec(name, weeks, hp_load, GdeModel::OrgLinear, variant)
}

/// Grid-ready constructor for the estimator-free framework
/// (`GfsScheduler::with_defaults`, but honouring the cell's parameter
/// override): the quota degenerates to "all currently idle GPUs".
#[must_use]
pub fn gfs_no_gde_spec() -> gfs_lab::SchedulerSpec {
    // labelled like the scheduler names itself, so an ablation grid holding
    // both this and `gfs_spec` produces distinguishable rows
    gfs_lab::SchedulerSpec::new("GFS (no GDE)", |ctx| {
        Box::new(GfsScheduler::with_policy(
            ctx.params.clone(),
            PtsVariant::Full,
            None,
            ctx.policy.clone(),
        ))
    })
}

/// Grid-ready constructor for the bare PTS placement engine (no quota, no
/// estimator): the placement-policy ablation row. The cell's
/// [`PolicyAxis`](gfs_lab::PolicyAxis) point configures its placement, so
/// a grid comparing `naive` against `churn-aware` isolates exactly what
/// failure-domain spreading, drain avoidance and reliability scoring
/// contribute.
#[must_use]
pub fn pts_spec() -> gfs_lab::SchedulerSpec {
    gfs_lab::SchedulerSpec::new("PTS", |ctx| {
        Box::new(PtsScheduler::with_policy(
            ctx.params.clone(),
            ctx.policy.clone(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_shapes() {
        let t = org_template(3, 168, 4, 1);
        assert_eq!(t.num_orgs(), 4);
        assert_eq!(t.len_hours(), 3 * 168);
        assert_eq!(t.horizon(), 4);
    }

    #[test]
    fn naive_gde_scheduler_is_named_gfs_e() {
        use gfs_lab::{ClusterShape, RunContext};
        let shape = ClusterShape::a100(2, 8);
        let ctx = RunContext {
            shape: &shape,
            policy: &PlacementPolicy::naive(),
            params: &GfsParams::default(),
            seed: 1,
        };
        assert_eq!(gfs_naive_spec(2, 0.5).build(&ctx).name(), "GFS-e");
    }

    #[test]
    #[should_panic(expected = "at least one week")]
    fn zero_weeks_rejected() {
        let _ = org_template(0, 168, 4, 1);
    }

    #[test]
    fn grid_specs_build_named_schedulers() {
        use gfs_lab::{ClusterShape, RunContext};
        let shape = ClusterShape::a100(4, 8);
        let params = GfsParams::default();
        let policy = gfs_sched::PlacementPolicy::naive();
        let ctx = RunContext {
            shape: &shape,
            policy: &policy,
            params: &params,
            seed: 1,
        };
        let s = gfs_no_gde_spec().build(&ctx);
        assert_eq!(s.name(), "GFS (no GDE)");
        assert_eq!(gfs_naive_spec(2, 0.6).name(), "GFS-e");
        for (variant, name) in [
            (PtsVariant::SimpleScoring, "GFS-s"),
            (PtsVariant::RandomPreemption, "GFS-p"),
            (PtsVariant::Degraded, "GFS-sp"),
        ] {
            assert_eq!(gfs_pts_spec(variant, 2, 0.6).name(), name);
        }
    }
}
