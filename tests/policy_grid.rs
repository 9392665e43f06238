//! Determinism, pinning and *effectiveness* of the placement-policy axis
//! — the acceptance gate of churn-aware placement: under a pinned
//! correlated-failure grid whose blast radii have heterogeneous failure
//! rates (two flaky racks, two stable ones — the fleet reality the
//! reliability score exists for), domain-spread + reliability-scored
//! placement must *strictly reduce* displacement counts and displaced-JCT
//! against naive placement for both the bare PTS engine and the GFS
//! framework, while the grid stays byte-identical for any worker count.

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, PolicyAxis, Threads, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;
use gfs::sim::fnv1a;
use gfs_testkit::pin;

const RACK: u32 = 4;
const SIM_HORIZON: u64 = 72 * HOUR;

/// A controlled-duration trace: HP tasks of one fixed length arriving on
/// a seeded jittered cadence over 24 h (every sixth a two-pod gang, so
/// the spread term is exercised), plus a handful of checkpointed spot
/// tasks. Constant durations matter: with a log-normal body, "which tasks
/// end up displaced" correlates with duration and the displaced-JCT mean
/// measures set composition instead of placement quality. Here every
/// displaced task shares one baseline, so the metric isolates exactly the
/// overhead (restarts, repair waits, repeat displacements) a placement
/// policy can actually influence.
fn uniform_workload() -> WorkloadAxis {
    WorkloadAxis::uniform("uniform", gfs::lab::UniformTrace::default())
}

/// 2 schedulers × 1 racked shape × 1 flaky-rack timeline × 3 policies ×
/// 4 seeds = 6 cells / 24 runs. Racks 0–1 churn as units (90 min MTBF
/// per rack, 30 min repair — a meat grinder); racks 2–3 never fail, so
/// failure history is a genuine signal, not noise. Submissions span 24 h
/// — most placements happen *after* the flaky racks have shown their
/// colours, which is exactly the regime the reliability score exists
/// for.
fn policy_grid() -> Grid {
    Grid::new()
        .schedulers([scenario::pts_spec(), scenario::gfs_no_gde_spec()])
        .shape(ClusterShape::a100(16, 8).racked(RACK))
        .workload(uniform_workload())
        .dynamic(DynamicsAxis::new("flakyracks", |shape, seed| {
            let racks = FailureDomain::racks(shape.node_count(), RACK);
            DynamicsPlan::correlated(
                &racks[..2],
                1.5 * HOUR as f64,
                HOUR as f64 / 2.0,
                SIM_HORIZON,
                seed,
            )
        }))
        .policies([
            PolicyAxis::naive(),
            PolicyAxis::domain_spread(),
            PolicyAxis::churn_aware(),
        ])
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(SIM_HORIZON),
            ..SimConfig::default()
        })
}

#[test]
fn policy_grid_identical_across_thread_counts() {
    let grid = policy_grid();
    let serial = grid.run(Threads::Fixed(1)).report.to_json();
    let parallel = grid.run(Threads::Fixed(8)).report.to_json();
    assert_eq!(
        serial, parallel,
        "thread count leaked into a policy grid — placement policies must be \
         pure functions of (cluster state, task, time)"
    );
    let report = gfs::lab::GridReport::from_json(&serial).expect("round-trips");
    assert_eq!(report.cells.len(), 6);
    assert!(report.cells.iter().all(|c| c.seeds == [1, 2, 3, 4]));
    // the policy label round-trips (and the non-naive rows carry it)
    assert_eq!(
        report
            .cells
            .iter()
            .filter(|c| c.policy_label() != "naive")
            .count(),
        4
    );
}

#[test]
fn churn_aware_placement_beats_naive_under_correlated_failures() {
    let report = policy_grid().run(Threads::Auto).report;
    for sched in ["PTS", "GFS (no GDE)"] {
        let cell = |policy: &str| {
            report
                .cell(
                    sched,
                    ("16n", "uniform", "flakyracks", "none", policy, "default"),
                )
                .expect("cell exists")
        };
        let (naive, aware) = (cell("naive"), cell("churn-aware"));
        let (n_disp, a_disp) = (
            naive.median("displacement_count"),
            aware.median("displacement_count"),
        );
        assert!(
            a_disp < n_disp,
            "{sched}: churn-aware placement must strictly reduce displacements \
             (naive {n_disp}, churn-aware {a_disp})"
        );
        let (n_jct, a_jct) = (
            naive.median("displaced_mean_jct_s"),
            aware.median("displaced_mean_jct_s"),
        );
        assert!(
            a_jct < n_jct,
            "{sched}: churn-aware placement must strictly reduce displaced-JCT \
             (naive {n_jct}, churn-aware {a_jct})"
        );
        // and it must not buy this by abandoning work: completion holds up
        assert!(
            aware.median("hp_completion") >= naive.median("hp_completion"),
            "{sched}: HP completion must not regress"
        );
    }
}

#[test]
fn golden_policy_grid_pinned() {
    let result = policy_grid().run(Threads::Auto);
    pin("grid.policy", &[fnv1a(result.report.to_json().as_bytes())]);
}
