//! Churn-aware placement under correlated rack failures and a rolling
//! maintenance wave: what failure-domain spreading, reliability scoring
//! and drain avoidance buy, measured like for like.
//!
//! The cluster's racks split into two flaky blast radii (3 h MTBF as
//! correlated units) and two stable ones, while a maintenance wave walks
//! through the fleet mid-run. A `gfs::lab` grid compares naive placement
//! against the full churn-aware policy for both the bare PTS engine and
//! the GFS framework, replicated over seeds, and prints how
//! displacement counts, displaced-JCT and migration counts move.
//!
//! ```text
//! cargo run --release --example churn_policies
//! ```

use gfs::lab::{ClusterShape, DynamicsAxis, Grid, PolicyAxis, Threads, UniformTrace, WorkloadAxis};
use gfs::prelude::*;
use gfs::scenario;

const RACK: u32 = 4;

fn main() {
    let (nodes, horizon_h) = (16, 24);
    let sim_horizon = (horizon_h + 48) * HOUR;

    // flaky racks + a rolling maintenance wave, composed into one timeline
    let dynamics = DynamicsAxis::new("flaky+wave", move |shape, seed| {
        let racks = FailureDomain::racks(shape.node_count(), RACK);
        let flaky = DynamicsPlan::correlated(
            &racks[..racks.len() / 2],
            2.0 * HOUR as f64,
            HOUR as f64 / 2.0,
            sim_horizon,
            seed,
        );
        // the wave services the flaky half of the fleet (nodes 0..n/2),
        // which is exactly where maintenance crews spend their time
        let wave = DynamicsPlan::rolling_drain(
            shape.node_count() / 2,
            SimTime::from_hours(horizon_h / 2),
            HOUR / 2,
            1_800,
            HOUR,
        );
        // merge can reject a wave drain colliding with a failure window;
        // fall back to the tolerant path for those seeds (events on a
        // down node are engine no-ops)
        flaky.clone().merge(wave.clone()).unwrap_or_else(|_| {
            DynamicsPlan::new_unchecked(
                flaky
                    .events()
                    .iter()
                    .chain(wave.events())
                    .copied()
                    .collect(),
            )
        })
    });

    let grid = Grid::new()
        .schedulers([scenario::pts_spec(), scenario::gfs_no_gde_spec()])
        .shape(ClusterShape::a100(nodes, 8).racked(RACK))
        // a controlled-duration trace: every task shares one baseline, so
        // the displaced-JCT comparison measures placement overhead, not
        // which durations happened to get hit (see WorkloadAxis::uniform)
        .workload(WorkloadAxis::uniform(
            "uniform",
            UniformTrace {
                hp_tasks: 44,
                spot_tasks: 8,
                ..UniformTrace::default()
            },
        ))
        .dynamic(dynamics)
        .policies([PolicyAxis::naive(), PolicyAxis::churn_aware()])
        .seeds([1, 2, 3, 4])
        .sim(SimConfig {
            max_time_secs: Some(sim_horizon),
            ..SimConfig::default()
        });

    let result = grid.run(Threads::Auto);
    println!(
        "{}",
        result.report.render_table(&[
            "displacement_count",
            "displaced_mean_jct_s",
            "migration_count",
            "node_drains",
            "hp_p99_jct_s",
            "availability",
        ])
    );

    println!("churn-aware vs naive (median over seeds):");
    for sched in ["PTS", "GFS (no GDE)"] {
        let shape_label = format!("{nodes}n");
        let cell = |policy: &str| {
            result
                .report
                .cell(
                    sched,
                    (
                        &shape_label,
                        "uniform",
                        "flaky+wave",
                        "none",
                        policy,
                        "default",
                    ),
                )
                .expect("cell exists")
        };
        let (naive, aware) = (cell("naive"), cell("churn-aware"));
        let delta = |metric: &str| {
            let (n, a) = (naive.median(metric), aware.median(metric));
            let pct = if n > 0.0 { (n - a) / n * 100.0 } else { 0.0 };
            (n, a, pct)
        };
        let (nd, ad, pd) = delta("displacement_count");
        let (nj, aj, pj) = delta("displaced_mean_jct_s");
        let (nm, am, pm) = delta("migration_count");
        println!("  {sched}:");
        println!("    displacements     {nd:>9.1} -> {ad:>9.1}  ({pd:+.0}% fewer)");
        println!("    displaced JCT (s) {nj:>9.0} -> {aj:>9.0}  ({pj:+.0}% lower)");
        println!("    migrations        {nm:>9.1} -> {am:>9.1}  ({pm:+.0}% fewer)");
    }
}
