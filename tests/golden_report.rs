//! Golden-report regression tests: the hot-path refactors (capacity index,
//! dense engine state, blocked matmul) must not change a single scheduling
//! outcome. The `golden_report.*` pins were captured on the pre-refactor
//! engine; any change to them means scheduling behaviour drifted.

use gfs::prelude::*;
use gfs::sim::report_hash;
use gfs_testkit::pin;
use gfs_types::CheckpointPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A 1 000-task random trace exercising gangs, fractions, evictions and
/// checkpoints.
fn random_trace() -> Vec<TaskSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601d);
    let mut tasks = Vec::with_capacity(1_000);
    for i in 0..1_000u64 {
        let spot = rng.gen_bool(0.4);
        let pods = if rng.gen_bool(0.15) {
            rng.gen_range(2..4u32)
        } else {
            1
        };
        let builder = TaskSpec::builder(i + 1)
            .priority(if spot { Priority::Spot } else { Priority::Hp })
            .org(gfs_types::OrgId::new(rng.gen_range(0..6u16)))
            .pods(pods)
            .duration_secs(rng.gen_range(300..30_000u64))
            .submit_at(SimTime::from_secs(rng.gen_range(0..48 * HOUR)))
            .checkpoint(CheckpointPlan::Periodic {
                interval: rng.gen_range(600..3_600u64),
            });
        let builder = if pods == 1 && rng.gen_bool(0.2) {
            builder.gpus_per_pod(
                GpuDemand::fraction(*[0.25, 0.5].get(rng.gen_range(0..2usize)).expect("static"))
                    .expect("valid"),
            )
        } else {
            builder.gpus_per_pod(GpuDemand::whole(rng.gen_range(1..9u32)))
        };
        let builder = if spot {
            builder.guarantee_secs(HOUR)
        } else {
            builder
        };
        tasks.push(builder.build().expect("valid"));
    }
    tasks
}

fn run_trace(scheduler: &mut dyn Scheduler) -> SimReport {
    let cluster = Cluster::homogeneous(24, GpuModel::A100, 8);
    run(
        cluster,
        scheduler,
        random_trace(),
        &SimConfig {
            max_time_secs: Some(14 * 24 * HOUR),
            ..SimConfig::default()
        },
    )
}

#[test]
fn golden_1k_yarn_cs() {
    let report = run_trace(&mut YarnCs::new());
    assert_eq!(report.tasks.len(), 1_000);
    pin("golden_report.yarn", &[report_hash(&report)]);
}

#[test]
fn golden_1k_gfs() {
    let report = run_trace(&mut GfsScheduler::with_defaults());
    assert_eq!(report.tasks.len(), 1_000);
    pin("golden_report.gfs", &[report_hash(&report)]);
}

#[test]
fn golden_runs_are_reproducible() {
    let a = report_hash(&run_trace(&mut YarnCs::new()));
    let b = report_hash(&run_trace(&mut YarnCs::new()));
    assert_eq!(
        a, b,
        "same trace + scheduler must reproduce bit-identically"
    );
}
