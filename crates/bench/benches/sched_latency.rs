//! Scheduler decision latency (§3.4.2 claims < 1 s per task in production;
//! our in-memory reproduction should be orders of magnitude faster) plus
//! ablation comparisons of the PTS design choices.

use gfs::prelude::*;
use gfs_bench::harness::Suite;

/// A 287-node cluster pre-loaded with a mixed HP/spot population.
fn loaded_cluster() -> Cluster {
    let mut cluster = Cluster::homogeneous(287, GpuModel::A100, 8);
    let mut id = 0u64;
    for n in 0..287u32 {
        // ~70% of nodes carry one 4-GPU HP and one 2-GPU spot task
        if n % 10 < 7 {
            id += 1;
            let hp = TaskSpec::builder(id)
                .priority(Priority::Hp)
                .gpus_per_pod(GpuDemand::whole(4))
                .duration_secs(100_000)
                .build()
                .expect("valid");
            cluster
                .start_task(hp, &[NodeId::new(n)], SimTime::ZERO, 0)
                .expect("fits");
            id += 1;
            let spot = TaskSpec::builder(id)
                .priority(Priority::Spot)
                .gpus_per_pod(GpuDemand::whole(2))
                .duration_secs(100_000)
                .build()
                .expect("valid");
            cluster
                .start_task(spot, &[NodeId::new(n)], SimTime::from_secs(500), 0)
                .expect("fits");
        }
    }
    cluster
}

fn hp_task(gpus: u32, pods: u32) -> TaskSpec {
    TaskSpec::builder(999_999)
        .priority(Priority::Hp)
        .pods(pods)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(3_600)
        .build()
        .expect("valid")
}

fn bench_nonpreemptive(suite: &mut Suite) {
    let cluster = loaded_cluster();
    let pts = gfs::core::Pts::new(GfsParams::default(), PtsVariant::Full);
    let task = hp_task(2, 1);
    suite.bench("pts_nonpreemptive_287_nodes", || {
        pts.schedule_nonpreemptive(&task, &cluster, SimTime::from_hours(1))
    });
}

fn bench_preemptive(suite: &mut Suite) {
    // a full cluster forces the preemptive path
    let mut cluster = Cluster::homogeneous(287, GpuModel::A100, 8);
    for n in 0..287u32 {
        let spot = TaskSpec::builder(u64::from(n) + 1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(100_000)
            .build()
            .expect("valid");
        cluster
            .start_task(spot, &[NodeId::new(n)], SimTime::ZERO, 0)
            .expect("fits");
    }
    let task = hp_task(8, 1);
    for (name, variant) in [
        ("pts_preemptive_waste_aware", PtsVariant::Full),
        (
            "pts_preemptive_random_ablation",
            PtsVariant::RandomPreemption,
        ),
    ] {
        let pts = gfs::core::Pts::new(GfsParams::default(), variant);
        suite.bench(name, || {
            pts.schedule_preemptive(&task, &cluster, SimTime::from_hours(1))
        });
    }
}

fn bench_baseline_schedulers(suite: &mut Suite) {
    let cluster = loaded_cluster();
    let task = hp_task(4, 2);
    suite.bench("yarn_best_fit_decision", || {
        let mut s = YarnCs::new();
        s.schedule(&task, &cluster, SimTime::from_hours(1))
    });
    suite.bench("fgd_frag_gradient_decision", || {
        let mut s = Fgd::new();
        s.schedule(&task, &cluster, SimTime::from_hours(1))
    });
}

/// Cluster-timeline plan expansion for a production-scale fleet: one week
/// of independent churn + rack-correlated failures + a rolling
/// maintenance wave + an autoscale schedule, merged and validated. Plans
/// are built once per run *before* the event loop — this entry exists to
/// show the expansion stays off the simulation hot path (µs-scale against
/// ms-scale sims).
fn bench_timeline_apply(suite: &mut Suite) {
    use gfs::prelude::{ClusterEvent, DynamicsPlan, FailureDomain, NodeTemplate, SimTime};
    let horizon = 7 * 24 * gfs_types::HOUR;
    let racks = FailureDomain::racks(287, 8);
    suite.bench("timeline_apply", || {
        let churn = DynamicsPlan::seeded_mtbf(287, 96.0 * HOUR as f64, HOUR as f64, horizon, 42);
        let correlated =
            DynamicsPlan::correlated(&racks, 400.0 * HOUR as f64, 2.0 * HOUR as f64, horizon, 42);
        let wave = DynamicsPlan::rolling_drain(287, SimTime::from_hours(24), 600, 1_800, 3_600);
        let grow = DynamicsPlan::scale_out(
            NodeTemplate {
                model: GpuModel::A100,
                gpus: 8,
            },
            SimTime::from_hours(48),
            12 * HOUR,
            4,
            4,
        );
        // merge without cross-validating conflicting node histories (the
        // engine no-ops overlaps); count what a run would consume
        let all: Vec<ClusterEvent> = churn
            .events()
            .iter()
            .chain(correlated.events())
            .chain(wave.events())
            .chain(grow.events())
            .copied()
            .collect();
        DynamicsPlan::new_unchecked(all).len()
    });
}

/// Crash-safety hot path: checkpoint a live mid-run service and bring a
/// replacement up from it. One iteration is the full cycle a controller
/// pays per checkpoint interval plus what a failover pays at takeover —
/// the streamed canonical-JSON encode, parse back, restore into a fresh
/// service. Keeping this µs-scale is what makes aggressive snapshot
/// cadences (and therefore short journal suffixes) affordable.
fn bench_snapshot_restore(suite: &mut Suite) {
    use gfs::sim::{ClusterService, ServiceSnapshot};
    let mut svc = ClusterService::new(
        Cluster::homogeneous(64, GpuModel::A100, 8),
        SimConfig {
            max_time_secs: Some(48 * HOUR),
            ..SimConfig::default()
        },
    );
    let mut tasks = Vec::new();
    for i in 0..160u64 {
        tasks.push(
            TaskSpec::builder(i + 1)
                .priority(if i % 4 == 0 {
                    Priority::Spot
                } else {
                    Priority::Hp
                })
                .gpus_per_pod(GpuDemand::whole(if i % 3 == 0 { 8 } else { 4 }))
                .duration_secs(3 * HOUR + i * 97)
                .build()
                .expect("valid"),
        );
    }
    svc.admit_tasks(tasks);
    svc.start();
    let mut sched = YarnCs::new();
    for _ in 0..200 {
        if !svc.step(&mut sched) {
            break;
        }
    }
    suite.bench("snapshot_restore", || {
        let json = svc.snapshot_json(&sched);
        let snap = ServiceSnapshot::from_json(&json).expect("round-trip");
        let mut standby = YarnCs::new();
        let restored = ClusterService::restore(snap, &mut standby).expect("restore");
        (json.len(), restored.steps())
    });
}

/// Capacity-market hot path: what one decision boundary costs on a
/// production-scale fleet. `controller_decision` is the pure
/// forecast-follower decision over a 287-node cluster (gap computation
/// plus the release-safety scan of every market node);
/// `market_step` is the full boundary cycle the driver pays per
/// interval — cost-meter accrual over the fleet plus quotes plus the
/// decision. Both must stay µs-scale so a market grid costs the same as
/// a dynamics grid.
fn bench_market(suite: &mut Suite) {
    use gfs::market::{
        CapacityController, ForecastController, ForecastParams, MarketView, PriceProcess,
    };
    let mut cluster = loaded_cluster();
    // a market-owned tail of the fleet: 32 bought nodes, half loaded
    let fleet_origin = cluster.nodes().len() as u32;
    let mut id = 1_000_000u64;
    for k in 0..32u32 {
        let node = cluster.add_node(GpuModel::A100, 8);
        if k % 2 == 0 {
            id += 1;
            let spot = TaskSpec::builder(id)
                .priority(Priority::Spot)
                .gpus_per_pod(GpuDemand::whole(4))
                .duration_secs(100_000)
                .build()
                .expect("valid");
            cluster
                .start_task(spot, &[node], SimTime::from_hours(1), 0)
                .expect("fits");
        }
    }
    let prices = PriceProcess::walk(42);
    let controller = ForecastController::new(ForecastParams::default());
    let now = SimTime::from_hours(6);
    let view = MarketView {
        now,
        cluster: &cluster,
        demand_gpus: 2_400.0,
        forecast_available: true,
        prices: &prices,
        fleet_origin,
    };
    suite.bench("controller_decision", || controller.decide(&view).len());
    suite.bench("market_step", || {
        let mut meter = gfs::market::CostMeter::new(HOUR);
        meter.accrue(&cluster, fleet_origin, &prices, now);
        let actions = controller.decide(&view);
        (meter.spend_usd(), actions.len())
    });
}

fn main() {
    let mut suite = Suite::new("sched_latency");
    bench_nonpreemptive(&mut suite);
    bench_preemptive(&mut suite);
    bench_baseline_schedulers(&mut suite);
    bench_timeline_apply(&mut suite);
    bench_snapshot_restore(&mut suite);
    bench_market(&mut suite);
    suite.finish();
}
