//! The refusal-class pending queue must be invisible: a scheduler that
//! declares classes and the same scheduler with the declaration stripped
//! ([`NoClass`]) drive a service through byte-identical states — only the
//! number of offers differs. (Debug builds also re-offer every skipped
//! task inside the service, so the sessions below exercise that oracle
//! as well.)

use gfs::cluster::{DrainDecision, RunningTask};
use gfs::prelude::*;
use gfs::sched::placement::PlacementPolicy;
use gfs::sim::{report_hash, ClusterService, PassStats, ServiceSnapshot};
use gfs_testkit::pin;
use gfs_types::{CheckpointPlan, SimDuration};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Forwards the whole [`Scheduler`] contract except
/// [`Scheduler::refusal_class`]: the exhaustive pass over the same policy.
struct NoClass(Box<dyn Scheduler>);

impl Scheduler for NoClass {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        self.0.schedule(task, cluster, now)
    }
    fn on_tick(&mut self, now: SimTime, cluster: &Cluster) {
        self.0.on_tick(now, cluster);
    }
    fn on_event(&mut self, event: &TaskEvent, cluster: &Cluster) {
        self.0.on_event(event, cluster);
    }
    fn demand_forecast(&self, p: f64, h: usize) -> Option<f64> {
        self.0.demand_forecast(p, h)
    }
    fn drain_decision(
        &self,
        task: &RunningTask,
        notice: SimDuration,
        cluster: &Cluster,
        now: SimTime,
    ) -> DrainDecision {
        self.0.drain_decision(task, notice, cluster, now)
    }
    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        self.0.queue_cmp(a, b)
    }
    fn sort_queue(&self, queue: &mut Vec<TaskSpec>) {
        self.0.sort_queue(queue);
    }
    fn save_state(&self) -> Option<String> {
        self.0.save_state()
    }
    fn restore_state(&mut self, state: &str) -> bool {
        self.0.restore_state(state)
    }
}

/// The policies that declare classes, by index: GFS (quota-gated) in its
/// full and both degraded-preemption variants, the bare PTS, and GFS
/// under the churn-aware placement policy (which only ranks nodes, so it
/// keeps the classes).
fn classed(kind: u64) -> Box<dyn Scheduler> {
    let gfs = |v| Box::new(GfsScheduler::new(GfsParams::default(), v, None));
    match kind % 5 {
        0 => gfs(PtsVariant::Full),
        1 => Box::new(PtsScheduler::new(GfsParams::default())),
        2 => gfs(PtsVariant::RandomPreemption),
        3 => gfs(PtsVariant::Degraded),
        _ => Box::new(GfsScheduler::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            None,
            PlacementPolicy::churn_aware(),
        )),
    }
}

fn unclassed(kind: u64) -> Box<dyn Scheduler> {
    Box::new(NoClass(classed(kind)))
}

/// Two GPU models, 9 nodes × 8 cards, in racks of three.
fn cluster() -> Cluster {
    let mut c = Cluster::homogeneous(6, GpuModel::A100, 8);
    for _ in 0..3 {
        c.add_node(GpuModel::H800, 8);
    }
    c.set_failure_domains(&FailureDomain::racks(9, 3));
    c
}

/// `n` tasks submitted over `[from, from + span)`: gangs, fractional
/// demand, both priorities and models, long enough to keep the 72-card
/// cluster several times oversubscribed.
fn tasks(rng: &mut ChaCha8Rng, first_id: u64, n: u64, from: u64, span: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let spot = rng.gen_range(0..10u32) < 6;
            let fractional = rng.gen_range(0..8u32) == 0;
            let demand = if fractional {
                GpuDemand::fraction(*[0.25, 0.5].get(rng.gen_range(0..2)).expect("static"))
                    .expect("in range")
            } else {
                GpuDemand::whole(*[1, 1, 2, 4, 8].get(rng.gen_range(0..5)).expect("static"))
            };
            let pods = if fractional {
                1
            } else {
                *[1, 1, 1, 2, 3].get(rng.gen_range(0..5)).expect("static")
            };
            TaskSpec::builder(first_id + i)
                .priority(if spot { Priority::Spot } else { Priority::Hp })
                .gpu_model(if rng.gen_range(0..3u32) == 0 {
                    GpuModel::H800
                } else {
                    GpuModel::A100
                })
                .pods(pods)
                .gpus_per_pod(demand)
                .duration_secs(rng.gen_range(2_000..40_000u64))
                .submit_at(SimTime::from_secs(from + rng.gen_range(0..span)))
                .checkpoint(CheckpointPlan::Periodic { interval: 900 })
                .build()
                .expect("valid")
        })
        .collect()
}

/// Node failures and repairs plus a rolling drain over the first nodes.
fn dynamics(seed: u64, horizon: u64) -> DynamicsPlan {
    let churn = DynamicsPlan::seeded_mtbf(9, 60_000.0, 4_000.0, horizon, seed);
    let drain = DynamicsPlan::rolling_drain(3, SimTime::from_secs(horizon / 3), 2_500, 600, 1_800);
    DynamicsPlan::new_unchecked(
        churn
            .events()
            .iter()
            .chain(drain.events())
            .cloned()
            .collect(),
    )
}

const HORIZON: u64 = 60_000;

#[test]
fn random_sessions_are_byte_identical_with_and_without_classes() {
    let mut offers = (0u64, 0u64);
    for seed in 0..12u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xc1a5_5000 + seed);
        let cfg = SimConfig {
            dynamics: dynamics(seed, HORIZON),
            max_time_secs: Some(HORIZON),
            ..SimConfig::default()
        };
        let mut fast_sched = classed(seed);
        let mut slow_sched = unclassed(seed);
        let mut fast = ClusterService::new(cluster(), cfg.clone());
        let mut slow = ClusterService::new(cluster(), cfg);
        let initial = tasks(&mut rng, 1, 160, 0, HORIZON / 2);
        fast.admit_tasks(initial.clone());
        slow.admit_tasks(initial);
        fast.start();
        slow.start();

        let mut next_id = 10_000;
        let mut fast_offers = 0;
        for checkpoint in 1..=8u64 {
            let t = SimTime::from_secs(checkpoint * HORIZON / 10);
            fast.run_until(t, &mut *fast_sched);
            slow.run_until(t, &mut *slow_sched);
            assert_eq!(
                fast.steps(),
                slow.steps(),
                "seed {seed} checkpoint {checkpoint}"
            );
            let json = fast.snapshot_json(&*fast_sched);
            assert!(
                json == slow.snapshot_json(&*slow_sched),
                "seed {seed}: states diverge at checkpoint {checkpoint}"
            );
            if checkpoint % 3 == 0 {
                // crash the classed side: rebuild the queue from the
                // snapshot's merged order and carry on from there
                fast_offers += fast.pass_stats().offers;
                let snap = ServiceSnapshot::from_json(&json).expect("parses");
                fast_sched = classed(seed);
                fast = ClusterService::restore(snap, &mut *fast_sched).expect("restores");
                assert!(
                    fast.snapshot_json(&*fast_sched) == json,
                    "seed {seed}: restore is not byte-identical at checkpoint {checkpoint}"
                );
            }
            if checkpoint % 2 == 0 {
                let wave = tasks(&mut rng, next_id, 40, t.as_secs(), HORIZON / 10);
                next_id += 40;
                fast.admit_tasks(wave.clone());
                slow.admit_tasks(wave);
            }
        }
        fast.run_to_end(&mut *fast_sched);
        slow.run_to_end(&mut *slow_sched);
        offers.0 += fast_offers + fast.pass_stats().offers;
        offers.1 += slow.pass_stats().offers;
        let (fast, slow) = (fast.finish(), slow.finish());
        assert!(fast.eviction_count() > 0, "seed {seed}: HP never preempted");
        assert_eq!(report_hash(&fast), report_hash(&slow), "seed {seed}");
    }
    assert!(
        offers.0 * 3 < offers.1,
        "classes should save most offers: {} vs {}",
        offers.0,
        offers.1
    );
}

fn whole(id: u64, priority: Priority, gpus: u32, submit: u64) -> TaskSpec {
    TaskSpec::builder(id)
        .priority(priority)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(100_000)
        .submit_at(SimTime::from_secs(submit))
        .checkpoint(CheckpointPlan::Periodic { interval: 60 })
        .build()
        .expect("valid")
}

/// One 8-card node, filled by spot task 1. At t = 10 three 2-card tasks
/// arrive and queue in id order: spot 2, HP 3, spot 4. Spot 2 is refused
/// (parking its class), HP 3 preempts task 1 and frees six cards. The
/// wake must skip spot 2 — it had its turn before HP 3 — and resume the
/// class at spot 4.
fn reactivation_session(scheduler: &mut dyn Scheduler) -> (SimReport, PassStats) {
    let cfg = SimConfig {
        max_time_secs: Some(1_000),
        ..SimConfig::default()
    };
    let mut svc = ClusterService::new(Cluster::homogeneous(1, GpuModel::A100, 8), cfg);
    svc.admit_tasks(vec![
        whole(1, Priority::Spot, 8, 0),
        whole(2, Priority::Spot, 2, 10),
        whole(3, Priority::Hp, 2, 10),
        whole(4, Priority::Spot, 2, 10),
    ]);
    svc.start();
    svc.run_to_end(scheduler);
    let stats = svc.pass_stats();
    (svc.finish(), stats)
}

#[test]
fn a_wake_resumes_behind_the_preempting_task() {
    let start = |r: &SimReport, id: u64| {
        let rec = r.tasks.iter().find(|t| t.id == TaskId::new(id));
        rec.expect("admitted").first_start.map(SimTime::as_secs)
    };
    let (fast, stats) = reactivation_session(&mut *classed(1));
    assert_eq!(start(&fast, 3), Some(10), "HP preempts on arrival");
    assert_eq!(
        start(&fast, 4),
        Some(10),
        "ordered after the HP task: offered again"
    );
    let requeue = 10 + SimConfig::default().requeue_delay_secs;
    assert_eq!(
        start(&fast, 2),
        Some(requeue),
        "ordered before the HP task: waits for the next pass"
    );
    assert_eq!(stats.wakes, 1);

    let (slow, _) = reactivation_session(&mut NoClass(classed(1)));
    assert_eq!(report_hash(&fast), report_hash(&slow));
}

/// A 64-card cluster offered three times its capacity in week-long tasks
/// of a few shapes: the queue only grows.
fn backlog_session(scheduler: &mut dyn Scheduler) -> (SimReport, PassStats) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xbac_106);
    let horizon = 7 * 24 * HOUR;
    let specs: Vec<TaskSpec> = (0..600u64)
        .map(|i| {
            let spot = i % 4 != 0;
            TaskSpec::builder(i + 1)
                .priority(if spot { Priority::Spot } else { Priority::Hp })
                .pods(*[1, 1, 2].get(rng.gen_range(0..3)).expect("static"))
                .gpus_per_pod(GpuDemand::whole(
                    *[1, 2, 4, 8].get(rng.gen_range(0..4)).expect("static"),
                ))
                .duration_secs(rng.gen_range(20_000..90_000u64))
                .submit_at(SimTime::from_secs(rng.gen_range(0..horizon)))
                .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
                .build()
                .expect("valid")
        })
        .collect();
    let offered: f64 = specs
        .iter()
        .map(|t| t.total_gpus() * t.duration_secs as f64)
        .sum();
    assert!(offered > 3.0 * 64.0 * horizon as f64, "3x oversubscribed");
    let cfg = SimConfig {
        max_time_secs: Some(horizon),
        ..SimConfig::default()
    };
    let mut svc = ClusterService::new(Cluster::homogeneous(8, GpuModel::A100, 8), cfg);
    svc.admit_tasks(specs);
    svc.start();
    svc.run_to_end(scheduler);
    let stats = svc.pass_stats();
    (svc.finish(), stats)
}

#[test]
fn pass_stats_pin_the_offers_a_backlog_costs() {
    let (fast, stats) = backlog_session(&mut *classed(0));
    let (slow, exhaustive) = backlog_session(&mut NoClass(classed(0)));
    assert_eq!(report_hash(&fast), report_hash(&slow));
    // what the pass did is the same; what it asked is not
    assert_eq!(stats.passes, exhaustive.passes);
    assert_eq!(stats.placed, exhaustive.placed);
    assert_eq!(stats.max_pending, exhaustive.max_pending);
    assert_eq!((exhaustive.class_parks, exhaustive.wakes), (0, 0));
    assert_eq!(stats.offers, stats.placed + stats.class_parks);
    pin("sim.pass.backlog_offers", &[stats.offers]);
    assert!(
        stats.offers * 20 <= exhaustive.offers,
        "{} offers against {} exhaustive",
        stats.offers,
        exhaustive.offers
    );
}
