//! Contract tests every scheduler implementation must satisfy: decisions
//! reference real nodes, respect the task's GPU model, never preempt HP
//! tasks, are reproducible from identical state, and absorb the full
//! cluster-timeline event stream with a queue order that stays total.

use std::collections::HashSet;

use gfs::prelude::*;
use gfs::sched::PlacementPolicy;
use gfs_types::CheckpointPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(YarnCs::new()),
        Box::new(Chronus::new()),
        Box::new(Lyra::new()),
        Box::new(Fgd::new()),
        Box::new(GfsScheduler::with_defaults()),
        Box::new(PtsScheduler::new(GfsParams::default())),
    ]
}

fn loaded_cluster() -> Cluster {
    let mut c = Cluster::homogeneous(6, GpuModel::A100, 8);
    for (i, node) in [0u32, 1, 2, 3].iter().enumerate() {
        let spot = TaskSpec::builder(100 + i as u64)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(6))
            .duration_secs(50_000)
            .checkpoint(CheckpointPlan::Periodic { interval: 3_600 })
            .build()
            .expect("valid");
        c.start_task(
            spot,
            &[NodeId::new(*node)],
            SimTime::from_secs(i as u64 * 700),
            0,
        )
        .expect("fits");
    }
    let hp = TaskSpec::builder(200)
        .priority(Priority::Hp)
        .gpus_per_pod(GpuDemand::whole(4))
        .duration_secs(50_000)
        .build()
        .expect("valid");
    c.start_task(hp, &[NodeId::new(4)], SimTime::ZERO, 0)
        .expect("fits");
    c
}

fn warmed(mut s: Box<dyn Scheduler>, c: &Cluster) -> Box<dyn Scheduler> {
    s.on_tick(SimTime::from_secs(300), c);
    s
}

#[test]
fn decisions_reference_valid_nodes_with_matching_model() {
    let c = loaded_cluster();
    let task = TaskSpec::builder(1)
        .priority(Priority::Hp)
        .pods(2)
        .gpus_per_pod(GpuDemand::whole(2))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&task, &c, SimTime::from_secs(400)) {
            assert_eq!(d.pod_nodes.len(), 2, "{name}: one node per pod");
            for n in &d.pod_nodes {
                let node = c
                    .node(*n)
                    .unwrap_or_else(|_| panic!("{name}: unknown node {n}"));
                assert_eq!(node.model(), GpuModel::A100, "{name}: wrong model");
            }
        }
    }
}

#[test]
fn preemption_victims_are_running_spot_tasks() {
    let c = loaded_cluster();
    // a task large enough to force preemption on every policy that supports it
    let big = TaskSpec::builder(2)
        .priority(Priority::Hp)
        .pods(3)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&big, &c, SimTime::from_hours(2)) {
            for v in &d.preemptions {
                let rt = c
                    .running_task(*v)
                    .unwrap_or_else(|| panic!("{name}: victim {v} not running"));
                assert!(rt.spec.priority.is_spot(), "{name}: evicted an HP task");
            }
        }
    }
}

#[test]
fn spot_tasks_never_trigger_preemptions() {
    let c = loaded_cluster();
    let spot = TaskSpec::builder(3)
        .priority(Priority::Spot)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .guarantee_secs(3_600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&spot, &c, SimTime::from_secs(400)) {
            assert!(
                d.preemptions.is_empty(),
                "{name}: spot task preempted others"
            );
        }
    }
}

#[test]
fn identical_state_yields_identical_decisions() {
    let c = loaded_cluster();
    let task = TaskSpec::builder(4)
        .priority(Priority::Hp)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for make in 0..6usize {
        let build = |i: usize| -> Box<dyn Scheduler> {
            match i {
                0 => Box::new(YarnCs::new()),
                1 => Box::new(Chronus::new()),
                2 => Box::new(Lyra::new()),
                3 => Box::new(Fgd::new()),
                4 => Box::new(PtsScheduler::new(GfsParams::default())),
                _ => Box::new(GfsScheduler::with_defaults()),
            }
        };
        let mut a = warmed(build(make), &c);
        let mut b = warmed(build(make), &c);
        let da = a.schedule(&task, &c, SimTime::from_hours(1));
        let db = b.schedule(&task, &c, SimTime::from_hours(1));
        assert_eq!(da, db, "{} is non-deterministic", a.name());
    }
}

#[test]
fn dynamics_events_never_panic_and_queue_cmp_stays_total() {
    // every scheduler must absorb the full cluster-timeline event set —
    // drain notices, scale-out, displacement — without panicking, and its
    // queue comparator must remain a (static, spec-derived) total order
    // afterwards: antisymmetric, transitive, reflexively equal.
    let mut c = loaded_cluster();
    c.drain_node(NodeId::new(3), SimTime::from_hours(2))
        .expect("drainable");
    let added = c.add_node(GpuModel::A100, 8);
    let displaced = c
        .fail_node(NodeId::new(0), SimTime::from_secs(4_000))
        .expect("up");
    let now = SimTime::from_secs(4_000);
    let events = [
        TaskEvent::DrainNotice {
            node: NodeId::new(3),
            deadline: SimTime::from_hours(2),
            at: now,
        },
        TaskEvent::NodeAdded {
            node: added,
            added_gpus: 8,
            at: now,
        },
        TaskEvent::Displaced {
            task: displaced[0].task.spec.id,
            priority: displaced[0].task.spec.priority,
            at: now,
        },
        TaskEvent::NodeDown {
            node: NodeId::new(0),
            lost_gpus: 8,
            at: now,
        },
        TaskEvent::NodeUp {
            node: NodeId::new(0),
            restored_gpus: 8,
            at: now,
        },
    ];
    // a spec sample diverse enough to exercise every comparator branch
    let sample: Vec<TaskSpec> = (0..12)
        .map(|i| {
            TaskSpec::builder(500 + i)
                .priority(if i % 3 == 0 {
                    Priority::Spot
                } else {
                    Priority::Hp
                })
                .pods(1 + (i as u32 % 3))
                .gpus_per_pod(GpuDemand::whole(1 + (i as u32 % 4)))
                .duration_secs(600 + i * 37)
                .submit_at(SimTime::from_secs(i * 11))
                .build()
                .expect("valid")
        })
        .collect();
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        for e in &events {
            s.on_event(e, &c);
        }
        // the scheduler still answers placement questions after the storm
        let probe = TaskSpec::builder(9_999)
            .priority(Priority::Hp)
            .gpus_per_pod(GpuDemand::whole(1))
            .duration_secs(600)
            .build()
            .expect("valid");
        let _ = s.schedule(&probe, &c, now);
        // total order: reflexive equality, antisymmetry, transitivity
        for a in &sample {
            assert_eq!(
                s.queue_cmp(a, a),
                std::cmp::Ordering::Equal,
                "{name}: irreflexive"
            );
            for b in &sample {
                assert_eq!(
                    s.queue_cmp(a, b),
                    s.queue_cmp(b, a).reverse(),
                    "{name}: asymmetric on {:?}/{:?}",
                    a.id,
                    b.id
                );
                for t in &sample {
                    if s.queue_cmp(a, b) != std::cmp::Ordering::Greater
                        && s.queue_cmp(b, t) != std::cmp::Ordering::Greater
                    {
                        assert_ne!(
                            s.queue_cmp(a, t),
                            std::cmp::Ordering::Greater,
                            "{name}: intransitive on {:?}/{:?}/{:?}",
                            a.id,
                            b.id,
                            t.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gang_pods_never_oversubscribe_one_node() {
    // a 2×8 gang on a cluster with exactly one empty node must either span
    // two feasible nodes or be refused — never stack 16 GPUs on one node
    let c = loaded_cluster(); // node 5 idle (8 GPUs), others partially full
    let gang = TaskSpec::builder(5)
        .priority(Priority::Hp)
        .pods(2)
        .gpus_per_pod(GpuDemand::whole(8))
        .duration_secs(600)
        .build()
        .expect("valid");
    for s in schedulers() {
        let mut s = warmed(s, &c);
        let name = s.name().to_string();
        if let Some(d) = s.schedule(&gang, &c, SimTime::from_hours(1)) {
            // commit through the cluster to validate capacity atomically
            let mut c2 = c.clone();
            for v in &d.preemptions {
                c2.evict_task(*v, SimTime::from_hours(1))
                    .expect("victim evictable");
            }
            c2.start_task(gang.clone(), &d.pod_nodes, SimTime::from_hours(1), 0)
                .unwrap_or_else(|e| panic!("{name}: invalid gang decision: {e}"));
        }
    }
}

/// A two-model cluster with a random running population: whole-card and
/// fractional pods of both priorities, started at scattered times.
///
/// With `churn` the cluster also sits in racks of two, carries a failure
/// history on one to three nodes, and is filled mostly with spot work; one
/// spot task is then evicted and one node starts draining — every input
/// the placement policies, Eq. 16 and Alg. 2 read.
fn random_loaded_cluster(rng: &mut ChaCha8Rng, churn: bool) -> Cluster {
    let mut c = Cluster::homogeneous(5, GpuModel::A100, 8);
    for _ in 0..2 {
        c.add_node(GpuModel::H800, 8);
    }
    if churn {
        c.set_failure_domains(&FailureDomain::racks(7, 2));
        for k in 0..rng.gen_range(1..4u64) {
            let node = NodeId::new(rng.gen_range(0..7u32));
            let at = SimTime::from_secs(k * 900 + rng.gen_range(0..600u64));
            c.fail_node(node, at).expect("every node is up");
            c.restore_node(node, at + 200).expect("just failed");
        }
    }
    let mut filler = GfsScheduler::with_defaults();
    filler.on_tick(SimTime::from_secs(300), &c);
    let fill = if churn {
        rng.gen_range(30..60u64)
    } else {
        rng.gen_range(10..40u64)
    };
    for i in 0..fill {
        let submit = rng.gen_range(0..3_000u64);
        let mut t = random_spec(rng, 1_000 + i, submit);
        if churn && rng.gen_range(0..4u32) != 0 {
            t.priority = Priority::Spot;
        }
        if let Some(d) = filler.schedule(&t, &c, SimTime::from_secs(300)) {
            if d.preemptions.is_empty() {
                c.start_task(t.clone(), &d.pod_nodes, t.submit_at, 0)
                    .expect("a non-preemptive decision fits");
            }
        }
    }
    if churn {
        let mut spot: Vec<TaskId> = c
            .running()
            .filter(|rt| rt.spec.priority.is_spot())
            .map(|rt| rt.spec.id)
            .collect();
        spot.sort_unstable();
        if !spot.is_empty() {
            let victim = spot[rng.gen_range(0..spot.len())];
            c.evict_task(victim, SimTime::from_secs(3_500))
                .expect("running");
        }
        let node = NodeId::new(rng.gen_range(0..7u32));
        c.drain_node(node, SimTime::from_hours(3))
            .expect("every node is up");
    }
    c
}

fn random_spec(rng: &mut ChaCha8Rng, id: u64, submit: u64) -> TaskSpec {
    let fractional = rng.gen_range(0..5u32) == 0;
    let demand = if fractional {
        GpuDemand::fraction(*[0.25, 0.5].get(rng.gen_range(0..2)).expect("static"))
            .expect("in range")
    } else {
        GpuDemand::whole(*[1, 2, 4, 8].get(rng.gen_range(0..4)).expect("static"))
    };
    TaskSpec::builder(id)
        .priority(if rng.gen_range(0..2u32) == 0 {
            Priority::Spot
        } else {
            Priority::Hp
        })
        .gpu_model(if rng.gen_range(0..3u32) == 0 {
            GpuModel::H800
        } else {
            GpuModel::A100
        })
        .pods(if fractional {
            1
        } else {
            rng.gen_range(1..4u32)
        })
        .gpus_per_pod(demand)
        .duration_secs(rng.gen_range(600..50_000u64))
        .submit_at(SimTime::from_secs(submit))
        .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
        .build()
        .expect("valid")
}

#[test]
fn refusal_classes_keep_their_promise() {
    // for every scheduler that declares refusal classes: (1) two specs of
    // one class are interchangeable as far as refusal goes, and (2) over
    // one exhaustive pass in the scheduler's own queue order, a refused
    // class stays refused through every non-preemptive placement — only
    // a commit that evicts may reopen it
    let now = SimTime::from_secs(4_000);
    let mut upheld = [0u32; 6];
    for case in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xc0de_0000 + case);
        let loaded = random_loaded_cluster(&mut rng, false);
        let mut queue: Vec<TaskSpec> = (0..60)
            .map(|i| {
                let submit = 3_000 + rng.gen_range(0..900u64);
                random_spec(&mut rng, i + 1, submit)
            })
            .collect();
        for (which, s) in schedulers().into_iter().enumerate() {
            let mut s = warmed(s, &loaded);
            let name = s.name().to_string();
            s.sort_queue(&mut queue);

            for t in &queue {
                let Some(class) = s.refusal_class(t) else {
                    continue;
                };
                let twin = TaskSpec::builder(t.id.raw() + 7_000)
                    .priority(t.priority)
                    .gpu_model(t.gpu_model)
                    .pods(t.pods)
                    .gpus_per_pod(t.gpus_per_pod)
                    .org(OrgId::new(3))
                    .duration_secs(t.duration_secs / 2 + 1)
                    .submit_at(SimTime::from_secs(t.submit_at.as_secs() / 2))
                    .build()
                    .expect("valid");
                assert_eq!(
                    s.refusal_class(&twin),
                    Some(class),
                    "{name}: key not static"
                );
                assert_eq!(
                    s.schedule(t, &loaded, now).is_none(),
                    s.schedule(&twin, &loaded, now).is_none(),
                    "{name}: same-class tasks {:?}/{:?} disagree on refusal",
                    t.id,
                    twin.id
                );
            }

            let mut c = loaded.clone();
            let mut refused: HashSet<u64> = HashSet::new();
            for t in &queue {
                let class = s.refusal_class(t);
                let Some(d) = s.schedule(t, &c, now) else {
                    if let Some(k) = class {
                        upheld[which] += u32::from(!refused.insert(k));
                    }
                    continue;
                };
                assert!(
                    class.is_none_or(|k| !refused.contains(&k)),
                    "{name}: task {:?} placed after its class was refused (case {case})",
                    t.id
                );
                for v in &d.preemptions {
                    c.evict_task(*v, now).expect("victim is running");
                    s.on_event(&TaskEvent::Evicted { task: *v, at: now }, &c);
                }
                let started = c.start_task(t.clone(), &d.pod_nodes, now, 0).is_ok();
                if started {
                    s.on_event(
                        &TaskEvent::Started {
                            task: t.id,
                            priority: t.priority,
                            queued_secs: 0,
                            at: now,
                        },
                        &c,
                    );
                }
                if !d.preemptions.is_empty() || !started {
                    refused.clear();
                }
            }
        }
    }
    // GFS and PTS declare classes, and the cases above do exercise them
    assert!(upheld[4] > 100 && upheld[5] > 100, "{upheld:?}");
    assert_eq!(upheld[..4], [0; 4], "baselines declare no class");
}

/// The scheduler configurations the decision pin covers: the four
/// baselines, GFS in each Table 10 variant, and bare PTS under each
/// placement policy.
fn pinned_schedulers() -> Vec<Box<dyn Scheduler>> {
    let mut out: Vec<Box<dyn Scheduler>> = vec![
        Box::new(YarnCs::new()),
        Box::new(Chronus::new()),
        Box::new(Lyra::new()),
        Box::new(Fgd::new()),
    ];
    for variant in [
        PtsVariant::Full,
        PtsVariant::SimpleScoring,
        PtsVariant::RandomPreemption,
        PtsVariant::Degraded,
    ] {
        out.push(Box::new(GfsScheduler::new(
            GfsParams::default(),
            variant,
            None,
        )));
    }
    for policy in [
        PlacementPolicy::naive(),
        PlacementPolicy::domain_spread(),
        PlacementPolicy::reliability_scored(),
        PlacementPolicy::churn_aware(),
        PlacementPolicy::hazard_aware(),
    ] {
        out.push(Box::new(PtsScheduler::with_policy(
            GfsParams::default(),
            policy,
        )));
    }
    out
}

/// Appends one answer — `None`, or the pod nodes and victims — to `out`.
fn record(out: &mut Vec<u8>, answer: Option<(&[NodeId], &[TaskId])>) {
    let Some((nodes, victims)) = answer else {
        out.push(0);
        return;
    };
    out.push(1);
    out.extend((nodes.len() as u32).to_le_bytes());
    for n in nodes {
        out.extend(n.raw().to_le_bytes());
    }
    out.extend((victims.len() as u32).to_le_bytes());
    for v in victims {
        out.extend(v.raw().to_le_bytes());
    }
}

#[test]
fn decisions_on_churned_clusters_are_pinned() {
    // every answer of every scheduler configuration, committed as it comes
    // (victims evicted, the task started) so later offers see the
    // evictions, plus direct scan and Alg. 2 calls under two PTS variants
    // and three policies — all folded into one FNV-1a hash
    let now = SimTime::from_secs(4_000);
    let mut bytes = Vec::new();
    let (mut placed, mut preemptive, mut direct_preemptive) = (0u32, 0u32, 0u32);
    for case in 0..150u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x91a0_0000 + case);
        let loaded = random_loaded_cluster(&mut rng, true);
        let queue: Vec<TaskSpec> = (0..40)
            .map(|i| {
                let submit = 3_000 + rng.gen_range(0..900u64);
                random_spec(&mut rng, i + 1, submit)
            })
            .collect();
        for s in pinned_schedulers() {
            let mut s = warmed(s, &loaded);
            let mut queue = queue.clone();
            s.sort_queue(&mut queue);
            let mut c = loaded.clone();
            for t in &queue {
                let d = s.schedule(t, &c, now);
                record(
                    &mut bytes,
                    d.as_ref().map(|d| (&d.pod_nodes[..], &d.preemptions[..])),
                );
                let Some(d) = d else { continue };
                placed += 1;
                preemptive += u32::from(d.is_preemptive());
                for v in &d.preemptions {
                    c.evict_task(*v, now).expect("victim is running");
                    s.on_event(&TaskEvent::Evicted { task: *v, at: now }, &c);
                }
                if c.start_task(t.clone(), &d.pod_nodes, now, 0).is_ok() {
                    s.on_event(
                        &TaskEvent::Started {
                            task: t.id,
                            priority: t.priority,
                            queued_secs: 0,
                            at: now,
                        },
                        &c,
                    );
                }
            }
        }
        for variant in [PtsVariant::Full, PtsVariant::RandomPreemption] {
            for policy in [
                PlacementPolicy::naive(),
                PlacementPolicy::churn_aware(),
                PlacementPolicy::hazard_aware(),
            ] {
                let pts = Pts::with_policy(GfsParams::default(), variant, policy);
                for t in &queue {
                    let scan = pts.schedule_nonpreemptive_scan(t, &loaded, now);
                    record(&mut bytes, scan.as_deref().map(|n| (n, &[][..])));
                    if t.priority.is_hp() {
                        let plan = pts.schedule_preemptive(t, &loaded, now);
                        let answer = plan
                            .as_ref()
                            .map(|d| (&d.pod_nodes[..], &d.preemptions[..]));
                        record(&mut bytes, answer);
                        direct_preemptive += u32::from(plan.is_some_and(|d| d.is_preemptive()));
                    }
                }
            }
        }
    }
    // the pin must not go vacuous: a large share of the answers evict
    assert!(
        placed > 20_000 && preemptive > 9_000 && direct_preemptive > 12_000,
        "placed {placed}, preemptive {preemptive}, direct preemptive {direct_preemptive}"
    );
    assert_eq!(
        gfs::sim::fnv1a(&bytes),
        0xf7b6_e285_7157_1a54,
        "placed {placed}, preemptive {preemptive}, direct preemptive {direct_preemptive}"
    );
}
