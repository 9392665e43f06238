//! Reference model for the scheduling optimization problem (Eq. 12).
//!
//! The paper formulates placement-with-preemption as a mixed-integer
//! program and then solves it heuristically (PTS) because the exact
//! problem is NP-hard. This test holds an *exhaustive* optimal solver for
//! tiny instances: the oracle the Alg. 2 heuristic
//! (`Pts::schedule_preemptive`) is checked against on seeded clusters, for
//! feasibility and for how many victims it evicts beyond the optimum.

use gfs_cluster::Cluster;
use gfs_core::{Pts, PtsVariant};
use gfs_testkit::pin;
use gfs_types::{
    Cards, CheckpointPlan, GfsParams, GpuDemand, GpuModel, NodeId, Priority, SimTime, SplitMix64,
    TaskId, TaskSpec,
};

/// An optimal preemption plan for one incoming HP task.
#[derive(Debug)]
struct OptimalPlan {
    /// Chosen node per pod.
    pod_nodes: Vec<NodeId>,
    /// Evicted spot tasks.
    victims: Vec<TaskId>,
    /// Objective value: `(#victims, total waste in GPU-seconds)`,
    /// lexicographic — the Eq. 12 objective restricted to one decision.
    objective: (usize, f64),
}

/// Exhaustively searches every subset of running spot tasks and every pod
/// placement to find the plan minimising `(#victims, waste)`.
///
/// Exponential in the number of running spot tasks — intended for
/// instances with at most ~16 spot tasks.
///
/// Returns `None` when even evicting everything cannot host the task.
fn optimal_preemption(cluster: &Cluster, task: &TaskSpec, now: SimTime) -> Option<OptimalPlan> {
    let spots: Vec<(TaskId, f64)> = cluster
        .running()
        .filter(|rt| rt.spec.priority.is_spot())
        .map(|rt| (rt.spec.id, rt.waste(now)))
        .collect();
    assert!(
        spots.len() <= 20,
        "exhaustive solver limited to 20 spot tasks, got {}",
        spots.len()
    );
    let need = task.gpus_per_pod.cards();

    let mut best: Option<OptimalPlan> = None;
    for mask in 0u32..(1 << spots.len()) {
        let victims: Vec<TaskId> = spots
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, (id, _))| *id)
            .collect();
        let waste: f64 = spots
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, (_, w))| *w)
            .sum();
        let objective = (victims.len(), waste);
        if let Some(b) = &best {
            // prune dominated subsets early
            if objective.0 > b.objective.0
                || (objective.0 == b.objective.0 && objective.1 >= b.objective.1)
            {
                continue;
            }
        }
        // virtual idle capacity after evicting the subset
        let mut idle: Vec<(NodeId, Cards)> = cluster
            .nodes()
            .iter()
            .filter(|n| n.model() == task.gpu_model)
            .map(|n| (n.id(), Cards::whole(n.idle_gpus())))
            .collect();
        for v in &victims {
            if let Some(rt) = cluster.running_task(*v) {
                for p in &rt.placements {
                    if let Some(slot) = idle.iter_mut().find(|(id, _)| *id == p.node) {
                        slot.1 += p.alloc.cards();
                    }
                }
            }
        }
        // greedy feasibility: place pods on the emptiest nodes first
        // (optimal for identical pod sizes)
        idle.sort_by_key(|&(_, cap)| std::cmp::Reverse(cap));
        let mut pod_nodes = Vec::with_capacity(task.pods as usize);
        for _ in 0..task.pods {
            match idle.iter_mut().find(|(_, cap)| *cap >= need) {
                Some(slot) => {
                    slot.1 -= need;
                    pod_nodes.push(slot.0);
                }
                None => break,
            }
        }
        if pod_nodes.len() == task.pods as usize {
            best = Some(OptimalPlan {
                pod_nodes,
                victims,
                objective,
            });
        }
    }
    best
}

fn spot(id: u64, gpus: u32, start: u64) -> (TaskSpec, SimTime) {
    (
        TaskSpec::builder(id)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(100_000)
            .checkpoint(CheckpointPlan::Periodic { interval: 1_800 })
            .build()
            .unwrap(),
        SimTime::from_secs(start),
    )
}

fn hp(id: u64, pods: u32, gpus: u32) -> TaskSpec {
    TaskSpec::builder(id)
        .priority(Priority::Hp)
        .pods(pods)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(3_600)
        .build()
        .unwrap()
}

#[test]
fn zero_victims_when_idle_space_exists() {
    let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
    let (s, at) = spot(1, 8, 0);
    c.start_task(s, &[NodeId::new(0)], at, 0).unwrap();
    let plan = optimal_preemption(&c, &hp(2, 1, 4), SimTime::from_secs(100)).unwrap();
    assert!(plan.victims.is_empty());
    assert_eq!(plan.objective, (0, 0.0));
    assert_eq!(plan.pod_nodes, [NodeId::new(1)]);
}

#[test]
fn minimal_victim_subset_found() {
    let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
    for (i, g) in [2u32, 2, 4].iter().enumerate() {
        let (s, at) = spot(i as u64 + 1, *g, 0);
        c.start_task(s, &[NodeId::new(0)], at, 0).unwrap();
    }
    // need 4 GPUs: evicting the single 4-GPU task (1 victim) is optimal
    let plan = optimal_preemption(&c, &hp(9, 1, 4), SimTime::from_secs(1_000)).unwrap();
    assert_eq!(plan.victims, vec![TaskId::new(3)]);
}

#[test]
fn infeasible_returns_none() {
    let c = Cluster::homogeneous(1, GpuModel::A100, 8);
    assert!(optimal_preemption(&c, &hp(1, 1, 16), SimTime::ZERO).is_none());
}

/// The exhaustive solver as the oracle of Alg. 2, on seeded tiny
/// clusters: 1–4 nodes hosting up to 16 running spot tasks (1/2/4/8-card
/// pods, one in four a 2-pod gang), and an incoming HP task of 1–2
/// pods. PTS must agree on feasibility, its plan must fit once its
/// victims leave, and it can never beat the optimum; the victims it
/// evicts beyond the optimum are pinned.
#[test]
fn pts_preemption_is_checked_against_the_exhaustive_optimum() {
    let pts = Pts::new(GfsParams::default(), PtsVariant::Full);
    let now = SimTime::from_secs(5_000);
    let (mut feasible, mut gap_cases, mut extra) = (0u64, 0u64, 0u64);
    for case in 0..400u64 {
        let mut rng = SplitMix64::new(case);
        let mut draw = |n: u64| rng.next_u64() % n;
        let nodes = 1 + draw(4) as u32;
        let mut c = Cluster::homogeneous(nodes, GpuModel::A100, 8);
        for id in 1..=16 {
            let (s, _) = spot(id, [1, 2, 4, 8][draw(4) as usize], 0);
            let pods = if draw(4) == 0 { 2 } else { 1 };
            let s = TaskSpec { pods, ..s };
            let at: Vec<NodeId> = (0..pods)
                .map(|_| NodeId::new(draw(u64::from(nodes)) as u32))
                .collect();
            // a spot task that does not fit where it was sent is dropped
            let _ = c.start_task(s, &at, SimTime::from_secs(draw(4_000)), 0);
        }
        let task = hp(99, 1 + draw(2) as u32, [1, 2, 4, 8][draw(4) as usize]);
        match (
            optimal_preemption(&c, &task, now),
            pts.schedule_preemptive(&task, &c, now),
        ) {
            (None, None) => {}
            (Some(opt), Some(plan)) => {
                feasible += 1;
                let mut after = c.clone();
                for &v in &plan.preemptions {
                    after
                        .evict_task(v, now)
                        .expect("victims are running spot tasks");
                }
                after
                    .start_task(task.clone(), &plan.pod_nodes, now, 0)
                    .unwrap_or_else(|e| panic!("case {case}: PTS plan does not fit: {e}"));
                let gap = plan.preemptions.len().checked_sub(opt.victims.len());
                let gap = gap.unwrap_or_else(|| panic!("case {case}: PTS beat the optimum"));
                if gap > 0 {
                    gap_cases += 1;
                    extra += gap as u64;
                }
            }
            (o, h) => panic!("case {case}: feasibility disagreement {o:?} vs {h:?}"),
        }
    }
    // Alg. 2 spares the highest-waste victims first, so it trades extra
    // victims for less waste on roughly a quarter of the instances
    pin("core.eq12_oracle", &[feasible, gap_cases, extra]);
}
