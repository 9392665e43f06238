//! FGD baseline (Weng et al., ATC'23): Fragmentation Gradient Descent.
//! Requests are placed on the node whose fragmentation measure *increases
//! the least* (steepest descent on the fragmentation gradient). Following
//! §4.1 we lift the original in-card measure to in-node granularity:
//! fragmentation of a node is the expected number of idle GPUs that cannot
//! serve a request drawn from the workload's size distribution.

use gfs_cluster::{Cluster, Decision, Node, Scheduler};
use gfs_types::{GpuDemand, SimTime, TaskSpec};

use crate::placement::{gang_nodes_by, plan_preemption};

/// Request-size distribution used to weight the fragmentation measure:
/// `(whole cards, probability)` — the Table 3 HP mix.
const SIZE_MIX: [(u32, f64); 4] = [(1, 0.5511), (2, 0.1337), (4, 0.0753), (8, 0.2369)];

/// Fragmentation of a node with `idle` idle cards: expected idle GPUs
/// unusable for a random request (idle capacity that cannot host the
/// sampled size).
#[must_use]
pub fn fragmentation(idle: u32) -> f64 {
    let idle = f64::from(idle);
    SIZE_MIX
        .iter()
        .map(|&(size, p)| {
            if idle >= f64::from(size) {
                // usable; leftover below the size granule is fragmented
                p * (idle % f64::from(size))
            } else {
                // whole idle capacity is unusable for this size
                p * idle
            }
        })
        .sum()
}

/// Fragmentation delta if one pod of `demand` whole cards lands on `node`.
fn frag_delta(node: &Node, demand: u32) -> f64 {
    let idle = node.idle_gpus();
    fragmentation(idle.saturating_sub(demand)) - fragmentation(idle)
}

/// The FGD policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fgd;

impl Fgd {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Fgd
    }
}

impl Scheduler for Fgd {
    fn name(&self) -> &str {
        "FGD"
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        let demand = match task.gpus_per_pod {
            GpuDemand::Whole(n) => n,
            GpuDemand::Fraction(_) => 1,
        };
        if let Some(nodes) = gang_nodes_by(cluster, task, |n, _| Some(-frag_delta(n, demand))) {
            return Some(Decision::place(nodes));
        }
        if task.priority.is_hp() {
            // preemption falls back to evicting the newest spot containers,
            // like YARN — FGD itself contributes only the placement rule
            return plan_preemption(cluster, task, now, |rt, _| {
                u64::MAX - rt.started_at.as_secs()
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuModel, NodeId, Priority};

    fn task(id: u64, priority: Priority, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(3_600)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_node_has_zero_fragmentation() {
        let n = Node::new(NodeId::new(0), GpuModel::A100, 8);
        assert_eq!(
            fragmentation(n.idle_gpus()),
            0.0,
            "8 idle GPUs serve every bucket"
        );
    }

    #[test]
    fn odd_remainders_fragment() {
        let mut n = Node::new(NodeId::new(0), GpuModel::A100, 8);
        n.place_pod(gfs_types::TaskId::new(1), GpuDemand::whole(5), Priority::Hp)
            .unwrap();
        // 3 idle: unusable for the 8-bucket, remainder 1 for the 2-bucket
        let f = fragmentation(n.idle_gpus());
        assert!(f > 0.0);
    }

    #[test]
    fn placement_minimises_fragmentation_growth() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        // node 0 has 6 idle; node 1 has 8 idle
        c.start_task(
            task(1, Priority::Hp, 2),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let mut s = Fgd::new();
        // a 2-GPU pod on node 0 leaves 4 idle (clean); on node 1 leaves 6
        // (fragmented for the 8- and 4-buckets)
        let d = s
            .schedule(&task(2, Priority::Hp, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(d.pod_nodes, vec![NodeId::new(0)]);
    }

    #[test]
    fn hp_preempts_when_needed() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        let spot = TaskSpec::builder(1)
            .priority(Priority::Spot)
            .gpus_per_pod(GpuDemand::whole(8))
            .duration_secs(10_000)
            .build()
            .unwrap();
        c.start_task(spot, &[NodeId::new(0)], SimTime::ZERO, 0)
            .unwrap();
        let mut s = Fgd::new();
        let d = s
            .schedule(&task(2, Priority::Hp, 8), &c, SimTime::from_secs(10))
            .unwrap();
        assert!(d.is_preemptive());
    }
}
