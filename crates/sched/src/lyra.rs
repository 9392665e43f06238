//! Lyra baseline (Li et al., EuroSys'23) adapted per §4.1: HP tasks play
//! the role of inference jobs, spot tasks the role of elastic training
//! jobs that borrow *whole idle nodes* on loan. Conservative loaning keeps
//! the eviction rate very low but queues spot tasks for a long time — the
//! behaviour Table 5 reports (e ≈ 1.8 %, long spot JQT).

use gfs_cluster::{Cluster, Decision, Scheduler};
use gfs_types::{SimTime, TaskSpec};

use crate::placement::{best_fit_nodes, gang_nodes_by, plan_preemption};

/// The Lyra policy.
#[derive(Debug, Clone, Default)]
pub struct Lyra {
    /// Fraction of nodes kept un-loanable as an inference headroom reserve.
    reserve_frac: f64,
}

impl Lyra {
    /// Creates the scheduler with the default 10 % node reserve.
    #[must_use]
    pub fn new() -> Self {
        Lyra { reserve_frac: 0.10 }
    }
}

impl Scheduler for Lyra {
    fn name(&self) -> &str {
        "Lyra"
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        if task.priority.is_hp() {
            if let Some(nodes) = best_fit_nodes(cluster, task) {
                return Some(Decision::place(nodes));
            }
            // reclaim loaned nodes at minimal preemption cost (Lyra's
            // heuristic objective): evict the training tasks that waste the
            // least work
            return plan_preemption(cluster, task, now, |rt, t| rt.waste(t) as u64);
        }
        // spot (training) tasks only run on loans: nodes that are entirely
        // idle or already loaned, and only while the reserve holds — both
        // facts are maintained incrementally by the capacity index. The
        // reserve is a fraction of the *schedulable* fleet: failed nodes
        // and nodes draining for maintenance must not count toward the
        // loanable budget (a draining node can never host a loan again).
        let total_nodes = cluster.schedulable_node_count() as f64;
        let idle_nodes = cluster.fully_idle_nodes() as f64;
        if idle_nodes <= total_nodes * self.reserve_frac {
            return None; // loan book is full: protect inference headroom
        }
        let nodes = gang_nodes_by(cluster, task, |n, _| {
            let fully_idle = n.idle_gpus() == n.total_gpus();
            let loaned = cluster.has_spot_on(n.id());
            if fully_idle || loaned {
                // prefer already-loaned nodes, then the emptiest
                Some(if loaned { 1_000.0 } else { 0.0 } + f64::from(n.idle_gpus()))
            } else {
                None
            }
        })?;
        Some(Decision::place(nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuDemand, GpuModel, NodeId, Priority};

    fn task(id: u64, priority: Priority, gpus: u32) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(10_000)
            .build()
            .unwrap()
    }

    #[test]
    fn spot_runs_only_on_idle_or_loaned_nodes() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        // node 0 partially used by HP
        c.start_task(
            task(1, Priority::Hp, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let mut s = Lyra::new();
        let d = s
            .schedule(&task(2, Priority::Spot, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_ne!(d.pod_nodes[0], NodeId::new(0), "mixed node is not loanable");
    }

    #[test]
    fn spot_denied_when_reserve_exhausted() {
        let mut c = Cluster::homogeneous(2, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Hp, 4),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        c.start_task(
            task(2, Priority::Hp, 4),
            &[NodeId::new(1)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        // no fully idle node left
        let mut s = Lyra::new();
        assert!(s
            .schedule(&task(3, Priority::Spot, 1), &c, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn spot_prefers_already_loaned_nodes() {
        let mut c = Cluster::homogeneous(4, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 2),
            &[NodeId::new(2)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let mut s = Lyra::new();
        let d = s
            .schedule(&task(2, Priority::Spot, 2), &c, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            d.pod_nodes,
            vec![NodeId::new(2)],
            "pack onto the existing loan"
        );
    }

    #[test]
    fn hp_reclaims_with_minimal_waste() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 8),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let mut s = Lyra::new();
        let d = s
            .schedule(&task(2, Priority::Hp, 8), &c, SimTime::from_secs(50))
            .unwrap();
        assert!(d.is_preemptive());
    }
}
