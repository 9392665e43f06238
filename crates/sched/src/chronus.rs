//! Chronus baseline (Gao et al., SoCC'21) adapted per §4.1: a lease-based
//! deadline scheduler. HP tasks map to SLO jobs with a 20-minute lease,
//! spot tasks to best-effort jobs with a 5-minute lease. Best-effort jobs
//! may only be displaced when their current lease has expired — there is no
//! arbitrary-time preemption, so its eviction statistic is reported
//! separately ("-" in Table 5).

use gfs_cluster::{Cluster, Decision, Scheduler};
use gfs_types::{SimDuration, SimTime, TaskSpec};

use crate::placement::{best_fit_nodes, plan_preemption};

/// Lease length for SLO (HP) jobs, seconds.
pub const HP_LEASE_SECS: SimDuration = 20 * 60;
/// Lease length for best-effort (spot) jobs, seconds.
pub const SPOT_LEASE_SECS: SimDuration = 5 * 60;

/// The Chronus policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chronus;

impl Chronus {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Chronus
    }
}

impl Scheduler for Chronus {
    fn name(&self) -> &str {
        "Chronus"
    }

    fn queue_cmp(&self, a: &TaskSpec, b: &TaskSpec) -> std::cmp::Ordering {
        // SLO jobs first, earliest deadline (submit + lease) first; then
        // best-effort by submit order — Chronus's lease admission order.
        let key = |t: &TaskSpec| {
            let lease = if t.priority.is_hp() {
                HP_LEASE_SECS
            } else {
                SPOT_LEASE_SECS
            };
            (t.priority.is_spot(), t.submit_at.as_secs() + lease, t.id)
        };
        key(a).cmp(&key(b))
    }

    fn schedule(&mut self, task: &TaskSpec, cluster: &Cluster, now: SimTime) -> Option<Decision> {
        if let Some(nodes) = best_fit_nodes(cluster, task) {
            return Some(Decision::place(nodes));
        }
        if task.priority.is_hp() {
            // displacement only of best-effort jobs whose lease expired
            let d = plan_preemption(cluster, task, now, |rt, t| {
                // lease-expired tasks first (ordered by how long past expiry,
                // most-expired first); unexpired tasks get a huge key so they
                // are only touched when unavoidable — and then we bail below
                let ran = rt.executed(t);
                if ran >= SPOT_LEASE_SECS {
                    u64::MAX / 2 - ran
                } else {
                    u64::MAX - ran
                }
            })?;
            // reject plans that would displace jobs inside their lease
            let all_expired = d.preemptions.iter().all(|v| {
                cluster
                    .running_task(*v)
                    .is_some_and(|rt| rt.executed(now) >= SPOT_LEASE_SECS)
            });
            return all_expired.then_some(d);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::{GpuDemand, GpuModel, NodeId, Priority, TaskId};

    fn task(id: u64, priority: Priority, gpus: u32, submit: u64) -> TaskSpec {
        TaskSpec::builder(id)
            .priority(priority)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(50_000)
            .submit_at(SimTime::from_secs(submit))
            .build()
            .unwrap()
    }

    #[test]
    fn queue_puts_slo_jobs_first() {
        let s = Chronus::new();
        let mut q = vec![
            task(1, Priority::Spot, 1, 0),
            task(2, Priority::Hp, 1, 100),
            task(3, Priority::Hp, 1, 0),
        ];
        s.sort_queue(&mut q);
        let ids: Vec<u64> = q.iter().map(|t| t.id.raw()).collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    #[test]
    fn respects_unexpired_leases() {
        let mut c = Cluster::homogeneous(1, GpuModel::A100, 8);
        c.start_task(
            task(1, Priority::Spot, 8, 0),
            &[NodeId::new(0)],
            SimTime::ZERO,
            0,
        )
        .unwrap();
        let mut s = Chronus::new();
        // 100 s into the spot lease: HP must wait
        assert!(s
            .schedule(&task(2, Priority::Hp, 8, 0), &c, SimTime::from_secs(100))
            .is_none());
        // after the 5-minute lease the displacement is allowed
        let d = s
            .schedule(
                &task(3, Priority::Hp, 8, 0),
                &c,
                SimTime::from_secs(SPOT_LEASE_SECS + 1),
            )
            .unwrap();
        assert_eq!(d.preemptions, vec![TaskId::new(1)]);
    }

    #[test]
    fn places_on_idle_capacity_without_leases() {
        let c = Cluster::homogeneous(1, GpuModel::A100, 8);
        let mut s = Chronus::new();
        let d = s
            .schedule(&task(1, Priority::Spot, 2, 0), &c, SimTime::ZERO)
            .unwrap();
        assert!(!d.is_preemptive());
    }
}
