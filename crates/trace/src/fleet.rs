//! Fleet-scale trace generation: million-task, heavy-tailed, sharded —
//! and fast enough to sit inside a benchmark loop.
//!
//! Like [`WorkloadGenerator`](crate::workload::WorkloadGenerator),
//! [`FleetTraceGenerator`] builds the cumulative diurnal intensity over
//! the horizon once and samples each submission with one uniform draw
//! plus a binary search — O(tasks · log hours) total, no per-task
//! allocation. The two differ only in how a draw maps to an hour: the
//! fleet takes the first hour whose prefix sum exceeds it.
//!
//! Tasks are drawn from a single seeded stream in global id order and
//! routed to shards by organization (`org % shards`), matching
//! `gfs_sim::fleet::partition_tasks`: the *task population* is a function
//! of `(seed, tasks)` alone, so re-sharding the same seed redistributes
//! identical tasks instead of resampling them.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_types::{
    CheckpointPlan, GpuDemand, GpuModel, OrgId, Priority, SimDuration, TaskSpec, HOUR,
};

use crate::diurnal::DiurnalTable;
use crate::rand_util::{lognormal, pareto, weighted_index};

/// Configuration of the fleet trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTraceConfig {
    /// Failure-domain shards the trace is partitioned across.
    pub shards: u32,
    /// Total tasks across the whole fleet.
    pub tasks: u64,
    /// Fraction of tasks submitted as spot (the rest are HP).
    pub spot_fraction: f64,
    /// Length of the submission window, seconds.
    pub horizon_secs: SimDuration,
    /// GPU model every task requests.
    pub gpu_model: GpuModel,
    /// Median task duration, seconds (log-normal body).
    pub duration_median_secs: f64,
    /// Log-normal shape parameter of the duration body.
    pub duration_sigma: f64,
    /// Fraction of tasks drawn from the heavy Pareto tail (multi-day
    /// trainings).
    pub heavy_tail_frac: f64,
    /// Hard cap on task duration, seconds.
    pub max_duration_secs: SimDuration,
    /// Checkpoint interval attached to every task, seconds.
    pub checkpoint_interval_secs: SimDuration,
    /// Guaranteed duration sold with spot tasks, seconds.
    pub guarantee_secs: SimDuration,
    /// Tenant organizations tasks are attributed to (routing key).
    pub num_orgs: u16,
    /// First task id to assign.
    pub start_id: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetTraceConfig {
    fn default() -> Self {
        FleetTraceConfig {
            shards: 8,
            tasks: 10_000,
            spot_fraction: 0.2,
            horizon_secs: 7 * 24 * HOUR,
            gpu_model: GpuModel::A100,
            duration_median_secs: 5_400.0,
            duration_sigma: 1.1,
            heavy_tail_frac: 0.015,
            max_duration_secs: 14 * 24 * HOUR,
            checkpoint_interval_secs: HOUR,
            guarantee_secs: HOUR,
            num_orgs: 64,
            start_id: 1,
            seed: 1,
        }
    }
}

/// Deterministic sharded trace generator with a precomputed diurnal CDF.
#[derive(Debug, Clone)]
pub struct FleetTraceGenerator {
    cfg: FleetTraceConfig,
    /// Diurnal submission intensity over the horizon, sampled by the
    /// partition rule.
    diurnal: DiurnalTable,
}

impl FleetTraceGenerator {
    /// Creates a generator, building the diurnal CDF once.
    #[must_use]
    pub fn new(cfg: FleetTraceConfig) -> Self {
        let diurnal = DiurnalTable::new(cfg.horizon_secs);
        FleetTraceGenerator { cfg, diurnal }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FleetTraceConfig {
        &self.cfg
    }

    /// Generates the fleet trace partitioned into per-shard streams,
    /// each sorted by `(submit, id)`. Tasks are drawn in global id order
    /// from one seeded stream and routed by `org % shards`.
    #[must_use]
    pub fn generate_sharded(&self) -> Vec<Vec<TaskSpec>> {
        let shards = self.cfg.shards.max(1) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let per_shard_hint = (self.cfg.tasks as usize / shards).saturating_add(1);
        let mut out: Vec<Vec<TaskSpec>> = (0..shards)
            .map(|_| Vec::with_capacity(per_shard_hint))
            .collect();
        let spot_cut = self.cfg.spot_fraction.clamp(0.0, 1.0);
        for i in 0..self.cfg.tasks {
            let id = self.cfg.start_id + i;
            let priority = if rng.gen_bool(spot_cut) {
                Priority::Spot
            } else {
                Priority::Hp
            };
            let task = self.sample_task(id, priority, &mut rng);
            let shard = usize::from(task.org.raw()) % shards;
            out[shard].push(task);
        }
        for trace in &mut out {
            trace.sort_by_key(|t| (t.submit_at, t.id));
        }
        out
    }

    fn sample_task(&self, id: u64, priority: Priority, rng: &mut ChaCha8Rng) -> TaskSpec {
        // whole-card 2024-era mix, collapsed to the four whole buckets
        let weights = match priority {
            Priority::Hp => [55.2, 13.4, 7.5, 23.7],
            Priority::Spot => [68.2, 5.7, 12.0, 14.0],
        };
        let gpus = [1u32, 2, 4, 8][weighted_index(&weights, rng)];
        let gang_share = match priority {
            Priority::Hp => 0.0866,
            Priority::Spot => 0.2726,
        };
        let pods: u32 = if rng.gen_bool(gang_share) {
            [2u32, 4, 8][weighted_index(&[0.5, 0.3, 0.2], rng)]
        } else {
            1
        };

        let total_gpus = f64::from(pods * gpus);
        let median = self.cfg.duration_median_secs * total_gpus.powf(0.3);
        let raw = if rng.gen_bool(self.cfg.heavy_tail_frac.clamp(0.0, 1.0)) {
            pareto(6.0 * HOUR as f64, 1.05, rng)
        } else {
            lognormal(median, self.cfg.duration_sigma, rng)
        };
        let duration = (raw as u64).clamp(60, self.cfg.max_duration_secs);

        let submit = self.diurnal.sample_partition(rng);
        let org = OrgId::new(rng.gen_range(0..self.cfg.num_orgs.max(1)));

        let mut b = TaskSpec::builder(id)
            .org(org)
            .priority(priority)
            .gpu_model(self.cfg.gpu_model)
            .pods(pods)
            .gpus_per_pod(GpuDemand::whole(gpus))
            .duration_secs(duration)
            .submit_at(submit)
            .checkpoint(CheckpointPlan::Periodic {
                interval: self.cfg.checkpoint_interval_secs,
            });
        if priority.is_spot() {
            b = b.guarantee_secs(self.cfg.guarantee_secs);
        }
        b.build()
            .expect("generated tasks satisfy the spec invariants")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetTraceConfig {
        FleetTraceConfig {
            shards: 4,
            tasks: 4_000,
            ..FleetTraceConfig::default()
        }
    }

    #[test]
    fn counts_ordering_and_routing() {
        let traces = FleetTraceGenerator::new(cfg()).generate_sharded();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces.iter().map(Vec::len).sum::<usize>(), 4_000);
        for (s, trace) in traces.iter().enumerate() {
            for w in trace.windows(2) {
                assert!((w[0].submit_at, w[0].id) < (w[1].submit_at, w[1].id));
            }
            for t in trace {
                assert_eq!(usize::from(t.org.raw()) % 4, s);
                assert!(t.submit_at.as_secs() < cfg().horizon_secs);
                assert!(t.duration_secs >= 60);
            }
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let a = FleetTraceGenerator::new(cfg()).generate_sharded();
        let b = FleetTraceGenerator::new(cfg()).generate_sharded();
        assert_eq!(a, b);
        let c = FleetTraceGenerator::new(FleetTraceConfig { seed: 9, ..cfg() }).generate_sharded();
        assert_ne!(a, c);
    }

    #[test]
    fn resharding_preserves_the_task_population() {
        let four = FleetTraceGenerator::new(cfg()).generate_sharded();
        let two =
            FleetTraceGenerator::new(FleetTraceConfig { shards: 2, ..cfg() }).generate_sharded();
        let mut ids_four: Vec<_> = four.iter().flatten().map(|t| t.id).collect();
        let mut ids_two: Vec<_> = two.iter().flatten().map(|t| t.id).collect();
        ids_four.sort_unstable();
        ids_two.sort_unstable();
        assert_eq!(ids_four, ids_two);
    }

    #[test]
    fn durations_are_heavy_tailed() {
        let traces = FleetTraceGenerator::new(FleetTraceConfig {
            tasks: 20_000,
            ..cfg()
        })
        .generate_sharded();
        let mut durations: Vec<u64> = traces.iter().flatten().map(|t| t.duration_secs).collect();
        durations.sort_unstable();
        let p50 = durations[durations.len() / 2];
        let p99 = durations[durations.len() * 99 / 100];
        assert!(
            p99 as f64 > 10.0 * p50 as f64,
            "tail should dominate: p50={p50} p99={p99}"
        );
    }
}
