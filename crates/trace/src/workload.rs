//! Task-level workload generation calibrated to the paper's published
//! marginals: the Table 3 task mix, the Fig. 2 request CDFs (2020 vs 2024
//! eras), the Fig. 3 runtime scales, and the diurnal submission intensity
//! behind the Fig. 5 eviction peaks.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gfs_types::{
    CheckpointPlan, GpuDemand, GpuModel, OrgId, Priority, SimDuration, TaskSpec, HOUR,
};

use crate::diurnal::DiurnalTable;
use crate::rand_util::{lognormal, pareto, weighted_index};

/// Which era's request-size distribution to draw from (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEra {
    /// Jul 2020: ~80 % sub-card fractional requests.
    Era2020,
    /// Oct 2024: LLM era — nearly all whole-card, 70 % of pods at 8 GPUs.
    Era2024,
}

/// GPU-size buckets used by the Table 3 mix: `<1, 1, 2, 4, 8` cards.
const SIZE_BUCKETS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// Configuration of the workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Request-size era.
    pub era: WorkloadEra,
    /// Length of the submission window, seconds.
    pub horizon_secs: SimDuration,
    /// Number of HP tasks to submit.
    pub hp_tasks: usize,
    /// Number of spot tasks at scale 1.0.
    pub spot_tasks: usize,
    /// Spot submission-rate multiplier: 1.0 / 2.0 / 4.0 for the paper's
    /// low / medium / high spot workloads (§4.1).
    pub spot_scale: f64,
    /// GPU model every task requests.
    pub gpu_model: GpuModel,
    /// Median task duration, seconds (log-normal body).
    pub duration_median_secs: f64,
    /// Log-normal shape parameter of the duration body.
    pub duration_sigma: f64,
    /// Fraction of tasks drawn from the heavy Pareto tail
    /// (the multi-day LLM trainings behind the 19.8-day P99 of Fig. 3).
    pub heavy_tail_frac: f64,
    /// Hard cap on task duration, seconds.
    pub max_duration_secs: SimDuration,
    /// Checkpoint interval sold with spot instances, seconds.
    pub checkpoint_interval_secs: SimDuration,
    /// Guaranteed duration sold with spot instances, seconds.
    pub guarantee_secs: SimDuration,
    /// Number of tenant organizations tasks are attributed to.
    pub num_orgs: u16,
    /// First task id to assign.
    pub start_id: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            era: WorkloadEra::Era2024,
            horizon_secs: 7 * 24 * HOUR,
            hp_tasks: 2_000,
            spot_tasks: 400,
            spot_scale: 1.0,
            gpu_model: GpuModel::A100,
            duration_median_secs: 5_400.0,
            duration_sigma: 1.1,
            heavy_tail_frac: 0.015,
            max_duration_secs: 14 * 24 * HOUR,
            checkpoint_interval_secs: HOUR,
            guarantee_secs: HOUR,
            num_orgs: 4,
            start_id: 1,
            seed: 1,
        }
    }
}

impl WorkloadConfig {
    /// Sizes the task counts so the submitted work approximates
    /// `hp_load` / `spot_load` fractions of `capacity_gpus` over the
    /// horizon (measured in GPU-seconds), via a calibration sample.
    #[must_use]
    pub fn sized_for(mut self, capacity_gpus: f64, hp_load: f64, spot_load: f64) -> Self {
        let probe = WorkloadGenerator::new(WorkloadConfig {
            hp_tasks: 600,
            spot_tasks: 600,
            spot_scale: 1.0,
            ..self.clone()
        });
        let tasks = probe.generate();
        let (mut hp_gs, mut hp_n, mut spot_gs, mut spot_n) = (0.0f64, 0usize, 0.0f64, 0usize);
        for t in &tasks {
            let gs = t.total_gpus() * t.duration_secs as f64;
            if t.priority.is_hp() {
                hp_gs += gs;
                hp_n += 1;
            } else {
                spot_gs += gs;
                spot_n += 1;
            }
        }
        let budget = capacity_gpus * self.horizon_secs as f64;
        if hp_n > 0 && hp_gs > 0.0 {
            self.hp_tasks = ((budget * hp_load) / (hp_gs / hp_n as f64)).round() as usize;
        }
        if spot_n > 0 && spot_gs > 0.0 {
            self.spot_tasks = ((budget * spot_load) / (spot_gs / spot_n as f64)).round() as usize;
        }
        self
    }
}

/// Deterministic task-trace generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    /// Diurnal submission intensity over the horizon (10:00–24:00 peak),
    /// sampled by `weighted_index`'s subtraction-scan rule.
    diurnal: DiurnalTable,
}

impl WorkloadGenerator {
    /// Creates a generator, building the diurnal table once.
    #[must_use]
    pub fn new(cfg: WorkloadConfig) -> Self {
        let diurnal = DiurnalTable::new(cfg.horizon_secs);
        WorkloadGenerator { cfg, diurnal }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Size-bucket weights per priority class (Table 3 for 2024; Fig. 2 for
    /// 2020).
    #[must_use]
    pub fn size_weights(era: WorkloadEra, priority: Priority) -> [f64; 5] {
        match (era, priority) {
            (WorkloadEra::Era2024, Priority::Hp) => [0.11, 55.11, 13.37, 7.53, 23.69],
            (WorkloadEra::Era2024, Priority::Spot) => [0.82, 67.35, 5.67, 12.00, 14.04],
            (WorkloadEra::Era2020, _) => [80.0, 12.0, 5.0, 2.5, 0.5],
        }
    }

    /// Gang share per priority class (Table 3).
    #[must_use]
    pub fn gang_share(era: WorkloadEra, priority: Priority) -> f64 {
        match (era, priority) {
            (WorkloadEra::Era2024, Priority::Hp) => 0.0866,
            (WorkloadEra::Era2024, Priority::Spot) => 0.2726,
            (WorkloadEra::Era2020, _) => 0.02,
        }
    }

    /// Generates the full trace, sorted by submission time.
    #[must_use]
    pub fn generate(&self) -> Vec<TaskSpec> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let spot_count = (self.cfg.spot_tasks as f64 * self.cfg.spot_scale).round() as usize;
        let mut tasks = Vec::with_capacity(self.cfg.hp_tasks + spot_count);
        let mut next_id = self.cfg.start_id;
        for _ in 0..self.cfg.hp_tasks {
            tasks.push(self.sample_task(next_id, Priority::Hp, &mut rng));
            next_id += 1;
        }
        for _ in 0..spot_count {
            tasks.push(self.sample_task(next_id, Priority::Spot, &mut rng));
            next_id += 1;
        }
        tasks.sort_by_key(|t| (t.submit_at, t.id));
        tasks
    }

    fn sample_task(&self, id: u64, priority: Priority, rng: &mut ChaCha8Rng) -> TaskSpec {
        let weights = Self::size_weights(self.cfg.era, priority);
        let bucket = weighted_index(&weights, rng);
        let gang = rng.gen_bool(Self::gang_share(self.cfg.era, priority));
        let pods: u32 = if gang {
            [2u32, 4, 8][weighted_index(&[0.5, 0.3, 0.2], rng)]
        } else {
            1
        };
        let gpus = if bucket == 0 && !gang {
            GpuDemand::fraction(*[0.25, 0.5].get(rng.gen_range(0..2)).expect("static"))
                .expect("valid fraction")
        } else {
            GpuDemand::whole(SIZE_BUCKETS[bucket.max(1)] as u32)
        };

        let total_gpus = f64::from(pods) * gpus.cards().as_f64();
        // larger tasks run longer (Fig. 3): scale the median by G^0.3
        let median = self.cfg.duration_median_secs * total_gpus.max(0.25).powf(0.3);
        let raw = if rng.gen_bool(self.cfg.heavy_tail_frac.clamp(0.0, 1.0)) {
            pareto(6.0 * HOUR as f64, 1.05, rng)
        } else {
            lognormal(median, self.cfg.duration_sigma, rng)
        };
        let duration = (raw as u64).clamp(60, self.cfg.max_duration_secs);

        let submit = self.diurnal.sample_scan(rng);
        let org = OrgId::new(rng.gen_range(0..self.cfg.num_orgs.max(1)));

        let mut b = TaskSpec::builder(id)
            .org(org)
            .priority(priority)
            .gpu_model(self.cfg.gpu_model)
            .pods(pods)
            .gpus_per_pod(gpus)
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

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            hp_tasks: 3_000,
            spot_tasks: 1_000,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn counts_and_ordering() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        assert_eq!(tasks.len(), 4_000);
        for w in tasks.windows(2) {
            assert!(w[0].submit_at <= w[1].submit_at);
        }
        let ids: std::collections::HashSet<_> = tasks.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), tasks.len(), "ids are unique");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WorkloadGenerator::new(small_cfg()).generate();
        let b = WorkloadGenerator::new(small_cfg()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn spot_scale_multiplies_spot_tasks() {
        let mut cfg = small_cfg();
        cfg.spot_scale = 4.0;
        let tasks = WorkloadGenerator::new(cfg).generate();
        let spot = tasks.iter().filter(|t| t.priority.is_spot()).count();
        assert_eq!(spot, 4_000);
    }

    #[test]
    fn size_mix_matches_table3() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        let hp: Vec<_> = tasks.iter().filter(|t| t.priority.is_hp()).collect();
        let one_card = hp
            .iter()
            .filter(|t| t.gpus_per_pod == GpuDemand::whole(1))
            .count() as f64
            / hp.len() as f64;
        assert!(
            (one_card - 0.5511).abs() < 0.05,
            "1-card HP share {one_card}"
        );
        let eight = hp
            .iter()
            .filter(|t| t.gpus_per_pod == GpuDemand::whole(8))
            .count() as f64
            / hp.len() as f64;
        assert!((eight - 0.2369).abs() < 0.05, "8-card HP share {eight}");
    }

    #[test]
    fn gang_share_matches_table3() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        let spot: Vec<_> = tasks.iter().filter(|t| t.priority.is_spot()).collect();
        let gang = spot.iter().filter(|t| t.is_gang()).count() as f64 / spot.len() as f64;
        assert!((gang - 0.2726).abs() < 0.06, "spot gang share {gang}");
        let hp: Vec<_> = tasks.iter().filter(|t| t.priority.is_hp()).collect();
        let hp_gang = hp.iter().filter(|t| t.is_gang()).count() as f64 / hp.len() as f64;
        assert!((hp_gang - 0.0866).abs() < 0.03, "hp gang share {hp_gang}");
    }

    #[test]
    fn era_2020_is_mostly_fractional() {
        let mut cfg = small_cfg();
        cfg.era = WorkloadEra::Era2020;
        let tasks = WorkloadGenerator::new(cfg).generate();
        let frac = tasks
            .iter()
            .filter(|t| t.gpus_per_pod.is_fractional())
            .count() as f64
            / tasks.len() as f64;
        assert!(frac > 0.6, "2020 era fractional share {frac}");
    }

    #[test]
    fn era_2024_is_mostly_whole_card() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        let frac = tasks
            .iter()
            .filter(|t| t.gpus_per_pod.is_fractional())
            .count() as f64
            / tasks.len() as f64;
        assert!(frac < 0.02, "2024 era fractional share {frac}");
    }

    #[test]
    fn submissions_peak_in_business_hours() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        let peak = tasks
            .iter()
            .filter(|t| (10..24).contains(&t.submit_at.hour_of_day()))
            .count() as f64
            / tasks.len() as f64;
        // 14 peak hours out of 24 carry well over their uniform share
        assert!(peak > 0.7, "peak-hour submission share {peak}");
    }

    #[test]
    fn spot_tasks_carry_guarantees_and_checkpoints() {
        let tasks = WorkloadGenerator::new(small_cfg()).generate();
        for t in tasks.iter().filter(|t| t.priority.is_spot()) {
            assert_eq!(t.guarantee_secs, Some(HOUR));
            assert!(matches!(t.checkpoint, CheckpointPlan::Periodic { .. }));
        }
        for t in tasks.iter().filter(|t| t.priority.is_hp()) {
            assert_eq!(t.guarantee_secs, None);
        }
    }

    #[test]
    fn durations_have_heavy_tail() {
        let mut cfg = small_cfg();
        cfg.hp_tasks = 20_000;
        cfg.spot_tasks = 0;
        let tasks = WorkloadGenerator::new(cfg).generate();
        let durs: Vec<f64> = tasks
            .iter()
            .map(|t| t.duration_secs as f64 / HOUR as f64)
            .collect();
        let p50 = crate::stats::percentile(&durs, 50.0);
        let p99 = crate::stats::percentile(&durs, 99.0);
        assert!(p50 > 0.5 && p50 < 6.0, "P50 {p50} h");
        assert!(p99 / p50 > 5.0, "tail ratio {}", p99 / p50);
    }

    #[test]
    fn sized_for_hits_target_load() {
        let cfg = WorkloadConfig {
            horizon_secs: 24 * HOUR,
            ..small_cfg()
        }
        .sized_for(512.0, 0.6, 0.2);
        let tasks = WorkloadGenerator::new(cfg.clone()).generate();
        let hp_gs: f64 = tasks
            .iter()
            .filter(|t| t.priority.is_hp())
            .map(|t| t.total_gpus() * t.duration_secs as f64)
            .sum();
        let budget = 512.0 * cfg.horizon_secs as f64;
        let load = hp_gs / budget;
        assert!((load - 0.6).abs() < 0.25, "achieved HP load {load}");
    }
}
