//! The four workloads: what each one is made of and how a session over it
//! is set up. Every constant here is an input size; `README.md` records
//! why each workload exists and what it loads.
//!
//! The seed reaches the input generators only — task trace, dynamics,
//! organisation history, model initialisation.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use gfs::cluster::{Cluster, Scheduler};
use gfs::core::{DemandEstimator, GfsScheduler, PtsVariant};
use gfs::forecast::dataset::{OrgDataset, OrgInfo, Sample};
use gfs::forecast::{FitReport, Forecast, Forecaster, OrgLinear, TrainConfig};
use gfs::sched::{PlacementPolicy, YarnCs};
use gfs::sim::fleet::{domain_shards, FleetShard};
use gfs::sim::{ClusterService, SimConfig};
use gfs::trace::{
    default_attr_vocab, generate_all, paper_orgs, FleetTraceConfig, FleetTraceGenerator,
    WorkloadConfig, WorkloadGenerator,
};
use gfs::types::{
    DynamicsPlan, FailureDomain, GfsParams, GpuModel, SimDuration, SimTime, TaskSpec, HOUR,
    SECONDS_PER_DAY,
};

use crate::proxy::{Sink, TracedScheduler};
use crate::spans::Spans;

/// The seed used when `--seed` is not given; fingerprints are pinned for it.
pub const DEFAULT_SEED: u64 = 1;

const GPUS_PER_NODE: u32 = 8;
/// OrgLinear input window, hours (one week).
const INPUT_LEN: usize = 168;
/// Forecast horizon, hours — `max(guarantee_hours, 4)` as `gfs::scenario` builds it.
const FORECAST_HORIZON: usize = 4;
/// Weeks of hourly per-organisation history the forecaster trains on.
const HISTORY_WEEKS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperLight,
    PaperBacklog,
    FleetSparse,
    ChurnRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperLight,
        Workload::PaperBacklog,
        Workload::FleetSparse,
        Workload::ChurnRecover,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLight => "paper_light",
            Workload::PaperBacklog => "paper_backlog",
            Workload::FleetSparse => "fleet_sparse",
            Workload::ChurnRecover => "churn_recover",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Shrinks a workload for the crate's smoke test: node counts, task
/// counts, organisations and training epochs scale; horizons and the
/// checkpoint/drill schedule do not, so the smoke walks the same code
/// paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    pub const FULL: Scale = Scale(1.0);

    fn of(self, n: u32, floor: u32) -> u32 {
        ((f64::from(n) * self.0).round() as u32).max(floor)
    }
}

/// When checkpoints and recovery drills happen, in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// A checkpoint at the first batch boundary at or after every multiple
    /// of this.
    pub checkpoint_every: SimDuration,
    /// Checkpoints taken in one pass.
    pub checkpoints: usize,
    /// Every n-th checkpoint is followed by a recovery drill.
    pub drill_every: usize,
}

/// Task arrivals admitted live: handed to the service at the first batch
/// boundary at or after `admit_at`.
#[derive(Debug)]
pub struct Wave {
    pub admit_at: SimTime,
    pub tasks: Vec<TaskSpec>,
}

/// The trained forecaster of a GFS session, kept for the traced run's
/// `forecast.*` metrics and GDE probes.
pub struct ForecasterParts {
    pub model: Rc<OrgLinear>,
    pub template: Rc<OrgDataset>,
    pub fit: FitReport,
    /// Training windows × epochs.
    pub windows_trained: u64,
}

/// The `run_fleet` half of `fleet_sparse`.
pub struct FleetRun {
    pub shards: Vec<FleetShard>,
    pub cfg: SimConfig,
    pub tasks: u64,
}

/// Builds a fresh scheduler of the session's kind: the live one at
/// set-up, and one per recovery drill (a replacement controller rebuilds
/// its scheduler from the factory, then restores state into it).
pub type SchedulerFactory = Rc<dyn Fn() -> Box<dyn Scheduler>>;

/// A session ready for its first `step()`.
pub struct Prepared {
    pub service: ClusterService,
    pub scheduler: Box<dyn Scheduler>,
    pub fresh_scheduler: SchedulerFactory,
    pub waves: VecDeque<Wave>,
    pub schedule: Schedule,
    /// Tasks the stepped service is given over the session.
    pub service_tasks: u64,
    pub fleet: Option<FleetRun>,
    pub forecaster: Option<ForecasterParts>,
}

/// A trained model shared between the live scheduler and the schedulers
/// the drills rebuild, so a drill does not retrain it. Prediction is a
/// pure read; `fit` is never reached.
struct SharedModel(Rc<OrgLinear>);

impl Forecaster for SharedModel {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_probabilistic(&self) -> bool {
        self.0.is_probabilistic()
    }

    fn fit(&mut self, _data: &OrgDataset, _cfg: &TrainConfig) -> FitReport {
        unreachable!("the shared model is trained once, in set-up, before it is shared")
    }

    fn predict(&self, data: &OrgDataset, sample: Sample) -> Forecast {
        self.0.predict(data, sample)
    }

    fn predict_many(&self, data: &OrgDataset, samples: &[Sample]) -> Vec<Forecast> {
        self.0.predict_many(data, samples)
    }
}

/// A GDE over the session's trained model, with the template's history.
#[must_use]
pub fn demand_estimator(parts: &ForecasterParts) -> DemandEstimator {
    DemandEstimator::new(
        Box::new(SharedModel(Rc::clone(&parts.model))),
        &parts.template,
    )
}

/// One of the three GFS sessions, as data.
struct GfsSession {
    nodes: u32,
    /// Racks of this many nodes declared as failure domains, with the
    /// churn timeline of `churn_recover` on top; 0 for a static cluster.
    rack_size: u32,
    horizon_days: u64,
    spot_scale: f64,
    /// Spot task durations relative to HP ones.
    spot_duration_scale: f64,
    /// Organisations in the trace and in the GDE (a multiple of four).
    orgs: u16,
    hp_load: f64,
    spot_load: f64,
    policy: fn() -> PlacementPolicy,
    checkpoint_every_hours: u64,
    drill_every: usize,
    /// Admit the trace live, one wave per simulated day.
    daily_waves: bool,
}

/// Offered load 0.50 + 2 × 0.10 of the pool: far enough below what the
/// quota lets through that no seed tips the spot queue into a backlog.
const PAPER_LIGHT: GfsSession = GfsSession {
    nodes: 287,
    rack_size: 0,
    horizon_days: 56,
    spot_scale: 2.0,
    spot_duration_scale: 1.0,
    orgs: 32,
    hp_load: 0.25,
    spot_load: 0.075,
    policy: PlacementPolicy::naive,
    checkpoint_every_hours: 96,
    drill_every: 3,
    daily_waves: false,
};

/// Spot demand at three times the pool, in tasks thirty-six times as long
/// as HP ones: the queue is then close to the arrival count, whatever the
/// seed. Demand just above supply would make the backlog the difference
/// of two large numbers, and one seed's queue twice another's.
const PAPER_BACKLOG: GfsSession = GfsSession {
    nodes: 287,
    rack_size: 0,
    horizon_days: 24,
    spot_scale: 4.0,
    spot_duration_scale: 36.0,
    orgs: 4,
    hp_load: 0.55,
    spot_load: 0.75,
    policy: PlacementPolicy::naive,
    checkpoint_every_hours: 32,
    drill_every: 4,
    daily_waves: false,
};

const CHURN_RECOVER: GfsSession = GfsSession {
    nodes: 1280,
    rack_size: 16,
    horizon_days: 7,
    spot_scale: 2.0,
    spot_duration_scale: 1.0,
    orgs: 4,
    hp_load: 0.50,
    spot_load: 0.10,
    policy: PlacementPolicy::churn_aware,
    checkpoint_every_hours: 3,
    // a day's wave arrives at 23:00 and every eighth checkpoint falls on
    // midnight, so every drill replays a wave from the journal
    drill_every: 8,
    daily_waves: true,
};

/// `fleet_sparse`: shards × nodes per shard, tasks, and the stepped
/// shard-0 service's schedule.
const FLEET_SHARDS: u32 = 8;
const FLEET_NODES_PER_SHARD: u32 = 12_500;
const FLEET_TASKS: u64 = 1_000_000;
const FLEET_HORIZON: SimDuration = 30 * SECONDS_PER_DAY;
const FLEET_CHECKPOINT_EVERY_HOURS: u64 = 14;
const FLEET_CHECKPOINTS: usize = 12;
const FLEET_DRILL_EVERY: usize = 3;

/// Sets a session up — trace, cluster, forecaster, service, admissions,
/// `start()` — recording one span per part under the caller's open
/// `setup` span. With a `sink`, live schedulers are wrapped in
/// [`TracedScheduler`].
pub fn prepare(
    workload: Workload,
    seed: u64,
    scale: Scale,
    sink: Option<&Sink>,
    spans: &mut Spans,
) -> Prepared {
    match workload {
        Workload::PaperLight => prepare_gfs(&PAPER_LIGHT, seed, scale, sink, spans),
        Workload::PaperBacklog => prepare_gfs(&PAPER_BACKLOG, seed, scale, sink, spans),
        Workload::ChurnRecover => prepare_gfs(&CHURN_RECOVER, seed, scale, sink, spans),
        Workload::FleetSparse => prepare_fleet(seed, scale, sink, spans),
    }
}

fn traced(inner: Box<dyn Scheduler>, sink: Option<&Sink>) -> Box<dyn Scheduler> {
    match sink {
        Some(sink) => Box::new(TracedScheduler::new(inner, 0, Arc::clone(sink))),
        None => inner,
    }
}

fn prepare_gfs(
    s: &GfsSession,
    seed: u64,
    scale: Scale,
    sink: Option<&Sink>,
    spans: &mut Spans,
) -> Prepared {
    let nodes = scale.of(s.nodes, 8);
    let capacity = f64::from(nodes * GPUS_PER_NODE);
    let orgs = scale.of(u32::from(s.orgs), 4) / 4 * 4; // whole cycles of the four archetypes
    let horizon = s.horizon_days * SECONDS_PER_DAY;

    let trace = spans.scope("trace.workload.gen", |_| {
        offered_trace(s, orgs as u16, capacity, horizon, seed)
    });
    let service_tasks = trace.len() as u64;

    let template = spans.scope("trace.orgdemand.gen", |_| {
        org_history(orgs as usize, seed, s.hp_load * capacity)
    });

    let (cluster, dynamics) = spans.scope("cluster.build", |_| {
        let mut cluster = Cluster::homogeneous(nodes, GpuModel::A100, GPUS_PER_NODE);
        let dynamics = if s.rack_size > 0 {
            let racks = FailureDomain::racks(nodes, s.rack_size);
            cluster.set_failure_domains(&racks);
            Some(churn_timeline(nodes, &racks, horizon, seed))
        } else {
            None
        };
        (cluster, dynamics)
    });

    let forecaster = spans.scope("forecast.fit", |_| {
        let cfg = TrainConfig {
            epochs: scale.of(30, 1) as usize,
            stride: 6,
            seed,
            ..TrainConfig::default()
        };
        let mut model = OrgLinear::new(&template, seed);
        let fit = model.fit(&template, &cfg);
        ForecasterParts {
            model: Rc::new(model),
            windows_trained: fit.samples as u64 * cfg.epochs as u64,
            fit,
            template: Rc::new(template),
        }
    });

    let policy = s.policy;
    let model = Rc::clone(&forecaster.model);
    let template = Rc::clone(&forecaster.template);
    let fresh_scheduler: SchedulerFactory = Rc::new(move || {
        let gde = DemandEstimator::new(Box::new(SharedModel(Rc::clone(&model))), &template);
        Box::new(GfsScheduler::with_policy(
            GfsParams::default(),
            PtsVariant::Full,
            Some(gde),
            policy(),
        ))
    });

    let mut waves = VecDeque::new();
    let (scheduler, service) = spans.scope("sim.service.admit", |_| {
        let scheduler = traced(fresh_scheduler(), sink);
        let mut service = ClusterService::new(
            cluster,
            SimConfig {
                max_time_secs: Some(horizon),
                ..SimConfig::default()
            },
        );
        service.enable_journal();
        if s.daily_waves {
            waves = daily_waves(trace);
            let first = waves.pop_front().expect("a week has a first day");
            service.admit_tasks(first.tasks);
        } else {
            service.admit_tasks(trace);
        }
        if let Some(plan) = &dynamics {
            service.admit_plan(plan);
        }
        service.start();
        (scheduler, service)
    });

    let checkpoint_every = s.checkpoint_every_hours * HOUR;
    Prepared {
        service,
        scheduler,
        fresh_scheduler,
        waves,
        schedule: Schedule {
            checkpoint_every,
            // the last multiple is the horizon itself, where the clock
            // parks without a batch: no checkpoint there
            checkpoints: (horizon / checkpoint_every - 1) as usize,
            drill_every: s.drill_every,
        },
        service_tasks,
        fleet: None,
        forecaster: Some(forecaster),
    }
}

/// One priority class of a trace, offering exactly `load` of `capacity`
/// over the horizon, whatever the seed. `cfg` asks for that class only
/// (a count of 1 for it, 0 for the other).
///
/// `WorkloadConfig::sized_for` sizes by task *count*, from the mean of 600
/// draws of a heavy-tailed size distribution; one seed's trace then
/// offers several per cent more GPU-seconds than another's, and a queue
/// that grows with `offered − served` amplifies that many times over. So
/// the count only sets a chunk size: tasks are drawn chunk by chunk, each
/// chunk its own stream, and the class is cut where its GPU-seconds
/// inside the horizon reach the target. Seeds differ in which tasks
/// arrive when, not in how much work they bring.
fn offered_class(cfg: WorkloadConfig, capacity: f64, load: f64) -> Vec<TaskSpec> {
    let horizon = cfg.horizon_secs;
    let sized = cfg.clone().sized_for(capacity, load, load);
    let chunk = (cfg.hp_tasks * sized.hp_tasks + cfg.spot_tasks * sized.spot_tasks).max(512) / 8;
    let mut wanted = load * capacity * horizon as f64;
    let mut out = Vec::with_capacity(10 * chunk);
    for k in 0u64.. {
        let mut tasks = WorkloadGenerator::new(WorkloadConfig {
            hp_tasks: cfg.hp_tasks * chunk,
            spot_tasks: cfg.spot_tasks * chunk,
            start_id: cfg.start_id + k * chunk as u64,
            seed: cfg.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..cfg.clone()
        })
        .generate();
        tasks.sort_by_key(|t| t.id); // generation order
        for t in tasks {
            if wanted <= 0.0 {
                return out;
            }
            let inside = t.duration_secs.min(horizon - t.submit_at.as_secs());
            wanted -= t.total_gpus() * inside as f64;
            out.push(t);
        }
    }
    unreachable!("every chunk brings work, so the target is reached")
}

/// The trace of a GFS session: both classes at their exact offered load,
/// merged in submission order. Spot tasks come from their own stream and
/// id range, with durations stretched by `spot_duration_scale`.
fn offered_trace(
    s: &GfsSession,
    orgs: u16,
    capacity: f64,
    horizon: SimDuration,
    seed: u64,
) -> Vec<TaskSpec> {
    let base = WorkloadConfig {
        horizon_secs: horizon,
        num_orgs: orgs,
        hp_tasks: 0,
        spot_tasks: 0,
        ..WorkloadConfig::default()
    };
    let mut tasks = offered_class(
        WorkloadConfig {
            hp_tasks: 1,
            seed,
            ..base.clone()
        },
        capacity,
        s.hp_load,
    );
    tasks.extend(offered_class(
        WorkloadConfig {
            spot_tasks: 1,
            duration_median_secs: base.duration_median_secs * s.spot_duration_scale,
            start_id: 1 << 32,
            seed: seed ^ 0x5907,
            ..base
        },
        capacity,
        s.spot_load * s.spot_scale,
    ));
    tasks.sort_by_key(|t| (t.submit_at, t.id));
    tasks
}

/// `HISTORY_WEEKS` of hourly demand for `orgs` organisations: the four
/// Fig. 4 archetypes cycled, cycle `k` at level `0.6 + 0.1·k`, rescaled so
/// the summed mean is `target_mean` GPUs (the workload's expected HP
/// demand — unscaled Fig. 4 levels would saturate Eq. 9).
fn org_history(orgs: usize, seed: u64, target_mean: f64) -> OrgDataset {
    let base = paper_orgs();
    let archetypes: Vec<_> = (0..orgs)
        .map(|i| {
            let mut a = base[i % base.len()].clone();
            let level = 0.6 + 0.1 * (i / base.len()) as f64;
            a.name = format!("{} / {}", a.name, i / base.len());
            a.base *= level;
            a.diurnal_amp *= level;
            a.burst_amp *= level;
            a.noise *= level;
            a
        })
        .collect();
    let mut series = generate_all(&archetypes, HISTORY_WEEKS * 168, seed);
    let summed_mean: f64 = series
        .iter()
        .map(|s| s.iter().sum::<f64>() / s.len() as f64)
        .sum();
    let k = target_mean / summed_mean;
    for v in series.iter_mut().flatten() {
        *v *= k;
    }
    let infos = archetypes
        .iter()
        .map(|a| OrgInfo {
            name: a.name.clone(),
            attrs: a.attrs.clone(),
        })
        .collect();
    OrgDataset::new(
        series,
        infos,
        default_attr_vocab(),
        Vec::new(),
        INPUT_LEN,
        FORECAST_HORIZON,
    )
    .expect("twelve weeks of history hold a one-week window")
}

/// The churn of `churn_recover`: whole racks failing together, single
/// nodes failing on their own, and a rolling maintenance drain over every
/// node. The three schedules overlap on purpose (a drain can hit a node
/// that is down), which only the tolerant constructor accepts; the engine
/// treats an event that cannot apply as a no-op.
fn churn_timeline(
    nodes: u32,
    racks: &[FailureDomain],
    horizon: SimDuration,
    seed: u64,
) -> DynamicsPlan {
    let day = SECONDS_PER_DAY as f64;
    let hour = HOUR as f64;
    let rack_failures = DynamicsPlan::correlated(racks, 14.0 * day, 2.0 * hour, horizon, seed);
    let node_failures = DynamicsPlan::seeded_mtbf(nodes, 60.0 * day, 4.0 * hour, horizon, seed);
    let drain = DynamicsPlan::rolling_drain(nodes, SimTime::from_hours(24), 300, 1_800, 2 * HOUR);
    let events = [rack_failures, node_failures, drain]
        .iter()
        .flat_map(|p| p.events().iter().copied())
        .collect();
    DynamicsPlan::new_unchecked(events)
}

/// Splits a trace into one wave per simulated day of submission; a day's
/// wave reaches the service an hour before the day starts.
fn daily_waves(trace: Vec<TaskSpec>) -> VecDeque<Wave> {
    let mut waves: VecDeque<Wave> = VecDeque::new();
    for task in trace {
        let day = task.submit_at.day();
        if waves.len() as u64 <= day {
            waves.resize_with(day as usize + 1, || Wave {
                admit_at: SimTime::ZERO,
                tasks: Vec::new(),
            });
        }
        waves[day as usize].tasks.push(task);
    }
    for (day, wave) in waves.iter_mut().enumerate() {
        wave.admit_at = SimTime::from_secs((day as u64 * SECONDS_PER_DAY).saturating_sub(HOUR));
    }
    waves
}

fn prepare_fleet(seed: u64, scale: Scale, sink: Option<&Sink>, spans: &mut Spans) -> Prepared {
    let nodes = scale.of(FLEET_NODES_PER_SHARD, 64);
    let tasks = u64::from(scale.of(FLEET_TASKS as u32, 1_000));

    let traces = spans.scope("trace.fleet.gen", |_| {
        FleetTraceGenerator::new(FleetTraceConfig {
            shards: FLEET_SHARDS,
            tasks,
            seed,
            ..FleetTraceConfig::default()
        })
        .generate_sharded()
    });

    let clusters = spans.scope("cluster.build", |_| {
        domain_shards(FLEET_SHARDS as usize, nodes, GpuModel::A100, GPUS_PER_NODE)
    });

    let cfg = SimConfig {
        max_time_secs: Some(FLEET_HORIZON),
        ..SimConfig::default()
    };

    // shard 0 a second time, as a journaled service stepped from outside:
    // it gives the step percentiles, checkpoints and drills, and its
    // report must hash like shard 0 of the fleet run
    let (scheduler, service, service_tasks) = spans.scope("sim.service.admit", |_| {
        let scheduler = traced(Box::new(YarnCs::new()), sink);
        let mut service = ClusterService::new(clusters[0].clone(), cfg.clone());
        service.enable_journal();
        let service_tasks = traces[0].len() as u64;
        service.admit_tasks(traces[0].clone());
        service.start();
        (scheduler, service, service_tasks)
    });

    let shards = clusters
        .into_iter()
        .zip(traces)
        .map(|(cluster, tasks)| FleetShard {
            cluster,
            tasks,
            dynamics: DynamicsPlan::none(),
        })
        .collect();

    Prepared {
        service,
        scheduler,
        fresh_scheduler: Rc::new(|| Box::new(YarnCs::new())),
        waves: VecDeque::new(),
        schedule: Schedule {
            checkpoint_every: FLEET_CHECKPOINT_EVERY_HOURS * HOUR,
            checkpoints: FLEET_CHECKPOINTS,
            drill_every: FLEET_DRILL_EVERY,
        },
        service_tasks,
        fleet: Some(FleetRun { shards, cfg, tasks }),
        forecaster: None,
    }
}
