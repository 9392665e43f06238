//! Declarative scenario grids: the cross-product of scheduler
//! constructors, cluster shapes, workload sources, parameter overrides and
//! seeds, plus the deterministic parallel executor that turns a grid into
//! an aggregated [`GridReport`](crate::GridReport).

use std::sync::Arc;

use gfs_cluster::{Cluster, Node, Scheduler};
use gfs_market::MarketSpec;
use gfs_sched::{Chronus, Fgd, Lyra, YarnCs};
use gfs_sim::{run_indexed, RunSummary, SimConfig, SimReport, Threads};
use gfs_trace::{WorkloadConfig, WorkloadGenerator};
use gfs_types::{
    DynamicsPlan, Error, FailureDomain, GfsParams, GpuModel, NodeId, Result, SimDuration, SimTime,
    TaskSpec,
};

use gfs_sched::PlacementPolicy;

use crate::report::{CellSummary, GridReport};

/// One homogeneous pool inside a [`ClusterShape`]: `nodes` machines of
/// `model` with `gpus_per_node` cards each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeGroup {
    /// Node count of the pool.
    pub nodes: u32,
    /// Cards per node.
    pub gpus_per_node: u32,
    /// GPU model of every node in the pool.
    pub model: GpuModel,
}

/// A named cluster geometry a grid cell simulates: one or more
/// [`NodeGroup`] pools (a single group is the classic homogeneous
/// cluster; several model the paper's mixed-GPU production fleet of
/// Table 1). Node ids are assigned sequentially across groups in
/// declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShape {
    /// Display label ("72n" / "287n" / "16a100+8h800" …).
    pub name: String,
    /// The pools, in node-id order.
    pub groups: Vec<NodeGroup>,
    /// Failure-domain topology: nodes per rack. When set, [`ClusterShape::build`]
    /// declares [`FailureDomain::racks`] on the cluster, so churn-aware
    /// placement policies can answer domain queries; `None` builds the
    /// classic topology-less cluster.
    pub rack_size: Option<u32>,
}

impl ClusterShape {
    /// A homogeneous A100 shape named after its node count.
    #[must_use]
    pub fn a100(nodes: u32, gpus_per_node: u32) -> Self {
        ClusterShape::homogeneous(GpuModel::A100, nodes, gpus_per_node).named(format!("{nodes}n"))
    }

    /// A homogeneous shape of any model, named `"<n><model>"`.
    #[must_use]
    pub fn homogeneous(model: GpuModel, nodes: u32, gpus_per_node: u32) -> Self {
        ClusterShape {
            name: format!("{nodes}{}", model.to_string().to_lowercase()),
            groups: vec![NodeGroup {
                nodes,
                gpus_per_node,
                model,
            }],
            rack_size: None,
        }
    }

    /// A heterogeneous shape from explicit pools, named by joining the
    /// groups (e.g. `"16a100+8h800"`).
    #[must_use]
    pub fn heterogeneous(groups: impl IntoIterator<Item = NodeGroup>) -> Self {
        let groups: Vec<NodeGroup> = groups.into_iter().collect();
        let name = groups
            .iter()
            .map(|g| format!("{}{}", g.nodes, g.model.to_string().to_lowercase()))
            .collect::<Vec<_>>()
            .join("+");
        ClusterShape {
            name,
            groups,
            rack_size: None,
        }
    }

    /// Appends one pool (builder style): `nodes` machines of `model` with
    /// `gpus_per_node` cards, taking the next node-id range.
    #[must_use]
    pub fn nodes_with_model(mut self, model: GpuModel, nodes: u32, gpus_per_node: u32) -> Self {
        self.groups.push(NodeGroup {
            nodes,
            gpus_per_node,
            model,
        });
        self
    }

    /// Overrides the display label.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares the failure-domain topology: racks of `rack_size` nodes,
    /// node ids split sequentially ([`FailureDomain::racks`]). Keep it
    /// consistent with the rack size any correlated
    /// [`DynamicsAxis`] of the same grid uses, so placement anticipates
    /// the blast radii the timeline actually exercises.
    #[must_use]
    pub fn racked(mut self, rack_size: u32) -> Self {
        self.rack_size = Some(rack_size);
        self
    }

    /// Total node count across all pools.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.groups.iter().map(|g| g.nodes).sum()
    }

    /// Total cards of the shape, all pools.
    #[must_use]
    pub fn capacity_gpus(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| f64::from(g.nodes * g.gpus_per_node))
            .sum()
    }

    /// Cards of one model's pools.
    #[must_use]
    pub fn capacity_gpus_of(&self, model: GpuModel) -> f64 {
        self.groups
            .iter()
            .filter(|g| g.model == model)
            .map(|g| f64::from(g.nodes * g.gpus_per_node))
            .sum()
    }

    /// The distinct GPU models, in group-declaration order.
    #[must_use]
    pub fn models(&self) -> Vec<GpuModel> {
        let mut out = Vec::new();
        for g in &self.groups {
            if !out.contains(&g.model) {
                out.push(g.model);
            }
        }
        out
    }

    /// Materialises the cluster: node ids run sequentially across groups,
    /// and a [`ClusterShape::racked`] shape declares its failure domains.
    #[must_use]
    pub fn build(&self) -> Cluster {
        let mut nodes = Vec::new();
        let mut next = 0u32;
        for g in &self.groups {
            for _ in 0..g.nodes {
                nodes.push(Node::new(NodeId::new(next), g.model, g.gpus_per_node));
                next += 1;
            }
        }
        let mut cluster = Cluster::new(nodes);
        if let Some(rack) = self.rack_size {
            cluster.set_failure_domains(&FailureDomain::racks(self.node_count(), rack));
        }
        cluster
    }
}

/// Everything a scheduler constructor may condition on: the cell's shape,
/// placement policy, parameter override and the run's seed.
#[derive(Debug, Clone)]
pub struct RunContext<'a> {
    /// Cluster shape of the cell.
    pub shape: &'a ClusterShape,
    /// Placement policy of the cell (naive when no axis is declared).
    /// Policy-capable constructors (the facade's `gfs::scenario` specs)
    /// pass it into their schedulers; baselines ignore it.
    pub policy: &'a PlacementPolicy,
    /// Parameter override of the cell.
    pub params: &'a GfsParams,
    /// Replication seed of this run.
    pub seed: u64,
}

type SchedulerFactory = dyn Fn(&RunContext<'_>) -> Box<dyn Scheduler> + Send + Sync;

/// A named scheduler constructor — one point on the grid's scheduler axis.
///
/// The factory runs once per grid run *inside* the worker thread, so
/// expensive constructors (e.g. training a GFS demand estimator) neither
/// block the submitting thread nor share state between runs.
#[derive(Clone)]
pub struct SchedulerSpec {
    name: String,
    build: Arc<SchedulerFactory>,
}

impl std::fmt::Debug for SchedulerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedulerSpec({})", self.name)
    }
}

impl SchedulerSpec {
    /// Wraps a constructor closure under a display name.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&RunContext<'_>) -> Box<dyn Scheduler> + Send + Sync + 'static,
    ) -> Self {
        SchedulerSpec {
            name: name.into(),
            build: Arc::new(build),
        }
    }

    /// The YARN-CS baseline.
    #[must_use]
    pub fn yarn_cs() -> Self {
        SchedulerSpec::new("YARN-CS", |_| Box::new(YarnCs::new()))
    }

    /// The Chronus baseline.
    #[must_use]
    pub fn chronus() -> Self {
        SchedulerSpec::new("Chronus", |_| Box::new(Chronus::new()))
    }

    /// The Lyra baseline.
    #[must_use]
    pub fn lyra() -> Self {
        SchedulerSpec::new("Lyra", |_| Box::new(Lyra::new()))
    }

    /// The FGD baseline.
    #[must_use]
    pub fn fgd() -> Self {
        SchedulerSpec::new("FGD", |_| Box::new(Fgd::new()))
    }

    /// The four baseline schedulers of §4.4, in paper order.
    #[must_use]
    pub fn baselines() -> Vec<Self> {
        vec![
            SchedulerSpec::yarn_cs(),
            SchedulerSpec::chronus(),
            SchedulerSpec::lyra(),
            SchedulerSpec::fgd(),
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the scheduler for one run.
    #[must_use]
    pub fn build(&self, ctx: &RunContext<'_>) -> Box<dyn Scheduler> {
        (self.build)(ctx)
    }
}

type Builder<T> = dyn Fn(&ClusterShape, u64) -> T + Send + Sync;

/// A named point on one of the grid's axes: a display label plus a pure
/// builder from the cell's shape and the run seed to the axis value.
///
/// Every axis is a pure function of `(shape, seed)` — the run seed is the
/// only source of variation, so seed replication varies traces, churn and
/// prices together while any thread count sees the same inputs (see
/// `gfs_types::cluster_event` for the dynamics determinism rules). The
/// grid's five axes are aliases of this one type: [`WorkloadAxis`],
/// [`DynamicsAxis`], [`PolicyAxis`], [`MarketAxis`] and [`ParamsAxis`].
pub struct Axis<T> {
    name: String,
    build: Arc<Builder<T>>,
}

impl<T> Clone for Axis<T> {
    fn clone(&self) -> Self {
        Axis {
            name: self.name.clone(),
            build: Arc::clone(&self.build),
        }
    }
}

impl<T> std::fmt::Debug for Axis<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Axis({})", self.name)
    }
}

impl<T: 'static> Axis<T> {
    /// Wraps an arbitrary builder (hand-built traces, replayed logs,
    /// composed timelines…) under a display name.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&ClusterShape, u64) -> T + Send + Sync + 'static,
    ) -> Self {
        Axis {
            name: name.into(),
            build: Arc::new(build),
        }
    }

    /// One value for every shape and seed.
    #[must_use]
    pub fn fixed(name: impl Into<String>, value: T) -> Self
    where
        T: Clone + Send + Sync,
    {
        Axis::new(name, move |_, _| value.clone())
    }

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the axis value for one run.
    #[must_use]
    pub fn build(&self, shape: &ClusterShape, seed: u64) -> T {
        (self.build)(shape, seed)
    }
}

/// A named task-trace source — one point on the grid's workload axis.
pub type WorkloadAxis = Axis<Vec<TaskSpec>>;

/// A named cluster-timeline source — one point on the grid's dynamics
/// axis: independent churn, correlated rack failures, rolling maintenance
/// drains, autoscale schedules, or any hand-built composition. The
/// dynamics seed is the run seed, so seed replication varies the churn
/// along with the workload.
pub type DynamicsAxis = Axis<DynamicsPlan>;

/// A named [`PlacementPolicy`] — one point on the grid's placement-policy
/// axis. A policy is one of five presets, and each has a point
/// constructor below (`naive`, `domain_spread`, `reliability`,
/// `churn_aware`, `hazard_aware`). Grids without the axis run every cell
/// with the naive policy (labelled `"naive"`), which policy-capable
/// schedulers treat as placement-untouched; comparing axis points
/// isolates what churn-aware placement contributes under the same
/// workload and cluster timeline.
pub type PolicyAxis = Axis<PlacementPolicy>;

/// A named [`MarketSpec`] — one point on the grid's capacity-market axis.
///
/// Grids without the axis run every cell market-free (labelled `"none"`,
/// value `None`) through the plain engine, byte-identical to pre-market
/// grids; a market point routes its cells through `gfs_market::run`, so
/// the spot-price process, the capacity controller and the cost meter are
/// live and the cost metrics appear in the cell summaries. The per-run
/// price streams are derived from the run seed at execution time.
pub type MarketAxis = Axis<Option<MarketSpec>>;

/// A named [`GfsParams`] override — one point on the grid's parameter axis.
pub type ParamsAxis = Axis<GfsParams>;

impl WorkloadAxis {
    /// A generated workload: `base` with its seed replaced by the run seed.
    #[must_use]
    pub fn generated(name: impl Into<String>, base: WorkloadConfig) -> Self {
        WorkloadAxis::new(name, move |_, seed| {
            WorkloadGenerator::new(WorkloadConfig {
                seed,
                ..base.clone()
            })
            .generate()
        })
    }

    /// A generated workload whose task counts are calibrated per shape so
    /// HP/spot submissions approximate the given fractions of cluster
    /// capacity over the horizon (see [`WorkloadConfig::sized_for`]).
    #[must_use]
    pub fn generated_sized(
        name: impl Into<String>,
        base: WorkloadConfig,
        hp_load: f64,
        spot_load: f64,
    ) -> Self {
        WorkloadAxis::new(name, move |shape, seed| {
            let cfg = WorkloadConfig {
                seed,
                ..base.clone()
            }
            .sized_for(shape.capacity_gpus(), hp_load, spot_load);
            WorkloadGenerator::new(cfg).generate()
        })
    }

    /// A *controlled* trace for like-for-like placement comparisons:
    /// fixed-size, fixed-duration HP tasks on a seeded jittered cadence
    /// (every `gang_every`-th a two-pod gang), plus checkpointed spot
    /// tasks — see [`UniformTrace`]. Generated workloads draw durations
    /// from a log-normal body scaled by request size, so *which* tasks a
    /// churny run displaces correlates with duration and JCT-over-subset
    /// metrics measure composition; a uniform trace gives every task one
    /// baseline, isolating the overhead a placement policy can actually
    /// influence.
    #[must_use]
    pub fn uniform(name: impl Into<String>, cfg: UniformTrace) -> Self {
        WorkloadAxis::new(name, move |_, seed| cfg.build(seed))
    }

    /// A generated workload for heterogeneous shapes: the configured task
    /// counts are split across the shape's distinct GPU models in
    /// proportion to each model's share of capacity, every sub-trace
    /// requests its own model (so all pools are exercised), and ids/seeds
    /// are offset per model so the merged trace is collision-free and
    /// deterministic. On a homogeneous shape this degenerates to one
    /// sub-trace of the shape's model.
    #[must_use]
    pub fn generated_mixed(name: impl Into<String>, base: WorkloadConfig) -> Self {
        WorkloadAxis::new(name, move |shape, seed| {
            let total = shape.capacity_gpus().max(1.0);
            let mut tasks = Vec::new();
            let mut start_id = base.start_id;
            for (k, model) in shape.models().into_iter().enumerate() {
                let share = shape.capacity_gpus_of(model) / total;
                let hp = ((base.hp_tasks as f64) * share).round() as usize;
                let spot = ((base.spot_tasks as f64) * share).round() as usize;
                if hp + spot == 0 {
                    continue;
                }
                let cfg = WorkloadConfig {
                    seed: seed.wrapping_add((k as u64) << 32),
                    gpu_model: model,
                    hp_tasks: hp,
                    spot_tasks: spot,
                    start_id,
                    ..base.clone()
                };
                let sub = WorkloadGenerator::new(cfg).generate();
                start_id += sub.len() as u64 + 1;
                tasks.extend(sub);
            }
            tasks
        })
    }
}

/// Parameters of [`WorkloadAxis::uniform`]: a controlled-duration trace
/// whose only per-seed variation is submit-time jitter, built for
/// isolating placement effects (policy ablations, golden pins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformTrace {
    /// HP tasks submitted, one every `hp_cadence_secs`.
    pub hp_tasks: u32,
    /// Spot tasks submitted, one every `spot_cadence_secs`.
    pub spot_tasks: u32,
    /// Whole cards per pod (every task).
    pub gpus_per_pod: u32,
    /// Every `gang_every`-th HP task is a two-pod gang (0 = never).
    pub gang_every: u32,
    /// HP task duration, seconds (exact — no distribution).
    pub duration_secs: SimDuration,
    /// Spot task duration, seconds.
    pub spot_duration_secs: SimDuration,
    /// Seconds between HP submissions (jittered by up to 900 s).
    pub hp_cadence_secs: SimDuration,
    /// Seconds between spot submissions (jittered by up to 900 s).
    pub spot_cadence_secs: SimDuration,
    /// Checkpoint interval sold with the spot tasks, seconds.
    pub checkpoint_secs: SimDuration,
    /// Guaranteed duration sold with the spot tasks, seconds.
    pub guarantee_secs: SimDuration,
}

impl Default for UniformTrace {
    fn default() -> Self {
        UniformTrace {
            hp_tasks: 48,
            spot_tasks: 8,
            gpus_per_pod: 4,
            gang_every: 6,
            duration_secs: 6 * 3_600,
            spot_duration_secs: 4 * 3_600,
            hp_cadence_secs: 1_800,
            spot_cadence_secs: 10_800,
            checkpoint_secs: 1_800,
            guarantee_secs: 3_600,
        }
    }
}

impl UniformTrace {
    /// Materialises the trace for one seed. HP ids start at 1; spot ids
    /// start at `max(100, hp_tasks + 1)` so the ranges never collide.
    #[must_use]
    pub fn build(&self, seed: u64) -> Vec<TaskSpec> {
        // splitmix64 on (seed, i): deterministic per-task submit jitter
        let mix = |i: u64| {
            let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut tasks = Vec::with_capacity((self.hp_tasks + self.spot_tasks) as usize);
        for i in 0..u64::from(self.hp_tasks) {
            let gang = self.gang_every > 0
                && i % u64::from(self.gang_every) == u64::from(self.gang_every) - 1;
            tasks.push(
                TaskSpec::builder(1 + i)
                    .priority(gfs_types::Priority::Hp)
                    .pods(if gang { 2 } else { 1 })
                    .gpus_per_pod(gfs_types::GpuDemand::whole(self.gpus_per_pod))
                    .duration_secs(self.duration_secs)
                    .submit_at(SimTime::from_secs(i * self.hp_cadence_secs + mix(i) % 900))
                    .build()
                    .expect("valid HP task"),
            );
        }
        let spot_base = u64::from(self.hp_tasks + 1).max(100);
        for j in 0..u64::from(self.spot_tasks) {
            tasks.push(
                TaskSpec::builder(spot_base + j)
                    .priority(gfs_types::Priority::Spot)
                    .gpus_per_pod(gfs_types::GpuDemand::whole(self.gpus_per_pod))
                    .duration_secs(self.spot_duration_secs)
                    .checkpoint(gfs_types::CheckpointPlan::Periodic {
                        interval: self.checkpoint_secs,
                    })
                    .guarantee_secs(self.guarantee_secs)
                    .submit_at(SimTime::from_secs(
                        j * self.spot_cadence_secs + mix(1_000 + j) % 900,
                    ))
                    .build()
                    .expect("valid spot task"),
            );
        }
        tasks
    }
}

impl DynamicsAxis {
    /// The static-cluster axis point (the default when no axis is
    /// declared).
    #[must_use]
    pub fn none() -> Self {
        DynamicsAxis::new("none", |_, _| DynamicsPlan::none())
    }

    /// A seeded MTBF/MTTR renewal schedule over every node of the cell's
    /// shape: mean `mtbf_secs` between failures and `mttr_secs` to repair,
    /// generated until `horizon_secs` (usually the workload's submission
    /// horizon plus slack).
    #[must_use]
    pub fn mtbf(
        name: impl Into<String>,
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon_secs: SimDuration,
    ) -> Self {
        DynamicsAxis::new(name, move |shape, seed| {
            DynamicsPlan::seeded_mtbf(shape.node_count(), mtbf_secs, mttr_secs, horizon_secs, seed)
        })
    }

    /// Correlated rack-level failures: the cell's nodes are split into
    /// [`FailureDomain`]s of `rack_size`, and each rack fails and
    /// recovers *as a unit* on a seeded `Exp(1/mtbf_secs)` /
    /// `Exp(1/mttr_secs)` renewal schedule — one SplitMix64 stream per
    /// `(seed, rack)` blast radius.
    #[must_use]
    pub fn correlated(
        name: impl Into<String>,
        rack_size: u32,
        mtbf_secs: f64,
        mttr_secs: f64,
        horizon_secs: SimDuration,
    ) -> Self {
        DynamicsAxis::new(name, move |shape, seed| {
            let domains = FailureDomain::racks(shape.node_count(), rack_size);
            DynamicsPlan::correlated(&domains, mtbf_secs, mttr_secs, horizon_secs, seed)
        })
    }

    /// A rolling maintenance wave over every node of the cell's shape:
    /// node `k` is drained at `start + k·stagger_secs` with
    /// `notice_secs` of warning and returns `maintenance_secs` after its
    /// forced shutdown. Closed-form — identical at every seed.
    #[must_use]
    pub fn rolling_drain(
        name: impl Into<String>,
        start: SimTime,
        stagger_secs: SimDuration,
        notice_secs: SimDuration,
        maintenance_secs: SimDuration,
    ) -> Self {
        DynamicsAxis::new(name, move |shape, _| {
            DynamicsPlan::rolling_drain(
                shape.node_count(),
                start,
                stagger_secs,
                notice_secs,
                maintenance_secs,
            )
        })
    }

    /// A step/periodic autoscale schedule: `nodes_per_step` fresh nodes
    /// matching the shape's *first* pool (model and cards per node) join
    /// at `start` and then every `interval_secs`, `steps` times in total.
    /// Closed-form — identical at every seed.
    #[must_use]
    pub fn autoscale(
        name: impl Into<String>,
        start: SimTime,
        interval_secs: SimDuration,
        steps: u32,
        nodes_per_step: u32,
    ) -> Self {
        DynamicsAxis::new(name, move |shape, _| {
            let Some(group) = shape.groups.first() else {
                return DynamicsPlan::none();
            };
            DynamicsPlan::scale_out(
                gfs_types::NodeTemplate {
                    model: group.model,
                    gpus: group.gpus_per_node,
                },
                start,
                interval_secs,
                steps,
                nodes_per_step,
            )
        })
    }
}

impl PolicyAxis {
    /// The policy-less control row (the default when no axis is declared).
    #[must_use]
    pub fn naive() -> Self {
        Axis::fixed("naive", PlacementPolicy::naive())
    }

    /// Gang anti-affinity over failure domains only.
    #[must_use]
    pub fn domain_spread() -> Self {
        Axis::fixed("spread", PlacementPolicy::domain_spread())
    }

    /// Failure-history reliability scoring only.
    #[must_use]
    pub fn reliability() -> Self {
        Axis::fixed("reliability", PlacementPolicy::reliability_scored())
    }

    /// The full churn-aware policy: spread + reliability + drain
    /// awareness.
    #[must_use]
    pub fn churn_aware() -> Self {
        Axis::fixed("churn-aware", PlacementPolicy::churn_aware())
    }

    /// Churn-aware plus the decayed, domain-pooled reliability score and
    /// the preemptive-path reliability discount.
    #[must_use]
    pub fn hazard_aware() -> Self {
        Axis::fixed("hazard-aware", PlacementPolicy::hazard_aware())
    }
}

impl MarketAxis {
    /// The market-free control row (the default when no axis is
    /// declared).
    #[must_use]
    pub fn none() -> Self {
        Axis::fixed("none", None)
    }

    /// Fixed-price passive accounting: bills whatever capacity the
    /// dynamics plan adds, decides nothing.
    #[must_use]
    pub fn fixed_price() -> Self {
        Axis::fixed("fixed", Some(MarketSpec::fixed_price()))
    }
}

impl ParamsAxis {
    /// The Table 4 defaults under the label `default`.
    #[must_use]
    pub fn default_params() -> Self {
        Axis::fixed("default", GfsParams::default())
    }
}

/// One fully specified run: a grid cell at one seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index of the owning cell in grid enumeration order.
    pub cell: usize,
    /// Scheduler constructor.
    pub scheduler: SchedulerSpec,
    /// Cluster geometry.
    pub shape: ClusterShape,
    /// Trace source.
    pub workload: WorkloadAxis,
    /// Cluster-timeline source.
    pub dynamics: DynamicsAxis,
    /// Capacity market.
    pub market: MarketAxis,
    /// Placement policy.
    pub policy: PolicyAxis,
    /// Parameter override.
    pub params: ParamsAxis,
    /// Replication seed.
    pub seed: u64,
}

impl Scenario {
    /// Executes the run: generate the trace and cluster timeline, build
    /// cluster and scheduler, simulate. Self-contained and deterministic
    /// given the scenario.
    #[must_use]
    pub fn execute(&self, sim: &SimConfig) -> SimReport {
        let tasks = self.workload.build(&self.shape, self.seed);
        let sim = SimConfig {
            dynamics: self.dynamics.build(&self.shape, self.seed),
            ..sim.clone()
        };
        let mut scheduler = self.build_scheduler();
        match self.market.build(&self.shape, self.seed) {
            Some(spec) => gfs_market::run(
                self.shape.build(),
                scheduler.as_mut(),
                tasks,
                &sim,
                &spec,
                self.seed,
            ),
            None => gfs_sim::run(self.shape.build(), scheduler.as_mut(), tasks, &sim),
        }
    }

    /// Builds the run's scheduler from the cell's shape, policy and
    /// parameter override at the run seed.
    #[must_use]
    pub fn build_scheduler(&self) -> Box<dyn Scheduler> {
        let policy = self.policy.build(&self.shape, self.seed);
        let params = self.params.build(&self.shape, self.seed);
        self.scheduler.build(&RunContext {
            shape: &self.shape,
            policy: &policy,
            params: &params,
            seed: self.seed,
        })
    }
}

/// Everything a grid run produces: the serialisable aggregated report plus
/// (when requested) the raw per-run [`SimReport`]s, `[cell][seed]`.
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Aggregated per-cell summaries (serialisable, thread-count
    /// independent).
    pub report: GridReport,
    /// Raw reports per cell per seed; empty unless
    /// [`Grid::keep_reports`] was set.
    pub sim_reports: Vec<Vec<SimReport>>,
}

/// The declarative experiment grid (C-BUILDER).
///
/// Axes default to "empty"; [`Grid::run`] fills the dynamics axis with
/// [`DynamicsAxis::none`], the market axis with [`MarketAxis::none`],
/// the policy axis with [`PolicyAxis::naive`],
/// the parameter axis with the Table 4 defaults and the seed axis with
/// `[1]` when unset. Invalid grids (missing
/// required axes, duplicate axis labels, an explicitly empty seed list)
/// are reported by [`Grid::validate`] / [`Grid::try_run`] as descriptive
/// errors; the panicking [`Grid::run`]/[`Grid::scenarios`] wrappers reuse
/// the same messages.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    schedulers: Vec<SchedulerSpec>,
    shapes: Vec<ClusterShape>,
    workloads: Vec<WorkloadAxis>,
    dynamics: Vec<DynamicsAxis>,
    markets: Vec<MarketAxis>,
    policies: Vec<PolicyAxis>,
    params: Vec<ParamsAxis>,
    seeds: Vec<u64>,
    /// Whether `seeds()` was ever called (distinguishes "defaulted" from
    /// "explicitly empty", which is almost certainly a caller bug).
    seeds_set: bool,
    sim: Option<SimConfig>,
    keep_reports: bool,
}

impl Grid {
    /// An empty grid.
    #[must_use]
    pub fn new() -> Self {
        Grid::default()
    }

    /// Adds scheduler constructors.
    #[must_use]
    pub fn schedulers(mut self, specs: impl IntoIterator<Item = SchedulerSpec>) -> Self {
        self.schedulers.extend(specs);
        self
    }

    /// Adds one scheduler constructor.
    #[must_use]
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.schedulers.push(spec);
        self
    }

    /// Adds cluster shapes.
    #[must_use]
    pub fn shapes(mut self, shapes: impl IntoIterator<Item = ClusterShape>) -> Self {
        self.shapes.extend(shapes);
        self
    }

    /// Adds one cluster shape.
    #[must_use]
    pub fn shape(mut self, shape: ClusterShape) -> Self {
        self.shapes.push(shape);
        self
    }

    /// Adds workload sources.
    #[must_use]
    pub fn workloads(mut self, axes: impl IntoIterator<Item = WorkloadAxis>) -> Self {
        self.workloads.extend(axes);
        self
    }

    /// Adds one workload source.
    #[must_use]
    pub fn workload(mut self, axis: WorkloadAxis) -> Self {
        self.workloads.push(axis);
        self
    }

    /// Adds cluster-timeline sources (each cell runs once per axis point;
    /// omitting the axis entirely means static-cluster runs).
    #[must_use]
    pub fn dynamics(mut self, axes: impl IntoIterator<Item = DynamicsAxis>) -> Self {
        self.dynamics.extend(axes);
        self
    }

    /// Adds one cluster-timeline source.
    #[must_use]
    pub fn dynamic(mut self, axis: DynamicsAxis) -> Self {
        self.dynamics.push(axis);
        self
    }

    /// Adds capacity-market points (each cell runs once per axis point;
    /// omitting the axis means market-free runs through the plain
    /// engine).
    #[must_use]
    pub fn markets(mut self, axes: impl IntoIterator<Item = MarketAxis>) -> Self {
        self.markets.extend(axes);
        self
    }

    /// Adds placement-policy points (each cell runs once per axis point;
    /// omitting the axis means naive-placement runs).
    #[must_use]
    pub fn policies(mut self, axes: impl IntoIterator<Item = PolicyAxis>) -> Self {
        self.policies.extend(axes);
        self
    }

    /// Adds one placement-policy point.
    #[must_use]
    pub fn policy(mut self, axis: PolicyAxis) -> Self {
        self.policies.push(axis);
        self
    }

    /// Adds parameter overrides.
    #[must_use]
    pub fn params(mut self, axes: impl IntoIterator<Item = ParamsAxis>) -> Self {
        self.params.extend(axes);
        self
    }

    /// Sets the replication seeds (each cell runs once per seed).
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds_set = true;
        self.seeds.extend(seeds);
        self
    }

    /// Sets the simulation configuration shared by every run.
    #[must_use]
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Keep every raw [`SimReport`] in the result (memory-heavy; off by
    /// default).
    #[must_use]
    pub fn keep_reports(mut self, keep: bool) -> Self {
        self.keep_reports = keep;
        self
    }

    fn seed_axis(&self) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![1]
        } else {
            self.seeds.clone()
        }
    }

    /// Checks the grid's inputs, returning a descriptive error for: a
    /// missing required axis (schedulers, shapes, workloads), a duplicate
    /// label within any axis (duplicate cells would silently shadow each
    /// other in [`GridReport::cell`] lookups), a duplicate seed, or an
    /// explicitly-empty seed list (`.seeds([])`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending axis/label.
    pub fn validate(&self) -> Result<()> {
        fn no_dupes<'a>(axis: &str, names: impl Iterator<Item = &'a str>) -> Result<()> {
            let mut seen: Vec<&str> = Vec::new();
            for n in names {
                if seen.contains(&n) {
                    return Err(Error::InvalidConfig(format!(
                        "duplicate {axis} label {n:?}: every {axis} axis point needs a distinct name"
                    )));
                }
                seen.push(n);
            }
            Ok(())
        }
        if self.schedulers.is_empty() {
            return Err(Error::InvalidConfig(
                "grid needs at least one scheduler".into(),
            ));
        }
        if self.shapes.is_empty() {
            return Err(Error::InvalidConfig(
                "grid needs at least one cluster shape".into(),
            ));
        }
        if self.workloads.is_empty() {
            return Err(Error::InvalidConfig(
                "grid needs at least one workload".into(),
            ));
        }
        if self.seeds_set && self.seeds.is_empty() {
            return Err(Error::InvalidConfig(
                "seeds([]) declares an empty replication axis; omit the call for the default seed [1]".into(),
            ));
        }
        no_dupes("scheduler", self.schedulers.iter().map(SchedulerSpec::name))?;
        no_dupes("shape", self.shapes.iter().map(|s| s.name.as_str()))?;
        no_dupes("workload", self.workloads.iter().map(WorkloadAxis::name))?;
        no_dupes("dynamics", self.dynamics.iter().map(DynamicsAxis::name))?;
        no_dupes("market", self.markets.iter().map(MarketAxis::name))?;
        no_dupes("policy", self.policies.iter().map(PolicyAxis::name))?;
        no_dupes("params", self.params.iter().map(ParamsAxis::name))?;
        let mut seen = Vec::new();
        for &s in &self.seeds {
            if seen.contains(&s) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate seed {s}: replication seeds must be distinct"
                )));
            }
            seen.push(s);
        }
        Ok(())
    }

    /// Enumerates every run of the grid in deterministic order: cells
    /// nest (shape → workload → dynamics → market → policy → params →
    /// scheduler), each replicated over all seeds.
    ///
    /// # Errors
    ///
    /// See [`Grid::validate`].
    pub fn try_scenarios(&self) -> Result<Vec<Scenario>> {
        self.validate()?;
        let dynamics = or_default(&self.dynamics, DynamicsAxis::none);
        let markets = or_default(&self.markets, MarketAxis::none);
        let policies = or_default(&self.policies, PolicyAxis::naive);
        let params = or_default(&self.params, ParamsAxis::default_params);
        let seeds = self.seed_axis();
        let mut out = Vec::new();
        let mut cell = 0;
        for shape in &self.shapes {
            for workload in &self.workloads {
                for d in &dynamics {
                    for m in &markets {
                        for pol in &policies {
                            for p in &params {
                                for scheduler in &self.schedulers {
                                    for &seed in &seeds {
                                        out.push(Scenario {
                                            cell,
                                            scheduler: scheduler.clone(),
                                            shape: shape.clone(),
                                            workload: workload.clone(),
                                            dynamics: d.clone(),
                                            market: m.clone(),
                                            policy: pol.clone(),
                                            params: p.clone(),
                                            seed,
                                        });
                                    }
                                    cell += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Panicking wrapper of [`Grid::try_scenarios`].
    ///
    /// # Panics
    ///
    /// Panics with the [`Grid::validate`] message on an invalid grid.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.try_scenarios().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of cells (scenarios ÷ seeds).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.schedulers.len()
            * self.shapes.len()
            * self.workloads.len()
            * self.dynamics.len().max(1)
            * self.markets.len().max(1)
            * self.policies.len().max(1)
            * self.params.len().max(1)
    }

    /// Executes the whole grid on `threads` workers and aggregates each
    /// cell across its seeds.
    ///
    /// Results are collected by run index — never by completion order — so
    /// the report is byte-identical for any thread count.
    ///
    /// # Errors
    ///
    /// See [`Grid::validate`].
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn try_run(&self, threads: Threads) -> Result<GridResult> {
        let scenarios = self.try_scenarios()?;
        let sim = self.sim.clone().unwrap_or_default();
        let keep = self.keep_reports;
        let outputs: Vec<(RunSummary, Option<SimReport>)> =
            run_indexed(scenarios.len(), threads, |i| {
                let report = scenarios[i].execute(&sim);
                let summary = report.summary();
                (summary, keep.then_some(report))
            });

        let seeds = self.seed_axis();
        let per_cell = seeds.len();
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut sim_reports = Vec::new();
        for (cell_idx, chunk) in outputs.chunks(per_cell).enumerate() {
            let first = &scenarios[cell_idx * per_cell];
            let runs: Vec<RunSummary> = chunk.iter().map(|(s, _)| s.clone()).collect();
            cells.push(CellSummary::new(
                first.scheduler.name(),
                &first.shape.name,
                first.workload.name(),
                first.dynamics.name(),
                first.market.name(),
                first.policy.name(),
                first.params.name(),
                &seeds,
                runs,
            ));
            if keep {
                sim_reports.push(
                    chunk
                        .iter()
                        .map(|(_, r)| r.clone().expect("kept report present"))
                        .collect(),
                );
            }
        }
        Ok(GridResult {
            report: GridReport { cells },
            sim_reports,
        })
    }

    /// Panicking wrapper of [`Grid::try_run`].
    ///
    /// # Panics
    ///
    /// Panics with the [`Grid::validate`] message on an invalid grid, or
    /// if a worker panics.
    #[must_use]
    pub fn run(&self, threads: Threads) -> GridResult {
        self.try_run(threads).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The declared points of an optional axis, or its one default point.
fn or_default<T>(declared: &[Axis<T>], default: fn() -> Axis<T>) -> Vec<Axis<T>> {
    if declared.is_empty() {
        vec![default()]
    } else {
        declared.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfs_types::HOUR;

    fn tiny_workload() -> WorkloadAxis {
        WorkloadAxis::generated(
            "tiny",
            WorkloadConfig {
                hp_tasks: 20,
                spot_tasks: 8,
                horizon_secs: 6 * HOUR,
                ..WorkloadConfig::default()
            },
        )
    }

    fn tiny_grid() -> Grid {
        Grid::new()
            .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
            .shape(ClusterShape::a100(4, 8))
            .workload(tiny_workload())
            .seeds([1, 2, 3])
            .sim(SimConfig {
                max_time_secs: Some(48 * HOUR),
                ..SimConfig::default()
            })
    }

    #[test]
    fn enumeration_is_cells_times_seeds() {
        let grid = tiny_grid();
        let scenarios = grid.scenarios();
        assert_eq!(grid.cell_count(), 2);
        assert_eq!(scenarios.len(), 6);
        // seeds vary fastest, then schedulers
        assert_eq!(scenarios[0].scheduler.name(), "YARN-CS");
        assert_eq!(scenarios[0].seed, 1);
        assert_eq!(scenarios[2].seed, 3);
        assert_eq!(scenarios[3].scheduler.name(), "FGD");
        assert_eq!(scenarios[3].cell, 1);
    }

    #[test]
    fn parallel_equals_serial() {
        let grid = tiny_grid();
        let serial = grid.run(Threads::Fixed(1));
        let parallel = grid.run(Threads::Fixed(4));
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
    }

    #[test]
    fn kept_reports_align_with_cells() {
        let grid = tiny_grid().keep_reports(true);
        let result = grid.run(Threads::Fixed(2));
        assert_eq!(result.sim_reports.len(), 2);
        assert_eq!(result.sim_reports[0].len(), 3);
        assert_eq!(
            result.sim_reports[0][0].summary(),
            result.report.cells[0].runs[0]
        );
    }

    #[test]
    fn default_axes_fill_in() {
        let grid = Grid::new()
            .scheduler(SchedulerSpec::yarn_cs())
            .shape(ClusterShape::a100(2, 8))
            .workload(tiny_workload());
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].seed, 1);
        assert_eq!(scenarios[0].params.name(), "default");
    }

    #[test]
    #[should_panic(expected = "at least one scheduler")]
    fn empty_scheduler_axis_rejected() {
        let _ = Grid::new()
            .shape(ClusterShape::a100(2, 8))
            .workload(tiny_workload())
            .scenarios();
    }

    #[test]
    fn validation_reports_descriptive_errors() {
        let base = || {
            Grid::new()
                .scheduler(SchedulerSpec::yarn_cs())
                .shape(ClusterShape::a100(2, 8))
                .workload(tiny_workload())
        };
        assert!(base().validate().is_ok());
        let err = |g: Grid| g.validate().unwrap_err().to_string();
        assert!(err(Grid::new()).contains("at least one scheduler"));
        assert!(
            err(base().seeds(Vec::<u64>::new())).contains("empty replication axis"),
            "explicitly empty seed list must be rejected"
        );
        assert!(err(base().seeds([1, 2, 1])).contains("duplicate seed 1"));
        assert!(
            err(base().scheduler(SchedulerSpec::yarn_cs())).contains("duplicate scheduler label")
        );
        assert!(err(base().shape(ClusterShape::a100(2, 8))).contains("duplicate shape label"));
        assert!(err(base().workload(tiny_workload())).contains("duplicate workload label"));
        assert!(err(base()
            .dynamic(DynamicsAxis::none())
            .dynamic(DynamicsAxis::none()))
        .contains("duplicate dynamics label"));
        // try_run surfaces the same error instead of panicking
        assert!(Grid::new().try_run(Threads::Fixed(1)).is_err());
    }

    #[test]
    fn fault_axis_multiplies_cells_and_faulted_cells_report_churn() {
        let horizon = 48 * HOUR;
        let grid = Grid::new()
            .scheduler(SchedulerSpec::yarn_cs())
            .shape(ClusterShape::a100(4, 8))
            .workload(tiny_workload())
            .dynamics([
                DynamicsAxis::none(),
                DynamicsAxis::mtbf("churn", 6.0 * HOUR as f64, HOUR as f64, horizon),
            ])
            .seeds([1, 2])
            .sim(SimConfig {
                max_time_secs: Some(horizon),
                ..SimConfig::default()
            });
        assert_eq!(grid.cell_count(), 2);
        let result = grid.run(Threads::Fixed(2));
        let clean = result
            .report
            .cell(
                "YARN-CS",
                ("4n", "tiny", "none", "none", "naive", "default"),
            )
            .unwrap();
        let churny = result
            .report
            .cell(
                "YARN-CS",
                ("4n", "tiny", "churn", "none", "naive", "default"),
            )
            .unwrap();
        assert_eq!(clean.median("availability"), 1.0);
        assert_eq!(clean.median("displacement_count"), 0.0);
        assert!(
            churny.median("availability") < 1.0,
            "6 h MTBF over 2 days must bite"
        );
        assert!(churny.metric("displacement_count").unwrap().max > 0.0);
    }

    #[test]
    fn drain_correlated_and_autoscale_axes_report_their_metrics() {
        let horizon = 48 * HOUR;
        let grid = Grid::new()
            .scheduler(SchedulerSpec::yarn_cs())
            .shape(ClusterShape::a100(4, 8))
            .workload(tiny_workload())
            .dynamics([
                DynamicsAxis::rolling_drain(
                    "wave",
                    gfs_types::SimTime::from_hours(1),
                    HOUR,
                    1_800,
                    HOUR,
                ),
                DynamicsAxis::correlated("racks", 2, 8.0 * HOUR as f64, HOUR as f64, horizon),
                DynamicsAxis::autoscale("grow", gfs_types::SimTime::from_hours(2), HOUR, 2, 1),
            ])
            .seeds([1, 2])
            .sim(SimConfig {
                max_time_secs: Some(horizon),
                ..SimConfig::default()
            });
        assert_eq!(grid.cell_count(), 3);
        let result = grid.run(Threads::Fixed(2));
        let cell = |d: &str| {
            result
                .report
                .cell("YARN-CS", ("4n", "tiny", d, "none", "naive", "default"))
                .unwrap()
        };
        let wave = cell("wave");
        assert_eq!(wave.median("node_drains"), 4.0, "every node drained once");
        assert!(
            wave.metric("migration_count").is_some(),
            "drain metrics surface"
        );
        let racks = cell("racks");
        assert!(
            racks.median("availability") < 1.0,
            "8 h domain MTBF over 2 days bites"
        );
        assert!(
            racks.metric("node_drains").is_none(),
            "no drain rows without drains"
        );
        let grow = cell("grow");
        assert_eq!(grow.median("added_gpus"), 16.0, "two 8-card steps");
        assert_eq!(grow.median("availability"), 1.0);
    }

    #[test]
    fn heterogeneous_shape_builds_mixed_cluster_and_mixed_workload() {
        let shape = ClusterShape::heterogeneous([
            NodeGroup {
                nodes: 3,
                gpus_per_node: 8,
                model: GpuModel::A100,
            },
            NodeGroup {
                nodes: 1,
                gpus_per_node: 8,
                model: GpuModel::H800,
            },
        ]);
        assert_eq!(shape.name, "3a100+1h800");
        assert_eq!(shape.node_count(), 4);
        assert_eq!(shape.capacity_gpus(), 32.0);
        assert_eq!(shape.capacity_gpus_of(GpuModel::H800), 8.0);
        assert_eq!(shape.models(), vec![GpuModel::A100, GpuModel::H800]);
        let cluster = shape.build();
        assert_eq!(cluster.capacity(Some(GpuModel::A100)), 24.0);
        assert_eq!(cluster.capacity(Some(GpuModel::H800)), 8.0);
        assert_eq!(cluster.nodes()[3].model(), GpuModel::H800);
        // the mixed workload requests both models, split by capacity share
        let axis = WorkloadAxis::generated_mixed(
            "mixed",
            WorkloadConfig {
                hp_tasks: 40,
                spot_tasks: 12,
                horizon_secs: 6 * HOUR,
                ..WorkloadConfig::default()
            },
        );
        let tasks = axis.build(&shape, 1);
        let a100 = tasks
            .iter()
            .filter(|t| t.gpu_model == GpuModel::A100)
            .count();
        let h800 = tasks
            .iter()
            .filter(|t| t.gpu_model == GpuModel::H800)
            .count();
        assert!(a100 > 0 && h800 > 0, "both pools exercised ({a100}/{h800})");
        assert!(a100 > h800, "counts follow the capacity split");
        // no id collisions across sub-traces
        let mut ids: Vec<u64> = tasks.iter().map(|t| t.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len());
        // builder-style append works too
        let grown = ClusterShape::a100(2, 8).nodes_with_model(GpuModel::A800, 2, 8);
        assert_eq!(grown.node_count(), 4);
        assert_eq!(grown.capacity_gpus_of(GpuModel::A800), 16.0);
    }

    #[test]
    fn policy_axis_multiplies_cells_and_labels_rows() {
        let grid = tiny_grid().policies([PolicyAxis::naive(), PolicyAxis::churn_aware()]);
        assert_eq!(grid.cell_count(), 4);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 12);
        // policy nests outside params/scheduler
        let policy = |s: &Scenario| s.policy.build(&s.shape, s.seed);
        assert_eq!(policy(&scenarios[0]), PlacementPolicy::naive());
        assert_eq!(policy(&scenarios[6]), PlacementPolicy::churn_aware());
        let result = grid.run(Threads::Fixed(2));
        let json = result.report.to_json();
        assert!(json.contains("\"policy\":\"churn-aware\""));
        // the naive rows skip the field entirely (historical encoding)
        assert_eq!(json.matches("\"policy\"").count(), 2);
        let cell = result
            .report
            .cell(
                "YARN-CS",
                ("4n", "tiny", "none", "none", "churn-aware", "default"),
            )
            .expect("policy lookup");
        assert_eq!(cell.policy_label(), "churn-aware");
        // duplicate policy labels are rejected like every other axis
        let err = tiny_grid()
            .policies([PolicyAxis::naive(), PolicyAxis::naive()])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate policy label"), "{err}");
    }

    #[test]
    fn market_axis_multiplies_cells_and_meters_costs() {
        use gfs_market::{ForecastParams, MarketSpec};
        let grid = Grid::new()
            .scheduler(SchedulerSpec::yarn_cs())
            .shape(ClusterShape::a100(1, 8))
            .workload(tiny_workload())
            .markets([
                MarketAxis::none(),
                MarketAxis::fixed(
                    "buyer",
                    Some(MarketSpec::forecast(ForecastParams::default())),
                ),
            ])
            .seeds([1, 2])
            .sim(SimConfig {
                max_time_secs: Some(48 * HOUR),
                ..SimConfig::default()
            });
        assert_eq!(grid.cell_count(), 2);
        let result = grid.run(Threads::Fixed(2));
        let free = result
            .report
            .cell(
                "YARN-CS",
                ("1n", "tiny", "none", "none", "naive", "default"),
            )
            .expect("market-free cell");
        assert_eq!(free.market_label(), "none");
        assert!(
            free.metric("market_spend_usd").is_none(),
            "no cost rows without a market"
        );
        let bought = result
            .report
            .cell(
                "YARN-CS",
                ("1n", "tiny", "none", "buyer", "naive", "default"),
            )
            .expect("market cell");
        assert!(
            bought.median("market_spend_usd") > 0.0,
            "the 1-node cluster forces the controller to buy"
        );
        assert!(bought.median("gpu_hours_bought") > 0.0);
        // the market label rides the wire; the free cell stays unlabelled
        let json = result.report.to_json();
        assert_eq!(json.matches("\"market\"").count(), 1);
        // duplicate market labels are rejected like every other axis
        let err = tiny_grid()
            .markets([MarketAxis::none(), MarketAxis::none()])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate market label"), "{err}");
    }

    #[test]
    fn policy_free_grid_keeps_historical_encoding() {
        let with_default_axis = tiny_grid().run(Threads::Fixed(1)).report.to_json();
        assert!(
            !with_default_axis.contains("\"policy\""),
            "the naive default must stay invisible on the wire"
        );
    }

    #[test]
    fn racked_shape_declares_failure_domains() {
        let plain = ClusterShape::a100(6, 8).build();
        assert_eq!(plain.failure_domain_count(), 0);
        let racked = ClusterShape::a100(6, 8).racked(2).build();
        assert_eq!(racked.failure_domain_count(), 3);
        assert_eq!(racked.domain_of(NodeId::new(5)), Some(2));
    }

    #[test]
    fn uniform_trace_is_seed_deterministic_and_structured() {
        let cfg = UniformTrace::default();
        let a = cfg.build(7);
        let b = cfg.build(7);
        assert_eq!(a, b, "same seed, same trace");
        assert_ne!(cfg.build(8), a, "jitter varies with the seed");
        assert_eq!(a.len(), 56);
        // every duration is exact; every sixth HP task is a 2-pod gang
        let hp: Vec<_> = a.iter().filter(|t| t.priority.is_hp()).collect();
        assert_eq!(hp.len(), 48);
        assert!(hp.iter().all(|t| t.duration_secs == 6 * 3_600));
        assert_eq!(hp.iter().filter(|t| t.pods == 2).count(), 8);
        let spot: Vec<_> = a.iter().filter(|t| t.priority.is_spot()).collect();
        assert_eq!(spot.len(), 8);
        assert!(spot.iter().all(|t| t.duration_secs == 4 * 3_600));
        // no id collisions across the two ranges
        let mut ids: Vec<u64> = a.iter().map(|t| t.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn shape_helpers() {
        let s = ClusterShape::a100(16, 8).named("pool");
        assert_eq!(s.name, "pool");
        assert_eq!(s.capacity_gpus(), 128.0);
        assert_eq!(s.build().capacity(None), 128.0);
        let h = ClusterShape::homogeneous(GpuModel::H800, 4, 8);
        assert_eq!(h.name, "4h800");
    }
}
