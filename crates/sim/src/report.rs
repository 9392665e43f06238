//! Simulation outputs: per-task records and aggregate metrics (§4.2).

use gfs_types::{OrgId, Priority, SimDuration, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// Outcome of one task in a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task id.
    pub id: TaskId,
    /// Priority class.
    pub priority: Priority,
    /// Submitting organization.
    pub org: OrgId,
    /// Total GPUs requested (pods × per-pod cards).
    pub total_gpus: f64,
    /// Pod count.
    pub pods: u32,
    /// Work duration requested, seconds.
    pub work_secs: SimDuration,
    /// Submission time.
    pub submit: SimTime,
    /// First execution start, if it ever started.
    pub first_start: Option<SimTime>,
    /// Completion time, if it finished.
    pub finish: Option<SimTime>,
    /// Accumulated queuing time across all segments, seconds (JQT).
    pub queued_secs: SimDuration,
    /// Number of run segments started.
    pub runs: u32,
    /// Number of evictions suffered (preemptions only).
    pub evictions: u32,
    /// Number of node-failure displacements suffered (kept apart from
    /// `evictions`: churn is not preemption). Omitted from the JSON when
    /// zero so fault-free reports keep their historical golden encoding.
    #[serde(skip_serializing_if = "is_zero_u32", default)]
    pub displacements: u32,
    /// Number of graceful migrations off draining nodes (the task left
    /// inside the notice window instead of dying at the deadline).
    /// Omitted from the JSON when zero, like the other dynamics fields.
    #[serde(skip_serializing_if = "is_zero_u32", default)]
    pub migrations: u32,
}

impl TaskRecord {
    /// Job completion time: finish − submit (None while unfinished).
    #[must_use]
    pub fn jct(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.since(self.submit))
    }

    /// Whether the task completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.finish.is_some()
    }
}

/// Cluster-utilisation sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocSample {
    /// Sample time.
    pub at: SimTime,
    /// Overall allocation rate in `[0, 1]`.
    pub total: f64,
    /// HP share of capacity.
    pub hp: f64,
    /// Spot share of capacity.
    pub spot: f64,
}

/// Full output of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// One record per submitted task.
    pub tasks: Vec<TaskRecord>,
    /// Hourly (configurable) allocation-rate samples.
    pub alloc_samples: Vec<AllocSample>,
    /// Per-node allocated-card samples (`[node][sample]`), recorded only
    /// when the config enables it (Fig. 8 heat-maps).
    pub node_alloc_samples: Vec<Vec<f64>>,
    /// Timestamps of every eviction event (Fig. 5 timelines).
    pub eviction_times: Vec<SimTime>,
    /// Timestamps of every spot run start.
    pub spot_start_times: Vec<SimTime>,
    /// Simulated time at which the run ended.
    pub makespan: SimTime,
    /// Placements that failed to commit after a preemption (should be 0;
    /// non-zero indicates a scheduler returning invalid decisions).
    pub failed_commits: u64,
    /// One timestamp per task displaced by a node failure. The
    /// fault-metric fields below are omitted from the JSON at their
    /// zero-fault defaults, so fault-free reports keep their historical
    /// golden encoding byte for byte.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub displacement_times: Vec<SimTime>,
    /// Node-failure events applied.
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub node_downs: u64,
    /// Node-recovery events applied.
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub node_ups: u64,
    /// Down GPU-seconds over static GPU-seconds of the run, in `[0, 1]`
    /// (0 for a fault-free run); see [`SimReport::availability`].
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub unavailability: f64,
    /// One timestamp per task gracefully migrated off a draining node.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub migration_times: Vec<SimTime>,
    /// Maintenance-drain notices applied (node-level).
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub node_drains: u64,
    /// Scale-out events applied (nodes minted mid-run).
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub nodes_added: u64,
    /// GPU cards added by scale-out events.
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub gpus_added: u64,
    /// GPU-hours purchased on the capacity market (`gfs_market`): the
    /// time-integral of market-bought cards over the run. Like the other
    /// extension fields, the cost metrics below are omitted from the JSON
    /// at their zero defaults so market-free reports keep their
    /// historical golden encoding byte for byte.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub gpu_hours_bought: f64,
    /// Total spend in USD on market capacity (spot price integrated over
    /// the bought GPU-hours).
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub market_spend_usd: f64,
    /// Bought GPU-hours that sat idle (stranded capacity): paid for but
    /// never allocated to a task.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub stranded_gpu_hours: f64,
}

fn is_zero_u32(v: &u32) -> bool {
    *v == 0
}

fn is_zero_u64(v: &u64) -> bool {
    *v == 0
}

#[allow(clippy::trivially_copy_pass_by_ref)] // serde predicate signature
fn is_zero_f64(v: &f64) -> bool {
    *v == 0.0
}

impl SimReport {
    fn metric<F: Fn(&TaskRecord) -> Option<f64>>(&self, priority: Priority, f: F) -> Vec<f64> {
        self.tasks
            .iter()
            .filter(|t| t.priority == priority)
            .filter_map(f)
            .collect()
    }

    /// Mean JCT in seconds over completed tasks of a class.
    #[must_use]
    pub fn mean_jct(&self, priority: Priority) -> f64 {
        mean(&self.metric(priority, |t| t.jct().map(|d| d as f64)))
    }

    /// P99 JCT in seconds over completed tasks of a class.
    #[must_use]
    pub fn p99_jct(&self, priority: Priority) -> f64 {
        self.jct_quantile(priority, 0.99)
    }

    /// JCT quantile (nearest-rank) in seconds over completed tasks of a
    /// class; `q` in `(0, 1]`.
    #[must_use]
    pub fn jct_quantile(&self, priority: Priority, q: f64) -> f64 {
        quantile(self.metric(priority, |t| t.jct().map(|d| d as f64)), q)
    }

    /// Queueing-time quantile (nearest-rank) in seconds over all tasks of a
    /// class; `q` in `(0, 1]`.
    #[must_use]
    pub fn jqt_quantile(&self, priority: Priority, q: f64) -> f64 {
        quantile(self.metric(priority, |t| Some(t.queued_secs as f64)), q)
    }

    /// Mean JQT in seconds over tasks of a class (queued time accrues even
    /// for unfinished tasks).
    #[must_use]
    pub fn mean_jqt(&self, priority: Priority) -> f64 {
        mean(&self.metric(priority, |t| Some(t.queued_secs as f64)))
    }

    /// The paper's eviction rate `e`: evictions / run segments, over spot
    /// tasks.
    #[must_use]
    pub fn eviction_rate(&self) -> f64 {
        let (mut ev, mut runs) = (0u64, 0u64);
        for t in self.tasks.iter().filter(|t| t.priority.is_spot()) {
            ev += u64::from(t.evictions);
            runs += u64::from(t.runs);
        }
        if runs == 0 {
            0.0
        } else {
            ev as f64 / runs as f64
        }
    }

    /// Fraction of tasks of a class that completed.
    #[must_use]
    pub fn completion_rate(&self, priority: Priority) -> f64 {
        let all: Vec<_> = self
            .tasks
            .iter()
            .filter(|t| t.priority == priority)
            .collect();
        if all.is_empty() {
            return 1.0;
        }
        all.iter().filter(|t| t.completed()).count() as f64 / all.len() as f64
    }

    /// Number of submitted tasks of a class.
    #[must_use]
    pub fn task_count(&self, priority: Priority) -> u64 {
        self.tasks.iter().filter(|t| t.priority == priority).count() as u64
    }

    /// Total eviction events over the run.
    #[must_use]
    pub fn eviction_count(&self) -> u64 {
        self.eviction_times.len() as u64
    }

    /// Mean overall allocation rate across samples.
    #[must_use]
    pub fn mean_allocation_rate(&self) -> f64 {
        mean(
            &self
                .alloc_samples
                .iter()
                .map(|s| s.total)
                .collect::<Vec<_>>(),
        )
    }

    /// Time-weighted capacity availability over the run in `[0, 1]`:
    /// in-service GPU-seconds over static GPU-seconds (1.0 when no node
    /// ever failed).
    #[must_use]
    pub fn availability(&self) -> f64 {
        1.0 - self.unavailability
    }

    /// Total node-failure displacement events (task-level: a failure
    /// killing three tasks counts three).
    #[must_use]
    pub fn displacement_count(&self) -> u64 {
        self.displacement_times.len() as u64
    }

    /// Total graceful-migration events (task-level): gangs that left a
    /// draining node inside its notice window instead of being forcibly
    /// displaced at the deadline.
    #[must_use]
    pub fn migration_count(&self) -> u64 {
        self.migration_times.len() as u64
    }

    /// Mean JCT in seconds over *completed tasks that suffered at least
    /// one displacement* — the churn analogue of the eviction-cost
    /// metrics (0 when no displaced task completed).
    #[must_use]
    pub fn displaced_mean_jct_s(&self) -> f64 {
        let v: Vec<f64> = self
            .tasks
            .iter()
            .filter(|t| t.displacements > 0)
            .filter_map(|t| t.jct().map(|d| d as f64))
            .collect();
        mean(&v)
    }

    /// Per-hour eviction ratio over the run: for each hour bucket,
    /// `evictions / (evictions + spot starts)` — the Fig. 5 timeline.
    #[must_use]
    pub fn hourly_eviction_ratio(&self) -> Vec<f64> {
        let hours = self.makespan.as_hours() as usize + 1;
        let mut ev = vec![0f64; hours];
        let mut st = vec![0f64; hours];
        for t in &self.eviction_times {
            ev[t.as_hours() as usize] += 1.0;
        }
        for t in &self.spot_start_times {
            st[t.as_hours() as usize] += 1.0;
        }
        (0..hours)
            .map(|h| {
                let total = ev[h] + st[h];
                if total == 0.0 {
                    0.0
                } else {
                    ev[h] / total
                }
            })
            .collect()
    }

    /// Market spend divided by completed tasks: USD per completed job,
    /// the paper's §4.3 "cost per completed JCT" economics condensed to
    /// one scalar (0 when nothing was bought or nothing completed).
    #[must_use]
    pub fn cost_per_completed_usd(&self) -> f64 {
        let completed = self.tasks.iter().filter(|t| t.completed()).count();
        if completed == 0 || self.market_spend_usd == 0.0 {
            0.0
        } else {
            self.market_spend_usd / completed as f64
        }
    }

    /// Condenses the report into the scalar metrics the experiment layer
    /// aggregates across seeds (`gfs::lab` never reaches into raw fields).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            hp_tasks: self.task_count(Priority::Hp),
            spot_tasks: self.task_count(Priority::Spot),
            hp_completion: self.completion_rate(Priority::Hp),
            spot_completion: self.completion_rate(Priority::Spot),
            hp_mean_jct_s: self.mean_jct(Priority::Hp),
            hp_p99_jct_s: self.p99_jct(Priority::Hp),
            hp_mean_jqt_s: self.mean_jqt(Priority::Hp),
            spot_mean_jct_s: self.mean_jct(Priority::Spot),
            spot_p99_jct_s: self.p99_jct(Priority::Spot),
            spot_mean_jqt_s: self.mean_jqt(Priority::Spot),
            spot_p99_jqt_s: self.jqt_quantile(Priority::Spot, 0.99),
            eviction_count: self.eviction_count(),
            eviction_rate: self.eviction_rate(),
            mean_alloc_rate: self.mean_allocation_rate(),
            makespan_hours: self.makespan.as_secs() as f64 / 3_600.0,
            failed_commits: self.failed_commits,
            availability: self.availability(),
            displacement_count: self.displacement_count(),
            displaced_mean_jct_s: self.displaced_mean_jct_s(),
            migration_count: self.migration_count(),
            node_drains: self.node_drains,
            added_gpus: self.gpus_added as f64,
            gpu_hours_bought: self.gpu_hours_bought,
            market_spend_usd: self.market_spend_usd,
            cost_per_completed_usd: self.cost_per_completed_usd(),
            stranded_gpu_hours: self.stranded_gpu_hours,
        }
    }
}

/// Scalar per-run metrics (§4.2) — the unit the experiment-orchestration
/// layer replicates across seeds and reduces into summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// HP tasks submitted.
    pub hp_tasks: u64,
    /// Spot tasks submitted.
    pub spot_tasks: u64,
    /// HP completion rate in `[0, 1]`.
    pub hp_completion: f64,
    /// Spot completion rate in `[0, 1]`.
    pub spot_completion: f64,
    /// Mean HP JCT, seconds.
    pub hp_mean_jct_s: f64,
    /// P99 HP JCT, seconds.
    pub hp_p99_jct_s: f64,
    /// Mean HP JQT, seconds.
    pub hp_mean_jqt_s: f64,
    /// Mean spot JCT, seconds.
    pub spot_mean_jct_s: f64,
    /// P99 spot JCT, seconds.
    pub spot_p99_jct_s: f64,
    /// Mean spot JQT, seconds.
    pub spot_mean_jqt_s: f64,
    /// P99 spot JQT, seconds.
    pub spot_p99_jqt_s: f64,
    /// Total eviction events.
    pub eviction_count: u64,
    /// Eviction rate `e` (evictions / spot run segments).
    pub eviction_rate: f64,
    /// Mean overall allocation rate in `[0, 1]`.
    pub mean_alloc_rate: f64,
    /// Simulated makespan, hours.
    pub makespan_hours: f64,
    /// Placements that failed to commit (should be 0).
    pub failed_commits: u64,
    /// Time-weighted capacity availability in `[0, 1]` (1.0 fault-free).
    pub availability: f64,
    /// Node-failure displacement events.
    pub displacement_count: u64,
    /// Mean JCT over completed tasks that suffered a displacement,
    /// seconds.
    pub displaced_mean_jct_s: f64,
    /// Graceful drain-notice migrations. Like the report-side dynamics
    /// fields, the drain/scale-out metrics below skip serialization at
    /// their zero defaults so fault-only summaries keep their historical
    /// encoding.
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub migration_count: u64,
    /// Maintenance-drain notices applied (node-level).
    #[serde(skip_serializing_if = "is_zero_u64", default)]
    pub node_drains: u64,
    /// GPU cards added by scale-out events.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub added_gpus: f64,
    /// GPU-hours bought on the capacity market. Like the dynamics fields
    /// above, the cost metrics skip serialization at their zero defaults
    /// so market-free summaries keep their historical encoding.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub gpu_hours_bought: f64,
    /// Total market spend, USD.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub market_spend_usd: f64,
    /// Market spend per completed task, USD.
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub cost_per_completed_usd: f64,
    /// Bought GPU-hours that sat idle (stranded capacity).
    #[serde(skip_serializing_if = "is_zero_f64", default)]
    pub stranded_gpu_hours: f64,
}

impl RunSummary {
    /// Index of the first metric of the drain/scale-out extension inside
    /// [`RunSummary::METRICS`]. The aggregation layer emits rows for
    /// these only when some run produced a non-zero value, so summaries
    /// of static or fault-only grids keep their historical encoding.
    pub const DYNAMICS_METRICS_START: usize = 17;

    /// Names of every scalar metric, in the order [`RunSummary::values`]
    /// returns them. The experiment layer uses this single source of truth
    /// for aggregation, JSON keys and table headers.
    pub const METRICS: [&'static str; 24] = [
        "hp_completion",
        "spot_completion",
        "hp_mean_jct_s",
        "hp_p99_jct_s",
        "hp_mean_jqt_s",
        "spot_mean_jct_s",
        "spot_p99_jct_s",
        "spot_mean_jqt_s",
        "spot_p99_jqt_s",
        "eviction_count",
        "eviction_rate",
        "mean_alloc_rate",
        "makespan_hours",
        "failed_commits",
        "availability",
        "displacement_count",
        "displaced_mean_jct_s",
        "migration_count",
        "node_drains",
        "added_gpus",
        "gpu_hours_bought",
        "market_spend_usd",
        "cost_per_completed_usd",
        "stranded_gpu_hours",
    ];

    /// The scalar metric values in [`RunSummary::METRICS`] order.
    #[must_use]
    pub fn values(&self) -> [f64; 24] {
        [
            self.hp_completion,
            self.spot_completion,
            self.hp_mean_jct_s,
            self.hp_p99_jct_s,
            self.hp_mean_jqt_s,
            self.spot_mean_jct_s,
            self.spot_p99_jct_s,
            self.spot_mean_jqt_s,
            self.spot_p99_jqt_s,
            self.eviction_count as f64,
            self.eviction_rate,
            self.mean_alloc_rate,
            self.makespan_hours,
            self.failed_commits as f64,
            self.availability,
            self.displacement_count as f64,
            self.displaced_mean_jct_s,
            self.migration_count as f64,
            self.node_drains as f64,
            self.added_gpus,
            self.gpu_hours_bought,
            self.market_spend_usd,
            self.cost_per_completed_usd,
            self.stranded_gpu_hours,
        ]
    }

    /// Looks one metric up by name.
    #[must_use]
    pub fn value(&self, metric: &str) -> Option<f64> {
        Self::METRICS
            .iter()
            .position(|&m| m == metric)
            .map(|i| self.values()[i])
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank quantile of an unsorted finite sample; 0 when empty.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let rank = ((v.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        priority: Priority,
        jct: Option<u64>,
        jqt: u64,
        ev: u32,
        runs: u32,
    ) -> TaskRecord {
        TaskRecord {
            id: TaskId::new(id),
            priority,
            org: OrgId::new(0),
            total_gpus: 1.0,
            pods: 1,
            work_secs: 100,
            submit: SimTime::ZERO,
            first_start: Some(SimTime::from_secs(jqt)),
            finish: jct.map(SimTime::from_secs),
            queued_secs: jqt,
            runs,
            evictions: ev,
            displacements: 0,
            migrations: 0,
        }
    }

    #[test]
    fn jct_and_metrics() {
        let r = SimReport {
            tasks: vec![
                record(1, Priority::Hp, Some(100), 10, 0, 1),
                record(2, Priority::Hp, Some(300), 30, 0, 1),
                record(3, Priority::Spot, Some(500), 100, 1, 2),
                record(4, Priority::Spot, None, 400, 1, 1),
            ],
            makespan: SimTime::from_hours(1),
            ..SimReport::default()
        };
        assert_eq!(r.mean_jct(Priority::Hp), 200.0);
        assert_eq!(r.mean_jqt(Priority::Hp), 20.0);
        assert_eq!(
            r.mean_jct(Priority::Spot),
            500.0,
            "unfinished excluded from JCT"
        );
        assert_eq!(r.mean_jqt(Priority::Spot), 250.0);
        assert!((r.eviction_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.completion_rate(Priority::Spot), 0.5);
        assert_eq!(r.completion_rate(Priority::Hp), 1.0);
    }

    #[test]
    fn p99_of_small_set_is_max() {
        let r = SimReport {
            tasks: (0..10)
                .map(|i| record(i, Priority::Hp, Some(100 * (i + 1)), 0, 0, 1))
                .collect(),
            ..SimReport::default()
        };
        assert_eq!(r.p99_jct(Priority::Hp), 1_000.0);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = SimReport::default();
        assert_eq!(r.mean_jct(Priority::Hp), 0.0);
        assert_eq!(r.eviction_rate(), 0.0);
        assert_eq!(r.p99_jct(Priority::Spot), 0.0);
        assert_eq!(r.completion_rate(Priority::Hp), 1.0);
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.displacement_count(), 0);
        assert_eq!(r.displaced_mean_jct_s(), 0.0);
    }

    #[test]
    fn fault_fields_skip_serialization_at_zero_defaults() {
        let fault_free = SimReport {
            tasks: vec![record(1, Priority::Hp, Some(100), 10, 0, 1)],
            makespan: SimTime::from_hours(1),
            ..SimReport::default()
        };
        let json = serde_json::to_string(&fault_free).unwrap();
        assert!(
            !json.contains("displacement")
                && !json.contains("unavailability")
                && !json.contains("node_downs")
                && !json.contains("migration")
                && !json.contains("node_drains")
                && !json.contains("added")
                && !json.contains("bought")
                && !json.contains("spend")
                && !json.contains("stranded"),
            "zero-dynamics reports must keep the historical encoding: {json}"
        );
        // and the fields round-trip through their defaults
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.unavailability, 0.0);
        assert_eq!(back.tasks[0].displacements, 0);

        let mut faulted = fault_free.clone();
        faulted.tasks[0].displacements = 2;
        faulted.displacement_times = vec![SimTime::from_secs(50)];
        faulted.node_downs = 1;
        faulted.unavailability = 0.125;
        let json = serde_json::to_string(&faulted).unwrap();
        assert!(json.contains("\"displacements\":2"));
        assert!(json.contains("\"unavailability\":0.125"));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.availability(), 0.875);
        assert_eq!(back.displacement_count(), 1);
        assert_eq!(back.tasks[0].displacements, 2);

        // the drain/scale-out fields round-trip the same way
        let mut dynamic = fault_free;
        dynamic.tasks[0].migrations = 1;
        dynamic.migration_times = vec![SimTime::from_secs(25)];
        dynamic.node_drains = 2;
        dynamic.nodes_added = 1;
        dynamic.gpus_added = 8;
        let json = serde_json::to_string(&dynamic).unwrap();
        assert!(json.contains("\"node_drains\":2"));
        assert!(json.contains("\"gpus_added\":8"));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.migration_count(), 1);
        assert_eq!(back.summary().added_gpus, 8.0);
        assert_eq!(back.summary().node_drains, 2);
        assert_eq!(back.summary().migration_count, 1);

        // the market cost fields round-trip the same way
        let mut priced = back;
        priced.gpu_hours_bought = 96.0;
        priced.market_spend_usd = 288.0;
        priced.stranded_gpu_hours = 4.5;
        let json = serde_json::to_string(&priced).unwrap();
        assert!(json.contains("\"gpu_hours_bought\":96"));
        assert!(json.contains("\"market_spend_usd\":288"));
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.summary().gpu_hours_bought, 96.0);
        assert_eq!(back.summary().market_spend_usd, 288.0);
        assert_eq!(back.summary().stranded_gpu_hours, 4.5);
        // one completed task → cost-per-completed is the whole spend
        assert_eq!(back.cost_per_completed_usd(), 288.0);
        assert_eq!(back.summary().cost_per_completed_usd, 288.0);
    }

    #[test]
    fn displaced_jct_covers_only_displaced_completions() {
        let mut displaced_done = record(1, Priority::Hp, Some(400), 0, 0, 2);
        displaced_done.displacements = 1;
        let mut displaced_unfinished = record(2, Priority::Spot, None, 0, 0, 1);
        displaced_unfinished.displacements = 1;
        let r = SimReport {
            tasks: vec![
                displaced_done,
                displaced_unfinished,
                record(3, Priority::Hp, Some(100), 0, 0, 1),
            ],
            ..SimReport::default()
        };
        assert_eq!(r.displaced_mean_jct_s(), 400.0);
    }

    #[test]
    fn hourly_eviction_ratio_buckets() {
        let r = SimReport {
            eviction_times: vec![SimTime::from_minutes(10), SimTime::from_minutes(20)],
            spot_start_times: vec![SimTime::from_minutes(30), SimTime::from_hours(1)],
            makespan: SimTime::from_hours(1),
            ..SimReport::default()
        };
        let ratios = r.hourly_eviction_ratio();
        assert_eq!(ratios.len(), 2);
        assert!((ratios[0] - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(ratios[1], 0.0);
    }
}
