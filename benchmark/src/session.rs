//! One pass over one workload: the whole life of a `ClusterService`.
//!
//! Set-up (trace → cluster → forecaster → admit/start), a step loop
//! driven from here with every `step()` timed, checkpoints on a fixed
//! simulated-time schedule, recovery drills (parse the previous
//! checkpoint, `restore`, `replay_journal` and catch up to the live step
//! count, compare state hashes), `finish()` and the fingerprint.
//!
//! Open loop in simulated time — arrivals are stamped by the trace, not
//! by how fast the scheduler gets through them. Closed loop in host time
//! — one driver thread, the next `step()` when the last returns.

use std::time::Instant;

use gfs::cluster::Scheduler;
use gfs::sched::YarnCs;
use gfs::sim::{
    fnv1a, parse_journal, report_hash, run_fleet, ClusterService, FleetReport, ServiceSnapshot,
    SimReport,
};
use gfs::types::Priority;

use crate::probes;
use crate::proxy::{self, BoundaryStats, Sink, TracedScheduler};
use crate::spans::{Aggregate, Spans};
use crate::stats::{peak_rss_mb, Samples};
use crate::workloads::{prepare, FleetRun, Scale, SchedulerFactory, Workload};

/// Everything one pass measured.
pub struct Pass {
    pub wall_s: f64,
    /// `VmHWM` of the process when the pass ended.
    pub peak_rss_mb: Option<f64>,
    pub setup_s: f64,
    /// Tasks submitted to the simulation driver: the stepped service or,
    /// for `fleet_sparse`, `run_fleet`.
    pub driver_tasks: u64,
    /// Wall of the `run_fleet` call (`fleet_sparse` only).
    pub fleet_wall_s: Option<f64>,
    /// Every `step()` of the stepped service.
    pub steps: Samples,
    pub checkpoints: u64,
    pub checkpoint_s: f64,
    pub drills: u64,
    pub drill_s: f64,
    /// Operations attempted: tasks + checkpoints + drills + 1 fingerprint.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// `report_hash` of the session (`fleet_hash` for `fleet_sparse`).
    pub fingerprint: u64,
    /// Host-independent outcomes that must repeat exactly from pass to
    /// pass and between the traced and the untraced run.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer numbers; filled by a traced pass only.
    pub layers: Vec<(&'static str, f64)>,
    /// Where the stepped service's step time went; a traced pass only.
    pub shares: Option<StepShares>,
    /// The traced pass's spans and aggregates, for the trace file.
    pub spans: Spans,
    pub aggregates: Vec<Aggregate>,
}

/// Shares of Σ `step()` of the stepped service, from its boundary proxy.
#[derive(Debug, Clone, Copy)]
pub struct StepShares {
    /// `Scheduler::on_tick` (the 300 s GDE/SQA update).
    pub tick: f64,
    /// `Scheduler::schedule`.
    pub schedule: f64,
    /// What is left to the service itself: event heap, cluster mutation,
    /// report folding.
    pub service_self: f64,
}

impl Pass {
    /// Tasks submitted ÷ seconds inside the simulation driver: Σ `step()`,
    /// or the `run_fleet` call. Checkpoints and drills are not in it.
    #[must_use]
    pub fn tasks_per_s(&self) -> f64 {
        self.driver_tasks as f64 / self.fleet_wall_s.unwrap_or(self.steps.sum_secs())
    }

    #[must_use]
    pub fn checkpoint_ms(&self) -> f64 {
        self.checkpoint_s * 1e3 / self.checkpoints.max(1) as f64
    }

    #[must_use]
    pub fn recover_ms(&self) -> f64 {
        self.drill_s * 1e3 / self.drills.max(1) as f64
    }

    /// Share of the pass wall that checkpoints and drills take.
    #[must_use]
    pub fn crash_safety_share(&self) -> f64 {
        (self.checkpoint_s + self.drill_s) / self.wall_s
    }

    /// Seconds inside the simulation drivers: Σ `step()` plus, for
    /// `fleet_sparse`, the `run_fleet` call. Tracing overhead is the
    /// difference of this between a traced and an untraced pass.
    #[must_use]
    pub fn simulation_s(&self) -> f64 {
        self.steps.sum_secs() + self.fleet_wall_s.unwrap_or(0.0)
    }
}

/// Runs one full pass. `traced` wraps the schedulers in the boundary
/// proxy, probes the layers at the session midpoint and fills
/// [`Pass::layers`].
#[must_use]
pub fn run_pass(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Pass {
    let mut spans = Spans::new();
    let mut failures: Vec<String> = Vec::new();
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let sink: Option<Sink> = traced.then(Sink::default);
    let pass_span = spans.open("pass");

    let setup_span = spans.open("setup");
    let mut p = prepare(workload, seed, scale, sink.as_ref(), &mut spans);
    let setup_s = spans.close(setup_span).as_secs_f64();

    // ---- fleet_sparse: the sharded run, one driver thread ---------------
    let mut fleet_boundary: Vec<BoundaryStats> = Vec::new();
    let fleet = match p.fleet.take() {
        Some(run) => {
            let out = fleet_run(run, 1, sink.as_ref(), "sim.fleet.run", &mut spans);
            if let Some(sink) = &sink {
                fleet_boundary = proxy::drain(sink);
                // informational: the same fleet, set up afresh, on two
                // workers — which must reproduce the one-worker fingerprint
                let again = spans
                    .scope("sim.fleet.threads2_setup", |_| {
                        prepare(workload, seed, scale, None, &mut Spans::new()).fleet
                    })
                    .expect("fleet_sparse prepares a fleet run");
                let two = fleet_run(again, 2, None, "sim.fleet.run_threads2", &mut spans);
                if two.report.fleet_hash != out.report.fleet_hash {
                    failures.push("fleet_hash differs between 1 and 2 worker threads".into());
                }
            }
            Some(out)
        }
        None => None,
    };

    // ---- the stepped service ---------------------------------------------
    let schedule = p.schedule;
    let mut steps = Samples::with_capacity(4 * p.service_tasks as usize);
    let mut next_checkpoint = schedule.checkpoint_every;
    let mut checkpoints = 0u64;
    let mut drills = 0u64;
    let mut checkpoint_s = 0.0;
    let mut drill_s = 0.0;
    let mut snapshot_bytes = 0u64;
    let mut snapshot_bytes_total = 0u64;
    let mut replay_records = 0u64;
    let mut previous: Option<String> = None; // the last checkpoint, as on durable storage
    loop {
        while p
            .waves
            .front()
            .is_some_and(|w| p.service.now() >= w.admit_at)
        {
            let wave = p.waves.pop_front().expect("front exists");
            spans.scope("sim.service.admit", |_| p.service.admit_tasks(wave.tasks));
        }
        let t = Instant::now();
        let more = p.service.step(&mut *p.scheduler);
        let took = t.elapsed();
        if !more {
            // drained (or parked at the horizon) with arrivals still to
            // come: the next wave restarts the run
            match p.waves.pop_front() {
                Some(wave) => {
                    spans.scope("sim.service.admit", |_| p.service.admit_tasks(wave.tasks));
                    continue;
                }
                None => break,
            }
        }
        steps.push(took);

        if (checkpoints as usize) < schedule.checkpoints
            && p.service.now().as_secs() >= next_checkpoint
        {
            let span = spans.open("checkpoint");
            let json = p.service.snapshot_json(&*p.scheduler);
            checkpoint_s += spans.close(span).as_secs_f64();
            checkpoints += 1;
            snapshot_bytes = json.len() as u64;
            snapshot_bytes_total += snapshot_bytes;
            if !(json.starts_with("{\"version\":") && json.ends_with('}')) {
                failures.push(format!(
                    "checkpoint {checkpoints} is not a snapshot document"
                ));
            }
            while next_checkpoint <= p.service.now().as_secs() {
                next_checkpoint += schedule.checkpoint_every;
            }

            if (checkpoints as usize).is_multiple_of(schedule.drill_every) {
                if let Some(prev) = &previous {
                    let span = spans.open("drill");
                    let journal = p.service.journal().expect("journal enabled").text();
                    match drill(
                        prev,
                        &json,
                        p.service.steps(),
                        journal,
                        &p.fresh_scheduler,
                        &mut spans,
                    ) {
                        Ok(applied) => replay_records += applied as u64,
                        Err(why) => {
                            failures.push(format!("drill after checkpoint {checkpoints}: {why}"))
                        }
                    }
                    drill_s += spans.close(span).as_secs_f64();
                    drills += 1;
                }
            }
            previous = Some(json);

            if traced && checkpoints as usize == schedule.checkpoints.div_ceil(2) {
                let span = spans.open("probes");
                layers.extend(probes::run(
                    p.service.cluster(),
                    p.service.now(),
                    p.forecaster.as_ref(),
                    &mut spans,
                ));
                spans.close(span);
            }
        }
    }

    let journal_bytes = p.service.journal().expect("journal enabled").text().len() as u64;
    if traced {
        let text = p.service.journal().expect("journal enabled").text();
        let (records, rejected) = spans.scope("sim.service.journal_parse", |_| parse_journal(text));
        if rejected.is_some() || records.is_empty() {
            failures.push("the session's own journal does not parse".into());
        }
    }
    let service_steps = p.service.steps();
    let report = spans.scope("sim.service.finish", |_| p.service.finish());
    let service_hash = spans.scope("sim.service.report_hash", |_| report_hash(&report));
    drop(p.scheduler); // a proxy hands its stats over here
    let boundary = sink
        .as_ref()
        .and_then(|s| proxy::drain(s).pop())
        .unwrap_or_default();

    // ---- checks ----------------------------------------------------------
    let verify_span = spans.open("verify");
    let (fingerprint, outcome, driver_tasks) = match &fleet {
        Some(f) => {
            // shard 0 ran twice — inside run_fleet and as the stepped,
            // journaled, checkpointed service: one seed, one report
            if f.report.shard_hashes[0] != service_hash {
                failures.push(format!(
                    "shard 0 report_hash {:016x} (run_fleet) != {service_hash:016x} (stepped service)",
                    f.report.shard_hashes[0]
                ));
            }
            check_report(&report, "shard 0 service", &mut failures);
            (f.report.fleet_hash, &f.report.report, f.tasks)
        }
        None => (service_hash, &report, p.service_tasks),
    };
    check_report(outcome, "session", &mut failures);
    if checkpoints as usize != schedule.checkpoints {
        failures.push(format!(
            "{checkpoints} checkpoints taken, schedule has {}",
            schedule.checkpoints
        ));
    }
    let mut exact = sim_outcome(outcome);
    exact.extend([
        ("sim.service.steps", service_steps as f64),
        ("sim.service.snapshot_bytes", snapshot_bytes as f64),
        ("sim.service.replay_records", replay_records as f64),
        ("sim.service.journal_bytes", journal_bytes as f64),
    ]);
    spans.close(verify_span);
    let wall_s = spans.close(pass_span).as_secs_f64();

    let mut pass = Pass {
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        setup_s,
        driver_tasks,
        fleet_wall_s: fleet.as_ref().map(|f| f.wall_s),
        steps,
        checkpoints,
        checkpoint_s,
        drills,
        drill_s,
        attempted: driver_tasks + checkpoints + drills + 1,
        failures,
        fingerprint,
        exact,
        layers,
        shares: None,
        spans,
        aggregates: Vec::new(),
    };
    if traced {
        fill_layers(
            &mut pass,
            boundary,
            &fleet_boundary,
            fleet.as_ref(),
            p.forecaster
                .as_ref()
                .map(|f| (f.fit.final_loss, f.windows_trained)),
            p.service_tasks,
            snapshot_bytes_total,
        );
    }
    pass
}

/// Outcome of the `run_fleet` call.
struct FleetOutcome {
    report: FleetReport,
    wall_s: f64,
    tasks: u64,
}

fn fleet_run(
    run: FleetRun,
    threads: usize,
    sink: Option<&Sink>,
    span: &'static str,
    spans: &mut Spans,
) -> FleetOutcome {
    let factory = |shard: usize| -> Box<dyn Scheduler> {
        let inner: Box<dyn Scheduler> = Box::new(YarnCs::new());
        match sink {
            Some(sink) => Box::new(TracedScheduler::new(inner, shard, sink.clone())),
            None => inner,
        }
    };
    let id = spans.open(span);
    let report = run_fleet(run.shards, &factory, &run.cfg, threads);
    let wall_s = spans.close(id).as_secs_f64();
    FleetOutcome {
        report,
        wall_s,
        tasks: run.tasks,
    }
}

/// A recovery drill: bring a replacement service up from the previous
/// checkpoint and the journal, catch up to the live service's step count,
/// and compare state hashes. Returns the journal records replayed.
fn drill(
    previous: &str,
    live_json: &str,
    live_steps: u64,
    journal: &str,
    fresh_scheduler: &SchedulerFactory,
    spans: &mut Spans,
) -> Result<usize, String> {
    let snapshot = spans
        .scope("sim.service.snapshot_parse", |_| {
            ServiceSnapshot::from_json(previous)
        })
        .map_err(|e| format!("previous checkpoint: {e}"))?;
    let mut scheduler = fresh_scheduler();
    let mut service = spans
        .scope("sim.service.restore", |_| {
            ClusterService::restore(snapshot, &mut *scheduler)
        })
        .map_err(|e| format!("restore: {e}"))?;
    let replay = spans.scope("sim.service.replay", |_| {
        let replay = service.replay_journal(journal, &mut *scheduler);
        while service.steps() < live_steps && service.step(&mut *scheduler) {}
        replay
    });
    if let Some(e) = replay.rejected {
        return Err(format!("journal: {e}"));
    }
    if service.steps() != live_steps {
        return Err(format!(
            "recovered service stopped at step {}, live is at {live_steps}",
            service.steps()
        ));
    }
    let (recovered, live) = spans.scope("sim.service.state_hash", |_| {
        (
            fnv1a(service.snapshot_json(&*scheduler).as_bytes()),
            fnv1a(live_json.as_bytes()),
        )
    });
    if recovered != live {
        return Err(format!(
            "state_hash {recovered:016x} (recovered) != {live:016x} (live)"
        ));
    }
    Ok(replay.applied)
}

/// Failures a report can carry: refused commits and evicted HP tasks.
fn check_report(report: &SimReport, what: &str, failures: &mut Vec<String>) {
    if report.failed_commits > 0 {
        failures.push(format!("{what}: {} failed commits", report.failed_commits));
    }
    let hp_evicted = report
        .tasks
        .iter()
        .filter(|t| t.priority == Priority::Hp && t.evictions > 0)
        .count();
    if hp_evicted > 0 {
        failures.push(format!("{what}: {hp_evicted} HP tasks were evicted"));
    }
}

/// The simulated statistics of a session. Host-independent.
fn sim_outcome(report: &SimReport) -> Vec<(&'static str, f64)> {
    let s = report.summary();
    let completed = report.tasks.iter().filter(|t| t.completed()).count();
    vec![
        ("sim.completed", completed as f64),
        ("sim.unfinished", (report.tasks.len() - completed) as f64),
        ("sim.evictions", s.eviction_count as f64),
        ("sim.eviction_rate", s.eviction_rate),
        ("sim.hp_jqt_mean_s", s.hp_mean_jqt_s),
        ("sim.spot_jqt_mean_s", s.spot_mean_jqt_s),
        ("sim.alloc_rate", s.mean_alloc_rate),
        ("sim.displacements", s.displacement_count as f64),
        ("sim.migrations", s.migration_count as f64),
        ("sim.node_downs", report.node_downs as f64),
    ]
}

/// Folds the service proxy and the fleet proxies into one set of samples
/// per call family.
fn fold_boundary(service: BoundaryStats, fleet: &[BoundaryStats]) -> BoundaryStats {
    let mut all = service;
    for s in fleet {
        all.schedule_calls += s.schedule_calls;
        all.schedule.absorb(&s.schedule);
        all.schedule_timed_calls += s.schedule_timed_calls;
        all.schedule_timed_ns += s.schedule_timed_ns;
        all.tick.absorb(&s.tick);
        all.on_event.absorb(&s.on_event);
        all.placed += s.placed;
        all.preemptive += s.preemptive;
        all.refused += s.refused;
        all.victims += s.victims;
        all.queue_cmp_calls += s.queue_cmp_calls;
    }
    all
}

/// Turns a traced pass's spans, proxy stats and probe results into the
/// per-layer metrics and the trace file's aggregates.
fn fill_layers(
    pass: &mut Pass,
    service_boundary: BoundaryStats,
    fleet_boundary: &[BoundaryStats],
    fleet: Option<&FleetOutcome>,
    fit: Option<(f64, u64)>,
    service_tasks: u64,
    snapshot_bytes_total: u64,
) {
    let spans = std::mem::take(&mut pass.spans);
    let total = |name: &str| spans.total_secs(name);
    let mean_ms = |name: &str| {
        let all = spans.secs_of(name);
        if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<f64>() * 1e3 / all.len() as f64
        }
    };
    let mut m: Vec<(&'static str, f64)> = std::mem::take(&mut pass.layers); // the probes

    // set-up parts
    let gen = total("trace.workload.gen");
    m.push(("trace.workload.gen_s", gen));
    if gen > 0.0 {
        m.push(("trace.workload.tasks_per_s", service_tasks as f64 / gen));
    }
    let gen = total("trace.fleet.gen");
    m.push(("trace.fleet.gen_s", gen));
    if let (Some(f), true) = (fleet, gen > 0.0) {
        m.push(("trace.fleet.tasks_per_s", f.tasks as f64 / gen));
    }
    m.push(("trace.orgdemand.gen_s", total("trace.orgdemand.gen")));
    m.push(("cluster.build_s", total("cluster.build")));
    if let Some((final_loss, windows)) = fit {
        let fit_s = total("forecast.fit");
        m.push(("forecast.fit_s", fit_s));
        m.push(("forecast.fit_windows_per_s", windows as f64 / fit_s));
        m.push(("forecast.final_loss", final_loss));
    }

    // the scheduler boundary. The stepped service's own proxy explains
    // its step time (and gives the trace file's aggregates); counts and
    // call latencies fold the fleet's proxies in.
    let mut service = service_boundary;
    let service_tick_s = service.tick.sum_secs();
    let step_busy = pass.steps.sum_secs();
    let service_schedule_s = service.schedule_busy_s();
    let service_sched_s = service_schedule_s + service_tick_s + service.on_event.sum_secs();
    if service_sched_s > step_busy {
        // the shares below would be meaningless: say so, do not clamp
        pass.failures.push(format!(
            "the proxy saw {service_sched_s:.3} s inside the scheduler, the steps it ran in took {step_busy:.3} s"
        ));
    }
    let step = "sim.service.step";
    pass.aggregates = vec![
        Aggregate::from_samples(step, "pass", &mut pass.steps, service_sched_s),
        Aggregate {
            count: service.schedule_calls,
            busy_s: service_schedule_s,
            self_s: service_schedule_s,
            ..Aggregate::from_samples("sched.schedule", step, &mut service.schedule, 0.0)
        },
        Aggregate::from_samples("sched.on_tick", step, &mut service.tick, 0.0),
        Aggregate::from_samples("sched.on_event", step, &mut service.on_event, 0.0),
    ];
    let mut all = fold_boundary(service, fleet_boundary);
    // exact, like the sim.* statistics: they must repeat from run to run
    pass.exact.extend([
        ("sched.schedule_calls", all.schedule_calls as f64),
        ("sched.placed", all.placed as f64),
        ("sched.preemptive", all.preemptive as f64),
        ("sched.refused", all.refused as f64),
        ("sched.victims", all.victims as f64),
        ("sched.tick_calls", all.tick.len() as f64),
        ("sched.on_event_calls", all.on_event.len() as f64),
        ("sched.queue_cmp_calls", all.queue_cmp_calls as f64),
    ]);
    m.push((
        "sched.place_ratio",
        all.placed as f64 / all.schedule_calls.max(1) as f64,
    ));
    m.push(("sched.schedule_busy_s", all.schedule_busy_s()));
    m.push(("sched.schedule_mean_ns", all.schedule_mean_ns()));
    m.push(("sched.schedule_p99_us", all.schedule.percentile_us(0.99)));
    m.push(("sched.tick_busy_s", all.tick.sum_secs()));
    m.push(("sched.on_event_busy_s", all.on_event.sum_secs()));

    // the service layer
    let step_self = step_busy - service_sched_s;
    let step_count = pass.steps.len() as f64;
    m.push(("sim.service.step_busy_s", step_busy));
    m.push(("sim.service.step_self_s", step_self));
    m.push((
        "sim.service.step_self_ns_per_step",
        step_self * 1e9 / step_count,
    ));
    m.push(("sim.service.admit_s", total("sim.service.admit")));
    m.push(("sim.service.snapshot_encode_ms", pass.checkpoint_ms()));
    m.push((
        "sim.service.snapshot_mb_per_s",
        snapshot_bytes_total as f64 / 1e6 / pass.checkpoint_s,
    ));
    m.push((
        "sim.service.snapshot_parse_ms",
        mean_ms("sim.service.snapshot_parse"),
    ));
    m.push(("sim.service.restore_ms", mean_ms("sim.service.restore")));
    m.push(("sim.service.replay_ms", mean_ms("sim.service.replay")));
    m.push((
        "sim.service.journal_parse_ms",
        mean_ms("sim.service.journal_parse"),
    ));
    m.push(("sim.service.finish_ms", mean_ms("sim.service.finish")));
    m.push((
        "sim.service.report_hash_ms",
        mean_ms("sim.service.report_hash"),
    ));
    m.extend(pass.exact.iter().copied()); // every sim.* and sched.* count

    // the fleet driver: a proxy lives exactly as long as its shard runs
    if let Some(f) = fleet {
        let runs: Vec<f64> = fleet_boundary.iter().map(|s| s.lifetime_s).collect();
        let sum: f64 = runs.iter().sum();
        let max = runs.iter().copied().fold(0.0, f64::max);
        m.push(("sim.fleet.shard_run_sum_s", sum));
        m.push(("sim.fleet.shard_run_max_s", max));
        m.push(("sim.fleet.shard_imbalance", max * runs.len() as f64 / sum));
        m.push(("sim.fleet.merge_s", f.wall_s - sum));
        m.push(("sim.fleet.threads2_s", total("sim.fleet.run_threads2")));
    }

    // harness: how much of the pass wall lands in a named top-level span
    // (the step loop's clock reads and bookkeeping are what is left over)
    let pass_id = 0;
    let accounted = spans.children_secs(pass_id) + step_busy;
    m.push(("bench.pass_wall_s", pass.wall_s));
    m.push(("bench.accounted_pct", 100.0 * accounted / pass.wall_s));

    pass.shares = Some(StepShares {
        tick: service_tick_s / step_busy,
        schedule: service_schedule_s / step_busy,
        service_self: step_self / step_busy,
    });
    pass.layers = m;
    pass.spans = spans;
}
