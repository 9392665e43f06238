//! Determinism, pinning and *effectiveness* of the capacity-market axis
//! — the acceptance gate of the closed-loop market: under one shared
//! spot-price shock, the forecast-driven controller must strictly reduce
//! total spend against the PR-4 time-driven autoscale schedule (billed
//! by the passive meter) at equal-or-better mean HP JCT, for both
//! baseline schedulers; the market must never displace work through an
//! unsafe release; a crash-recovered market run must reproduce the
//! spend integrals bit for bit; and the whole grid stays byte-identical
//! for any worker count.

use gfs::lab::{
    ClusterShape, DynamicsAxis, Grid, MarketAxis, SchedulerSpec, Threads, WorkloadAxis,
};
use gfs::market::{spike, ForecastParams, MarketDriver, MarketSpec};
use gfs::prelude::*;
use gfs::sim::{fnv1a, report_hash, ClusterService, ServiceSnapshot};

const SIM_HORIZON: u64 = 64 * HOUR;

/// 2 schedulers × {none, autoscale} dynamics × {none, bill, closedloop}
/// markets × 3 seeds = 12 cells / 36 runs, all under the same 3× A100
/// price spike (hours 6–18). The three market regimes:
///
/// - `none` — no meter, no controller: the historical engine path.
/// - `bill` — the passive meter pricing whatever the PR-4 autoscale
///   timeline buys (nodes added by the `autoscale` dynamics bill from
///   the moment they join, shock included).
/// - `closedloop` — the forecast controller buying and releasing on its
///   own, price-aware, with no static timeline.
fn market_grid() -> Grid {
    // the spike opens after the arrival wave (hours 0-4): the window
    // where the timed schedule is *holding* capacity it no longer needs
    // while the closed loop has already released it
    let shock = spike(GpuModel::A100, 6, 12, 3.0);
    Grid::new()
        .schedulers([SchedulerSpec::yarn_cs(), SchedulerSpec::fgd()])
        .shape(ClusterShape::a100(2, 8))
        .workload(WorkloadAxis::generated(
            "backlog",
            WorkloadConfig {
                hp_tasks: 14,
                spot_tasks: 4,
                spot_scale: 2.0,
                horizon_secs: 4 * HOUR,
                ..WorkloadConfig::default()
            },
        ))
        .dynamics([
            DynamicsAxis::none(),
            DynamicsAxis::autoscale("autoscale", SimTime::from_hours(1), HOUR, 4, 1),
        ])
        .markets([
            MarketAxis::none(),
            MarketAxis::fixed(
                "bill",
                Some(MarketSpec::fixed_price().with_shocks(shock.clone())),
            ),
            MarketAxis::fixed(
                "closedloop",
                Some(
                    MarketSpec::forecast(ForecastParams {
                        // two nodes per boundary front-loads the backlog
                        // faster than the schedule's one-per-hour trickle
                        // without overshooting the demand estimate and then
                        // holding the excess through the spike
                        max_nodes_per_step: 2,
                        ..ForecastParams::default()
                    })
                    .with_shocks(shock),
                ),
            ),
        ])
        .seeds([1, 2, 3])
        .sim(SimConfig {
            max_time_secs: Some(SIM_HORIZON),
            ..SimConfig::default()
        })
}

#[test]
fn market_grid_identical_across_thread_counts() {
    let grid = market_grid();
    let serial = grid.run(Threads::Fixed(1)).report.to_json();
    let parallel = grid.run(Threads::Fixed(8)).report.to_json();
    assert_eq!(
        serial, parallel,
        "thread count leaked into a market grid — the price walk, the \
         controller and the meter must be pure functions of (seed, state)"
    );
    let report = gfs::lab::GridReport::from_json(&serial).expect("round-trips");
    assert_eq!(report.cells.len(), 12);
    assert!(report.cells.iter().all(|c| c.seeds == [1, 2, 3]));
    // the market label round-trips; market-free cells stay label-free
    assert_eq!(
        report
            .cells
            .iter()
            .filter(|c| c.market_label() != "none")
            .count(),
        8
    );
}

/// The acceptance gate: against the billed PR-4 baseline (time-driven
/// autoscale under the passive meter), the closed loop must spend
/// strictly less at equal-or-better mean HP JCT, per scheduler, under
/// the identical price shock.
#[test]
fn forecast_controller_beats_timed_autoscale_under_price_shock() {
    let report = market_grid().run(Threads::Auto).report;
    let cell = |sched: &str, dynamics: &str, market: &str| {
        report
            .cells
            .iter()
            .find(|c| c.scheduler == sched && c.faults == dynamics && c.market_label() == market)
            .unwrap_or_else(|| panic!("cell {sched}/{dynamics}/{market} exists"))
    };
    let schedulers: Vec<String> = {
        let mut s: Vec<String> = report.cells.iter().map(|c| c.scheduler.clone()).collect();
        s.sort();
        s.dedup();
        s
    };
    assert_eq!(schedulers.len(), 2);
    for sched in &schedulers {
        let baseline = cell(sched, "autoscale", "bill");
        let closed = cell(sched, "none", "closedloop");
        let (b_spend, c_spend) = (
            baseline.median("market_spend_usd"),
            closed.median("market_spend_usd"),
        );
        assert!(
            b_spend > 0.0,
            "{sched}: the billed autoscale baseline must actually spend"
        );
        assert!(
            c_spend < b_spend,
            "{sched}: the closed loop must spend strictly less than the \
             timed autoscale schedule (bill ${b_spend:.0}, closedloop ${c_spend:.0})"
        );
        let (b_jct, c_jct) = (
            baseline.median("hp_mean_jct_s"),
            closed.median("hp_mean_jct_s"),
        );
        assert!(
            c_jct <= b_jct,
            "{sched}: cost savings must not come out of HP latency \
             (bill {b_jct:.0}s, closedloop {c_jct:.0}s)"
        );
        // and it buys less wholesale, not just cheaper
        assert!(
            closed.median("gpu_hours_bought") < baseline.median("gpu_hours_bought"),
            "{sched}: the closed loop should hold fewer GPU-hours"
        );
    }
}

/// The passive meter must be an observer: a `bill` market over a static
/// timeline reports costs but cannot change a single scheduling
/// decision relative to the bare autoscale run.
#[test]
fn passive_meter_never_perturbs_scheduling() {
    let report = market_grid().run(Threads::Auto).report;
    for sched in ["YARN-CS", "FGD"] {
        let find = |market: &str| {
            report
                .cells
                .iter()
                .find(|c| {
                    c.scheduler == sched && c.faults == "autoscale" && c.market_label() == market
                })
                .expect("cell exists")
        };
        let (bare, billed) = (find("none"), find("bill"));
        for metric in ["hp_mean_jct_s", "hp_completion", "spot_mean_jqt_s"] {
            assert_eq!(
                bare.median(metric).to_bits(),
                billed.median(metric).to_bits(),
                "{sched}: passive metering changed {metric}"
            );
        }
        assert!(billed.median("market_spend_usd") > 0.0);
    }
}

/// Safety property: the controller must never displace work through a
/// release. With no other failure source in the run, any displacement
/// at all would be an unsafe drain — across seeds, none are tolerated,
/// and every task still completes.
#[test]
fn controller_releases_never_displace_work() {
    let spec = MarketSpec::forecast(ForecastParams {
        max_nodes_per_step: 2,
        ..ForecastParams::default()
    })
    .with_vol(0.1)
    .with_shocks(spike(GpuModel::A100, 1, 3, 2.0));
    let shape = ClusterShape::a100(1, 8);
    let workload = WorkloadAxis::generated(
        "burst",
        WorkloadConfig {
            hp_tasks: 18,
            spot_tasks: 4,
            horizon_secs: 3 * HOUR,
            ..WorkloadConfig::default()
        },
    );
    // uncapped: duration draws from the log-normal tail can outlive any
    // fixed horizon, and a straggler cut off by the cap is not a market
    // failure — completion must be judged on the full run
    let sim = SimConfig {
        max_time_secs: None,
        ..SimConfig::default()
    };
    for seed in [1u64, 2, 3, 4, 5] {
        let mut sched = YarnCs::new();
        let report = gfs::market::run(
            shape.build(),
            &mut sched,
            workload.build(&shape, seed),
            &sim,
            &spec,
            seed,
        );
        assert!(
            report.nodes_added > 0,
            "seed {seed}: the burst must force the controller to buy"
        );
        let displaced: u32 = report.tasks.iter().map(|t| t.displacements).sum();
        assert_eq!(
            displaced, 0,
            "seed {seed}: a market release displaced running work — \
             release safety is broken"
        );
        assert!(
            report.tasks.iter().all(|t| t.finish.is_some()),
            "seed {seed}: every task must still complete"
        );
    }
}

/// Crash-recovery of a market run: park a journaled run mid-flight,
/// snapshot it, recover a fresh service from snapshot + journal replay,
/// resume a fresh driver, and require the continuation to land on the
/// uninterrupted run's report hash with the three spend integrals equal
/// bit for bit.
#[test]
fn recovered_market_run_reproduces_spend_bit_for_bit() {
    const SEED: u64 = 11;
    let spec = MarketSpec::forecast(ForecastParams {
        max_nodes_per_step: 2,
        ..ForecastParams::default()
    })
    .with_vol(0.1)
    .with_shocks(spike(GpuModel::A100, 2, 4, 3.0));
    let shape = ClusterShape::a100(1, 8);
    let workload = WorkloadAxis::generated(
        "burst",
        WorkloadConfig {
            hp_tasks: 16,
            spot_tasks: 4,
            horizon_secs: 4 * HOUR,
            ..WorkloadConfig::default()
        },
    );
    let sim = SimConfig {
        max_time_secs: Some(SIM_HORIZON),
        ..SimConfig::default()
    };

    // the uninterrupted golden run
    let mut golden_sched = YarnCs::new();
    let mut golden_svc = ClusterService::new(shape.build(), sim.clone());
    let mut golden_driver = MarketDriver::new(
        spec.build_controller(),
        spec.build_prices(SEED),
        &golden_svc,
    );
    golden_svc.admit_tasks(workload.build(&shape, SEED));
    golden_svc.start();
    golden_driver.drive(&mut golden_svc, &mut golden_sched);
    let golden_steps = golden_svc.steps();
    let golden = golden_svc.finish();
    assert!(
        golden.market_spend_usd > 0.0,
        "the golden run must exercise the meter"
    );

    // the victim: same run, journaled, killed halfway
    let mut victim_sched = YarnCs::new();
    let mut svc = ClusterService::new(shape.build(), sim.clone());
    svc.enable_journal();
    let mut driver = MarketDriver::new(spec.build_controller(), spec.build_prices(SEED), &svc);
    let fleet_origin = driver.fleet_origin();
    svc.admit_tasks(workload.build(&shape, SEED));
    svc.start();
    let parked = driver.drive_until_step(&mut svc, &mut victim_sched, golden_steps / 2);
    assert!(parked, "the run must still be in flight at the crash point");
    assert!(
        svc.report().market_spend_usd > 0.0,
        "spend must already be accrued at the crash point for the \
         resume path to have something to carry over"
    );
    let snap_json = svc.snapshot_json(&victim_sched);
    let journal = svc.journal().expect("journal enabled").text().to_string();
    drop(svc); // the crash

    // recovery: snapshot + journal suffix + a fresh driver resumed
    let snap = ServiceSnapshot::from_json(&snap_json).expect("snapshot parses");
    let mut standby = YarnCs::new();
    let mut recovered_svc = ClusterService::restore(snap, &mut standby).expect("restores");
    let replay = recovered_svc.replay_journal(&journal, &mut standby);
    assert!(replay.rejected.is_none(), "journal must be undamaged");
    assert_eq!(
        replay.applied, 0,
        "a snapshot taken at the crash point subsumes the whole journal"
    );
    let mut resumed = MarketDriver::resume(
        spec.build_controller(),
        spec.build_prices(SEED),
        &recovered_svc,
        fleet_origin,
    );
    resumed.drive(&mut recovered_svc, &mut standby);
    let recovered = recovered_svc.finish();

    assert_eq!(
        report_hash(&golden),
        report_hash(&recovered),
        "the recovered continuation must be bit-identical to the \
         uninterrupted run"
    );
    for (name, g, r) in [
        (
            "market_spend_usd",
            golden.market_spend_usd,
            recovered.market_spend_usd,
        ),
        (
            "gpu_hours_bought",
            golden.gpu_hours_bought,
            recovered.gpu_hours_bought,
        ),
        (
            "stranded_gpu_hours",
            golden.stranded_gpu_hours,
            recovered.stranded_gpu_hours,
        ),
    ] {
        assert_eq!(
            g.to_bits(),
            r.to_bits(),
            "{name} drifted across recovery (golden {g}, recovered {r})"
        );
    }
}

#[test]
fn golden_market_grid_pinned() {
    let result = market_grid().run(Threads::Auto);
    let json = result.report.to_json();
    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN_MARKET = {}", fnv1a(json.as_bytes()));
        println!(
            "{}",
            result.report.render_table(&[
                "hp_mean_jct_s",
                "market_spend_usd",
                "gpu_hours_bought",
                "cost_per_completed_usd",
                "stranded_gpu_hours",
            ])
        );
    }
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN_MARKET,
        "market grid output drifted — the price walk, controller \
         decisions, cost metering or aggregation changed (update the pin \
         only if intentional)"
    );
}

/// Captured at PR 7 (closed-loop capacity market); regenerate with
/// `GFS_PRINT_GOLDEN=1 cargo test golden_market -- --nocapture`.
const GOLDEN_MARKET: u64 = 966_714_937_824_539_861;
