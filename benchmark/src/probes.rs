//! Midpoint probes: single layers timed from outside, through their
//! public functions, against a clone of the session's live cluster as it
//! stands halfway through the traced pass. Nothing here touches the
//! session itself — the clone is thrown away, the GDE is a twin built on
//! the session's trained model — so the pass that follows is unchanged.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gfs::cluster::Cluster;
use gfs::core::{Pts, PtsVariant, SpotQuotaAllocator};
use gfs::forecast::dataset::Sample;
use gfs::forecast::Forecaster;
use gfs::sched::placement::{best_fit_nodes, DomainUse};
use gfs::sched::PlacementPolicy;
use gfs::types::{GfsParams, GpuDemand, NodeId, Priority, SimTime, TaskSpec};

use crate::spans::Spans;
use crate::workloads::{demand_estimator, ForecasterParts};

/// Probe task ids start here, far above any trace id.
const PROBE_ID_BASE: u64 = 1 << 40;

fn probe_task(k: u64, priority: Priority, pods: u32, gpus: u32) -> TaskSpec {
    let mut b = TaskSpec::builder(PROBE_ID_BASE + k)
        .priority(priority)
        .pods(pods)
        .gpus_per_pod(GpuDemand::whole(gpus))
        .duration_secs(3_600);
    if priority.is_spot() {
        b = b.guarantee_secs(3_600);
    }
    b.build().expect("probe tasks are valid")
}

/// The fixed probe set: both priorities at every whole-card size, plus
/// one gang each.
fn probe_set() -> Vec<TaskSpec> {
    let mut out = Vec::new();
    for (p, priority) in [Priority::Hp, Priority::Spot].into_iter().enumerate() {
        for (g, gpus) in [1u32, 2, 4, 8].into_iter().enumerate() {
            out.push(probe_task((p * 8 + g) as u64, priority, 1, gpus));
        }
        out.push(probe_task((p * 8 + 4) as u64, priority, 4, 2));
    }
    out
}

/// Mean nanoseconds per call of `f` over `calls` calls, under one span.
fn per_call_ns(
    spans: &mut Spans,
    span: &'static str,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let id = spans.open(span);
    for i in 0..calls {
        f(i);
    }
    spans.close(id).as_nanos() as f64 / calls as f64
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn run(
    live: &Cluster,
    now: SimTime,
    forecaster: Option<&ForecasterParts>,
    spans: &mut Spans,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let tasks = probe_set();
    let hp_tasks: Vec<&TaskSpec> = tasks.iter().filter(|t| t.priority.is_hp()).collect();
    let params = GfsParams::default();

    let mut cluster = live.clone();
    let ns = per_call_ns(spans, "probe.cluster.clone", 3, |_| {
        cluster = black_box(live.clone());
    });
    out.push(("cluster.clone_ms", ns * 1e-6));

    let mut buf = String::new();
    let ns = per_call_ns(spans, "probe.cluster.snapshot_encode", 3, |_| {
        buf.clear();
        cluster.snapshot_json_into(&mut buf);
        black_box(buf.len());
    });
    out.push(("cluster.snapshot_encode_ms", ns * 1e-6));
    drop(buf);

    // placement, read-only against the cluster as the session left it
    let pts = Pts::new(params.clone(), PtsVariant::Full);
    for t in &tasks {
        black_box(pts.schedule_nonpreemptive(t, &cluster, now)); // builds the score index
    }
    let ns = per_call_ns(spans, "probe.core.pts.place", 20_000, |i| {
        black_box(pts.schedule_nonpreemptive(&tasks[i % tasks.len()], &cluster, now));
    });
    out.push(("core.pts.place_ns", ns));
    let ns = per_call_ns(spans, "probe.core.pts.place_scan", 200, |i| {
        black_box(pts.schedule_nonpreemptive_scan(&tasks[i % tasks.len()], &cluster, now));
    });
    out.push(("core.pts.place_scan_ns", ns));
    let ns = per_call_ns(spans, "probe.core.pts.preempt", 200, |i| {
        black_box(pts.schedule_preemptive(hp_tasks[i % hp_tasks.len()], &cluster, now));
    });
    out.push(("core.pts.preempt_us", ns * 1e-3));
    let ns = per_call_ns(spans, "probe.sched.placement.best_fit", 20_000, |i| {
        black_box(best_fit_nodes(&cluster, &tasks[i % tasks.len()]));
    });
    out.push(("sched.placement.best_fit_ns", ns));

    // the per-candidate key of a non-naive policy: what the scan pays per
    // feasible node when the score index does not apply
    let policy = PlacementPolicy::churn_aware();
    let scored = Pts::with_policy(params.clone(), PtsVariant::Full, policy.clone());
    let used = DomainUse::new();
    let nodes = cluster.nodes().len().min(2_048);
    let ns = per_call_ns(
        spans,
        "probe.sched.placement.policy_score",
        nodes * 8,
        |i| {
            let node = &cluster.nodes()[i % nodes];
            black_box((
                policy.hazard_component(&cluster, node, now),
                policy.drain_component(&cluster, node.id()),
                policy.spread_component(&cluster, node.id(), &used),
                scored.node_scores(node, Priority::Spot, now),
            ));
        },
    );
    out.push(("sched.placement.policy_score_ns", ns));

    // quota: update as the 300 s tick calls it, admits as every queued
    // spot task calls it in every scheduling pass
    let mut sqa = SpotQuotaAllocator::new(params);
    let upper = 0.5 * cluster.capacity(None);
    let ns = per_call_ns(spans, "probe.core.sqa.update", 2_000, |i| {
        sqa.update(now + 300 * i as u64, &cluster, upper);
    });
    out.push(("core.sqa.update_ns", ns));
    let ns = per_call_ns(spans, "probe.core.sqa.admits", 20_000, |i| {
        black_box(sqa.admits(&cluster, (i % 8) as f64));
    });
    out.push(("core.sqa.admits_ns", ns));

    if let Some(parts) = forecaster {
        let mut gde = demand_estimator(parts);
        let usage = vec![1.0; gde.num_orgs()];
        gde.record_usage(now, &usage); // rolls the twin's clock up to `now`, once
        let ns = per_call_ns(spans, "probe.core.gde.record_usage", 2_000, |i| {
            gde.record_usage(now + 300 * i as u64, &usage);
        });
        out.push(("core.gde.record_usage_ns", ns));
        let ns = per_call_ns(spans, "probe.core.gde.aggregate", 200, |_| {
            black_box(gde.aggregate_upper(0.9, 1));
        });
        out.push(("core.gde.aggregate_us", ns * 1e-3));
        let samples: Vec<Sample> = (0..parts.template.num_orgs())
            .map(|org| Sample { org, start: 0 })
            .collect();
        let ns = per_call_ns(spans, "probe.forecast.predict_many", 200, |_| {
            black_box(parts.model.predict_many(&parts.template, &samples));
        });
        out.push(("forecast.predict_many_us", ns * 1e-3));
    }

    // mutation, on the clone. Make room for one card first: a session
    // with a backlog has none idle.
    let one_card = Arc::new(probe_task(100, Priority::Spot, 1, 1));
    let running: Vec<_> = cluster.running().map(|rt| rt.spec.id).collect();
    let mut running = running.into_iter();
    let slot: Vec<NodeId> = loop {
        if let Some(nodes) = best_fit_nodes(&cluster, &one_card) {
            break nodes;
        }
        let Some(id) = running.next() else {
            return out; // no node in service: nothing to mutate
        };
        cluster
            .finish_task(id, now)
            .expect("listed as running a moment ago");
    };
    let ns = per_call_ns(spans, "probe.cluster.start_finish", 5_000, |_| {
        cluster
            .start_task(Arc::clone(&one_card), &slot, now, 0)
            .expect("the slot holds one idle card");
        black_box(
            cluster
                .finish_task(one_card.id, now)
                .expect("started above"),
        );
    });
    out.push(("cluster.start_finish_ns", ns));

    let span = spans.open("probe.cluster.evict");
    let mut evict_ns = 0u128;
    for _ in 0..5_000 {
        cluster
            .start_task(Arc::clone(&one_card), &slot, now, 0)
            .expect("the slot holds one idle card");
        let t = Instant::now();
        black_box(cluster.evict_task(one_card.id, now).expect("started above"));
        evict_ns += t.elapsed().as_nanos();
    }
    spans.close(span);
    out.push(("cluster.evict_ns", evict_ns as f64 / 5_000.0));

    // one fail + restore on each of up to 200 nodes in service, so every
    // failure displaces what the session had placed there
    let victims: Vec<NodeId> = cluster
        .nodes()
        .iter()
        .filter(|n| n.is_up() && !n.is_draining())
        .map(|n| n.id())
        .take(200)
        .collect();
    if !victims.is_empty() {
        let ns = per_call_ns(spans, "probe.cluster.fail_restore", victims.len(), |i| {
            black_box(cluster.fail_node(victims[i], now).expect("node is up"));
            cluster.restore_node(victims[i], now).expect("node is down");
        });
        out.push(("cluster.fail_restore_us", ns * 1e-3));
    }
    out
}
