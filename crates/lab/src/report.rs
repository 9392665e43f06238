//! Aggregated grid output: per-cell summaries, canonical JSON emission and
//! aligned text tables.

use gfs_sim::RunSummary;
use serde::{Deserialize, Serialize};

use crate::agg::{aggregate, MetricSummary};

/// One grid cell after across-seed reduction: axis labels, the raw
/// per-seed summaries, and robust statistics per metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Scheduler display name.
    pub scheduler: String,
    /// Cluster-shape label.
    pub shape: String,
    /// Workload-axis label.
    pub workload: String,
    /// Dynamics-axis label (`"none"` for static-cluster cells). The
    /// field keeps its pre-redesign name — it is part of the serialized
    /// grid schema, pinned by golden hashes.
    pub faults: String,
    /// Capacity-market label, `None` for the market-free default —
    /// omitted from the JSON so market-free grids keep their historical
    /// golden encoding (use [`CellSummary::market_label`] for display).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub market: Option<String>,
    /// Placement-policy label, `None` for the naive (policy-less) default
    /// — omitted from the JSON so policy-free grids keep their historical
    /// golden encoding (use [`CellSummary::policy_label`] for display).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub policy: Option<String>,
    /// Parameter-override label.
    pub params: String,
    /// Replication seeds, in run order.
    pub seeds: Vec<u64>,
    /// Per-seed scalar summaries, aligned with `seeds`.
    pub runs: Vec<RunSummary>,
    /// Across-seed statistics, one row per [`RunSummary::METRICS`] entry.
    pub metrics: Vec<MetricSummary>,
}

impl CellSummary {
    /// Builds a cell summary, computing the across-seed statistics. A
    /// `"naive"` policy label (and a `"none"` market label) is stored as
    /// `None` (the skip-serialized default), keeping policy- and
    /// market-free grids byte-identical on the wire.
    #[allow(clippy::too_many_arguments)] // one arg per grid axis, by design
    #[must_use]
    pub fn new(
        scheduler: &str,
        shape: &str,
        workload: &str,
        faults: &str,
        market: &str,
        policy: &str,
        params: &str,
        seeds: &[u64],
        runs: Vec<RunSummary>,
    ) -> Self {
        let metrics = aggregate(&runs);
        CellSummary {
            scheduler: scheduler.to_string(),
            shape: shape.to_string(),
            workload: workload.to_string(),
            faults: faults.to_string(),
            market: (market != "none").then(|| market.to_string()),
            policy: (policy != "naive").then(|| policy.to_string()),
            params: params.to_string(),
            seeds: seeds.to_vec(),
            runs,
            metrics,
        }
    }

    /// The capacity-market label (`"none"` for market-free cells).
    #[must_use]
    pub fn market_label(&self) -> &str {
        self.market.as_deref().unwrap_or("none")
    }

    /// The placement-policy label (`"naive"` for policy-less cells).
    #[must_use]
    pub fn policy_label(&self) -> &str {
        self.policy.as_deref().unwrap_or("naive")
    }

    /// Across-seed statistics of one metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&crate::agg::MetricStats> {
        self.metrics
            .iter()
            .find(|m| m.metric == name)
            .map(|m| &m.stats)
    }

    /// Median of one metric by name (0 when unknown).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        self.metric(name).map_or(0.0, |s| s.median)
    }

    /// The `(shape, workload, faults, market, policy, params)` block key
    /// this cell belongs to.
    #[must_use]
    pub fn block_key(&self) -> (&str, &str, &str, &str, &str, &str) {
        (
            &self.shape,
            &self.workload,
            &self.faults,
            self.market_label(),
            self.policy_label(),
            &self.params,
        )
    }
}

/// The aggregated result of a whole grid, in cell-enumeration order.
///
/// Serialising this struct yields the canonical byte-stable JSON the
/// determinism tests compare across thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GridReport {
    /// One summary per cell.
    pub cells: Vec<CellSummary>,
}

impl GridReport {
    /// Canonical JSON encoding.
    ///
    /// # Panics
    ///
    /// Never panics for reports produced by a grid run (the `Result` is an
    /// artefact of the serde API).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("grid reports serialize")
    }

    /// Parses a report back from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Looks one cell up by its scheduler and its block key — every other
    /// axis label, in [`CellSummary::block_key`] order `(shape, workload,
    /// faults, market, policy, params)`. Cells off the market and policy
    /// axes answer to `"none"` and `"naive"`.
    #[must_use]
    pub fn cell(
        &self,
        scheduler: &str,
        block: (&str, &str, &str, &str, &str, &str),
    ) -> Option<&CellSummary> {
        self.cells
            .iter()
            .find(|c| c.scheduler == scheduler && c.block_key() == block)
    }

    /// Renders an aligned text table: one block per `(shape, workload,
    /// faults, params)` combination, one row per scheduler, one column per
    /// requested metric showing `median ±IQR/2` (the `±` column is omitted
    /// for single-seed grids).
    #[must_use]
    pub fn render_table(&self, metrics: &[&str]) -> String {
        let mut out = String::new();
        let replicated = self.cells.iter().any(|c| c.seeds.len() > 1);
        let mut block: Option<(&str, &str, &str, &str, &str, &str)> = None;
        for cell in &self.cells {
            let key = cell.block_key();
            if block != Some(key) {
                block = Some(key);
                out.push_str(&format!(
                    "\n### shape={} workload={} faults={}{}{} params={}{}\n",
                    key.0,
                    key.1,
                    key.2,
                    // the market and policy segments appear only on grids
                    // declaring those axes, so axis-free tables render
                    // exactly as before
                    if key.3 == "none" {
                        String::new()
                    } else {
                        format!(" market={}", key.3)
                    },
                    if key.4 == "naive" {
                        String::new()
                    } else {
                        format!(" policy={}", key.4)
                    },
                    key.5,
                    if replicated {
                        format!("  (median ±IQR/2 over {} seeds)", cell.seeds.len())
                    } else {
                        String::new()
                    }
                ));
                out.push_str(&format!("{:<14}", "sched"));
                for m in metrics {
                    out.push_str(&format!(" | {:>20}", m));
                }
                out.push('\n');
                out.push_str(&"-".repeat(14 + metrics.len() * 23));
                out.push('\n');
            }
            out.push_str(&format!("{:<14}", cell.scheduler));
            for m in metrics {
                let cellstr = cell.metric(m).map_or_else(
                    || "?".to_string(),
                    |s| {
                        if replicated {
                            format!("{} ±{}", fmt_value(s.median), fmt_value(s.iqr / 2.0))
                        } else {
                            fmt_value(s.median)
                        }
                    },
                );
                out.push_str(&format!(" | {cellstr:>20}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Magnitude-adaptive formatting: rates in `[0, 1]` keep four decimals
/// (a percentage to two, as the paper prints it), second-scale metrics
/// one — a `0.12` eviction rate must not collapse to `0.1` next to a
/// five-digit JCT.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(jct: f64) -> RunSummary {
        RunSummary {
            hp_tasks: 2,
            spot_tasks: 1,
            hp_completion: 1.0,
            spot_completion: 1.0,
            hp_mean_jct_s: jct,
            hp_p99_jct_s: jct * 2.0,
            hp_mean_jqt_s: 5.0,
            spot_mean_jct_s: 50.0,
            spot_p99_jct_s: 80.0,
            spot_mean_jqt_s: 9.0,
            spot_p99_jqt_s: 12.0,
            eviction_count: 1,
            eviction_rate: 0.25,
            mean_alloc_rate: 0.5,
            makespan_hours: 10.0,
            failed_commits: 0,
            availability: 1.0,
            displacement_count: 0,
            displaced_mean_jct_s: 0.0,
            migration_count: 0,
            node_drains: 0,
            added_gpus: 0.0,
            gpu_hours_bought: 0.0,
            market_spend_usd: 0.0,
            cost_per_completed_usd: 0.0,
            stranded_gpu_hours: 0.0,
        }
    }

    fn report() -> GridReport {
        GridReport {
            cells: vec![CellSummary::new(
                "YARN-CS",
                "4n",
                "tiny",
                "none",
                "none",
                "naive",
                "default",
                &[1, 2],
                vec![summary(100.0), summary(140.0)],
            )],
        }
    }

    #[test]
    fn json_round_trip() {
        let r = report();
        let json = r.to_json();
        let back = GridReport::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn cell_lookup_and_median() {
        let r = report();
        let block = ("4n", "tiny", "none", "none", "naive", "default");
        let cell = r.cell("YARN-CS", block).unwrap();
        assert_eq!(cell.median("hp_mean_jct_s"), 120.0);
        assert!(r.cell("nope", block).is_none());
        let churny = ("4n", "tiny", "churny", "none", "naive", "default");
        assert!(r.cell("YARN-CS", churny).is_none());
        assert!(cell.metric("not_a_metric").is_none());
    }

    #[test]
    fn table_contains_block_and_row() {
        let r = report();
        let table = r.render_table(&["hp_mean_jct_s", "eviction_rate"]);
        assert!(table.contains("shape=4n workload=tiny faults=none params=default"));
        assert!(table.contains("YARN-CS"));
        assert!(table.contains("120.0"));
        assert!(table.contains("±"));
    }

    #[test]
    fn market_label_skips_serialization_like_policy() {
        // a market-free cell keeps the historical wire encoding...
        let r = report();
        assert!(!r.to_json().contains("\"market\""));
        assert_eq!(r.cells[0].market_label(), "none");
        // ...and a market cell names its axis point in JSON and table
        let mut market = report();
        market.cells[0].market = Some("shock3x".to_string());
        assert!(market.to_json().contains("\"market\":\"shock3x\""));
        let table = market.render_table(&["hp_mean_jct_s"]);
        assert!(table.contains(" market=shock3x "), "{table}");
        let plain = report().render_table(&["hp_mean_jct_s"]);
        assert!(!plain.contains("market="), "{plain}");
    }

    #[test]
    fn cell_distinguishes_every_axis() {
        let mut r = report();
        r.cells.push(CellSummary::new(
            "YARN-CS",
            "4n",
            "tiny",
            "churny",
            "shock3x",
            "churn-aware",
            "default",
            &[1, 2],
            vec![summary(200.0), summary(260.0)],
        ));
        let median = |block| r.cell("YARN-CS", block).unwrap().median("hp_mean_jct_s");
        assert_eq!(
            median(("4n", "tiny", "churny", "shock3x", "churn-aware", "default")),
            230.0
        );
        assert_eq!(
            median(("4n", "tiny", "none", "none", "naive", "default")),
            120.0
        );
        for block in [
            ("4n", "tiny", "none", "shock3x", "churn-aware", "default"),
            ("4n", "tiny", "churny", "none", "churn-aware", "default"),
            ("4n", "tiny", "churny", "shock3x", "naive", "default"),
        ] {
            assert!(r.cell("YARN-CS", block).is_none(), "{block:?}");
        }
    }
}
