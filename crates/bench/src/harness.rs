//! A dependency-free micro-benchmark harness.
//!
//! Each bench target builds a [`Suite`], registers closures with
//! [`Suite::bench`], and calls [`Suite::finish`], which prints a table and
//! writes a machine-readable `BENCH_<suite>.json` next to the workspace
//! root (override the directory with `GFS_BENCH_DIR`). Timing is adaptive
//! and repeated: a closure is warmed up, then measured in `k` independent
//! repetitions (each iterating until its time budget is spent); the
//! reported figure is the **median** of the per-repetition means — robust
//! against the ±20 % noise of shared hosts, where a single long repetition
//! (or a lucky quiet one) would skew a plain mean or best-of-k. The
//! minimum repetition and the spread are emitted per entry so a noisy
//! measurement is visible in the JSON instead of silently trusted.
//! Spread is `(max − min)/median` with the single slowest repetition
//! excluded (when there are ≥3): one scheduler preemption on a shared
//! host would otherwise define the whole entry's noise figure, which
//! made the raw statistic too flaky to compare runs by.
//! A genuinely noisy entry still shows, because noise that matters
//! affects more than one repetition.
//!
//! Environment knobs:
//!
//! * `GFS_BENCH_SHORT=1` — smoke mode for CI: tiny warm-up/measure budget.
//! * `GFS_BENCH_DIR=<dir>` — where `BENCH_*.json` lands (default: the
//!   workspace root, two levels above this crate's manifest).
//! * `GFS_BENCH_TAG=<tag>` — written into the JSON (`baseline`,
//!   `optimized`, a commit id, …) so runs are attributable.
//! * `GFS_BENCH_PIN=<cpu>` — best-effort CPU pinning before measuring
//!   (Linux `sched_setaffinity`; a recorded no-op elsewhere — see
//!   [`crate::affinity`]). The JSON's `pinned_cpu` field says whether it
//!   took effect, so pinned and unpinned baselines are distinguishable.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (stable across runs; used to diff baselines).
    pub name: String,
    /// Median across repetitions of the mean nanoseconds per iteration —
    /// the headline number (kept under the historical `mean_ns` JSON key
    /// so baselines stay diffable).
    pub mean_ns: f64,
    /// Fastest repetition's mean nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations measured across all repetitions (after warm-up).
    pub iters: u64,
    /// Measurement repetitions.
    pub reps: u32,
    /// `(max − min) / median` across repetitions, percent, with the
    /// single slowest repetition dropped when ≥3 were measured: the
    /// run-to-run noise of this entry net of one-off scheduler spikes.
    pub spread_pct: f64,
}

/// A named collection of benchmarks writing one `BENCH_<name>.json`.
#[derive(Debug)]
pub struct Suite {
    name: String,
    short: bool,
    /// CPU the process was pinned to via `GFS_BENCH_PIN`, if pinning
    /// succeeded; recorded in the JSON metadata.
    pinned_cpu: Option<usize>,
    results: Vec<Measurement>,
}

impl Suite {
    /// Creates a suite; reads `GFS_BENCH_SHORT` for smoke mode and
    /// `GFS_BENCH_PIN` for best-effort CPU pinning.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let short = std::env::var("GFS_BENCH_SHORT").is_ok_and(|v| v != "0" && !v.is_empty());
        let pinned_cpu = crate::affinity::pin_from_env();
        println!(
            "## bench suite `{name}`{}{}",
            if short { " (short mode)" } else { "" },
            match pinned_cpu {
                Some(cpu) => format!(" (pinned to cpu {cpu})"),
                None => String::new(),
            }
        );
        Suite {
            name: name.to_string(),
            short,
            pinned_cpu,
            results: Vec::new(),
        }
    }

    /// Whether the suite runs in CI smoke mode.
    #[must_use]
    pub fn is_short(&self) -> bool {
        self.short
    }

    /// `(warm-up iterations, per-repetition budget, repetitions)`.
    fn budget(&self) -> (u32, Duration, u32) {
        if self.short {
            // 3 reps, not 2: the median then sheds a single slow
            // repetition, which keeps the smoke-mode spread_pct stable
            // enough to be meaningful
            (1, Duration::from_millis(15), 3)
        } else {
            (3, Duration::from_millis(250), 5)
        }
    }

    /// Measures `f` over `k` repetitions, printing and recording the
    /// median (and min) of the per-repetition mean time per iteration.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        let (warmup, measure, reps) = self.budget();
        for _ in 0..warmup {
            black_box(f());
        }
        let mut iters = 0u64;
        let mut rep_means = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            let mut rep_iters = 0u64;
            let mut elapsed = Duration::ZERO;
            while elapsed < measure || rep_iters == 0 {
                let start = Instant::now();
                black_box(f());
                elapsed += start.elapsed();
                rep_iters += 1;
                if rep_iters >= 1_000_000 {
                    break;
                }
            }
            rep_means.push(elapsed.as_nanos() as f64 / rep_iters as f64);
            iters += rep_iters;
        }
        rep_means.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = rep_means.len();
        // true median: average the middle pair for even k, so the 2-rep
        // short mode does not report its slower repetition as the headline
        let median_ns = if n % 2 == 0 {
            (rep_means[n / 2 - 1] + rep_means[n / 2]) / 2.0
        } else {
            rep_means[n / 2]
        };
        let min_ns = rep_means[0];
        // shed the single slowest repetition (see module docs): one
        // preemption spike must not define the entry's noise figure
        let max_ns = if n >= 3 {
            rep_means[n - 2]
        } else {
            rep_means[n - 1]
        };
        let spread_pct = if median_ns > 0.0 {
            (max_ns - min_ns) / median_ns * 100.0
        } else {
            0.0
        };
        println!(
            "{name:<44} {:>14}/iter  (min {}, ±{spread_pct:.0}%, {iters} iters × {reps} reps)",
            format_ns(median_ns),
            format_ns(min_ns),
        );
        self.results.push(Measurement {
            name: name.to_string(),
            mean_ns: median_ns,
            min_ns,
            iters,
            reps,
            spread_pct,
        });
    }

    /// Writes `BENCH_<suite>.json` and returns the measurements.
    pub fn finish(self) -> Vec<Measurement> {
        let dir = std::env::var("GFS_BENCH_DIR")
            .unwrap_or_else(|_| format!("{}/../..", env!("CARGO_MANIFEST_DIR")));
        let tag: String = std::env::var("GFS_BENCH_TAG")
            .unwrap_or_else(|_| "untagged".to_string())
            .chars()
            .map(|c| {
                if c == '"' || c == '\\' || c.is_control() {
                    '_'
                } else {
                    c
                }
            })
            .collect();
        let path = format!("{dir}/BENCH_{}.json", self.name);
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"suite\": \"{}\",\n", self.name));
        json.push_str(&format!("  \"tag\": \"{tag}\",\n"));
        json.push_str(&format!("  \"short\": {},\n", self.short));
        json.push_str(&format!(
            "  \"pinned_cpu\": {},\n",
            self.pinned_cpu
                .map_or_else(|| "null".to_string(), |c| c.to_string())
        ));
        json.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}, \"reps\": {}, \"spread_pct\": {:.1}}}{}\n",
                m.name,
                m.mean_ns,
                m.min_ns,
                m.iters,
                m.reps,
                m.spread_pct,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
        self.results
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}
