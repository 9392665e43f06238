//! `gfs_lint` — workspace determinism & golden-pin static analysis.
//!
//! Every golden pin in this repo (the six `tests/golden_*` suites and the
//! threads=1 == threads=8 fleet determinism contract, see
//! `gfs_sim::fleet`) rests on invariants that `rustc` cannot check:
//! iteration order, clock sources, serde attribute pairing, and the
//! ChangeLog epoch protocol. This crate is a std-only static-analysis pass
//! that checks them. It has **zero dependencies** — a hand-written lossy
//! lexer ([`lexer`]), not `syn` — so it builds offline and keeps working
//! even when the code it scans does not compile.
//!
//! # Rules
//!
//! | rule | invariant protected |
//! |------|---------------------|
//! | `det-iter` | **Replay determinism.** `std` hash containers iterate in a per-process random order (`RandomState`). Iterating one inside a decision path (`crates/{sim,sched,cluster,core,market}`) can reorder placement, eviction or pricing decisions between two runs of the same seed, silently breaking the golden pins. Keyed lookups (`get`, `entry`, `insert`, `remove`, `contains_key`) are fine — the `budget`/`virt_idle` maps in `gfs_sched::placement` are the canonical clean pattern. Fix: `BTreeMap`/`BTreeSet`, or collect-and-sort before iterating. |
//! | `det-clock` | **Reproducibility.** `Instant::now()`/`SystemTime` reads feed wall-clock time into results. Decision paths may only read simulated time (`SimTime`). Allowlisted: `crates/bench/` (the experiment bins report their wall time) and `crates/forecast/src/timing.rs` (the one choke point for model train-time measurement). |
//! | `golden-serde` | **Golden-pin forward/backward compatibility.** A field with `#[serde(skip_serializing_if = …)]` but no `default` produces reports that cannot be re-read when the field was skipped — the skip-at-zero pin contract requires the pair. |
//! | `changelog-coverage` | **ScoreIndex epoch protocol.** Score-relevant `Cluster`/`Node` mutations must reach `ChangeLog::note` so the incremental `ScoreIndex` invalidates the right nodes. Inside `crates/cluster/src/cluster.rs`, any `fn` calling a mutation primitive (`place_pod`, `set_up`, `index.refresh`, …) must reach `changes.note` directly or via a same-file logged helper. Outside `gfs_cluster`, raw `Node` mutators are flagged outright — go through `Cluster`'s logged API. |
//! | `service-unwrap` | **Crash-safe recovery.** `unwrap`/`expect` in `ClusterService` journal/recovery functions turns a detectable torn journal tail into a crash loop; those paths must return the typed `JournalError`/`RestoreError`. |
//! | `tape-alloc` | **Zero-allocation steady state.** The `gfs_nn` tape arena's performance contract (enforced dynamically by the `forecast-alloc-gate` test lane) is that a warm training step allocates nothing. Functions marked `// gfs-lint: hot(tape)` in `crates/nn` may not call `Box::new`/`Rc::new`/`Vec::new`, expand `vec![…]`, or `.clone()` (tensor clones allocate unless the copy-on-write share was taken outside the hot path). |
//! | `bad-pragma` | A `gfs-lint:` pragma that does not parse, lacks a reason, names an unknown rule, or marks an unknown hot zone. Never suppressible. |
//!
//! # Pragmas
//!
//! A rule can be suppressed per line with an escape hatch that *requires a
//! written justification*:
//!
//! ```text
//! // gfs-lint: allow(det-iter, "max over u64s is order-independent")
//! let worst = waiting.values().copied().max();
//! ```
//!
//! A standalone pragma comment applies to the next token-bearing line; a
//! trailing (inline) pragma applies to its own line. The reason string is
//! mandatory and must be non-empty — a pragma without one is itself a
//! `bad-pragma` finding, as is an unknown rule name.
//!
//! A second comment form, `// gfs-lint: hot(tape)`, is an opt-in marker:
//! it places the next function under the `tape-alloc` zone rule rather
//! than suppressing anything.
//!
//! # Report & gate
//!
//! Findings are emitted sorted by `(path, line, rule)` as a byte-stable
//! table ([`report`]). CI runs the self-scan
//! (`just lint`) and hard-fails on any finding: the pragma above is the
//! only exception mechanism, so every accepted exception carries its
//! reason on the line it excuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{render_table, sort_findings, Finding, RuleId};
pub use rules::scan_source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Workspace directories worth scanning, relative to the root.
const SCAN_ROOTS: [&str; 4] = ["src", "crates", "examples", "tests"];

/// Collects every `.rs` file under the workspace `root`'s scan roots, as
/// sorted workspace-relative `/`-separated paths. Skips `target/`, VCS
/// metadata, and lint rule fixtures (`tests/fixtures/` holds deliberate
/// violations).
///
/// # Errors
///
/// Propagates filesystem errors other than a missing scan root.
pub fn collect_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            if rel.contains("tests/fixtures/") {
                continue;
            }
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Scans the whole workspace at `root` and returns the findings in
/// canonical order. This is the `lint_self` mode the CI gate runs.
///
/// # Errors
///
/// Propagates filesystem errors from walking or reading sources.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in collect_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_source(&rel, &src));
    }
    sort_findings(&mut findings);
    Ok(findings)
}
