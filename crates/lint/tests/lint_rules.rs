//! Fixture-driven rule tests, the report-encoding pin, the workspace
//! self-scan gate (so `cargo test` enforces the same zero-finding bar CI
//! does) and the pin of the workspace's environment knobs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use gfs_lint::{collect_files, render_table, scan_source, scan_workspace, Finding, RuleId};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line, rule)` pairs of the findings, in report order.
fn keys(findings: &[Finding]) -> Vec<(u32, RuleId)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn det_iter_fixture_findings() {
    let src = fixture("det_iter_bad.rs");
    let out = scan_source("crates/sched/src/fixture.rs", &src);
    assert_eq!(
        keys(&out),
        vec![
            (11, RuleId::DetIter),
            (15, RuleId::DetIter),
            (22, RuleId::DetIter),
        ],
        "{out:#?}"
    );
    // same source outside a decision path: clean
    assert!(scan_source("crates/lab/src/fixture.rs", &src).is_empty());
}

#[test]
fn det_iter_clean_fixture_is_clean() {
    let src = fixture("det_iter_good.rs");
    let out = scan_source("crates/sched/src/fixture_good.rs", &src);
    assert!(out.is_empty(), "{out:#?}");
}

#[test]
fn det_clock_fixture_findings() {
    let src = fixture("det_clock_bad.rs");
    let out = scan_source("crates/market/src/fixture.rs", &src);
    assert_eq!(
        keys(&out),
        vec![(5, RuleId::DetClock), (6, RuleId::DetClock)],
        "{out:#?}"
    );
    // the allowlisted locations stay clean
    assert!(scan_source("crates/bench/src/fixture.rs", &src).is_empty());
    assert!(scan_source("crates/forecast/src/timing.rs", &src).is_empty());
}

#[test]
fn golden_serde_fixture_findings() {
    let src = fixture("golden_serde_bad.rs");
    let out = scan_source("crates/lab/src/fixture.rs", &src);
    assert_eq!(keys(&out), vec![(6, RuleId::GoldenSerde)], "{out:#?}");
}

#[test]
fn changelog_fixture_findings() {
    let src = fixture("changelog_bad.rs");
    let out = scan_source("crates/cluster/src/cluster.rs", &src);
    assert_eq!(
        keys(&out),
        vec![(17, RuleId::ChangelogCoverage)],
        "{out:#?}"
    );
    assert!(out[0].message.contains("quiet_drain"), "{out:#?}");
}

#[test]
fn service_unwrap_fixture_findings() {
    let src = fixture("service_unwrap_bad.rs");
    let out = scan_source("crates/sim/src/service.rs", &src);
    assert_eq!(
        keys(&out),
        vec![(6, RuleId::ServiceUnwrap), (7, RuleId::ServiceUnwrap)],
        "{out:#?}"
    );
    // the journal and snapshot codecs are in scope too; any other file,
    // even in gfs_sim, is not
    assert_eq!(scan_source("crates/sim/src/journal.rs", &src).len(), 2);
    assert_eq!(scan_source("crates/sim/src/snapshot.rs", &src).len(), 2);
    assert!(scan_source("crates/sim/src/engine.rs", &src).is_empty());
}

#[test]
fn tape_alloc_fixture_findings() {
    let src = fixture("tape_alloc_bad.rs");
    let out = scan_source("crates/nn/src/fixture.rs", &src);
    assert_eq!(
        keys(&out),
        vec![
            (7, RuleId::TapeAlloc),
            (9, RuleId::TapeAlloc),
            (10, RuleId::TapeAlloc),
            (11, RuleId::TapeAlloc),
            (12, RuleId::TapeAlloc),
            (26, RuleId::BadPragma),
        ],
        "{out:#?}"
    );
    // outside crates/nn the zone rule does not run, but an unknown hot
    // zone is still a bad pragma everywhere
    let foreign = scan_source("crates/core/src/fixture.rs", &src);
    assert_eq!(
        keys(&foreign),
        vec![(26, RuleId::BadPragma)],
        "{foreign:#?}"
    );
}

#[test]
fn pragma_fixture_suppresses_with_reason_only() {
    let src = fixture("pragma.rs");
    let out = scan_source("crates/core/src/fixture.rs", &src);
    assert_eq!(
        keys(&out),
        vec![
            (10, RuleId::DetIter),
            (14, RuleId::BadPragma),
            (15, RuleId::BadPragma),
        ],
        "{out:#?}"
    );
}

#[test]
fn report_encoding_is_pinned() {
    let findings = vec![
        Finding {
            path: "crates/sim/src/engine.rs".to_string(),
            line: 42,
            rule: RuleId::DetIter,
            message: "iteration over `m`".to_string(),
        },
        Finding {
            path: "crates/core/src/sqa.rs".to_string(),
            line: 7,
            rule: RuleId::DetClock,
            message: "wall clock".to_string(),
        },
    ];
    // byte-for-byte pin of the table: sorted by path, columns aligned
    assert_eq!(
        render_table(&findings),
        "crates/core/src/sqa.rs:7     det-clock  wall clock\n\
         crates/sim/src/engine.rs:42  det-iter   iteration over `m`\n"
    );
    assert_eq!(render_table(&[]), "no findings\n");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `lint_self` gate, as a test: the workspace has no findings. This
/// is the same check `just lint` / CI runs.
#[test]
fn workspace_self_scan_is_clean() {
    let findings = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        render_table(&findings)
    );
}

/// The workspace's environment knobs: every `GFS_*` name a scanned
/// source passes literally to `env::var` or `env_flag`. A new knob has
/// to be added here on purpose.
#[test]
fn env_knobs_are_pinned() {
    let root = workspace_root();
    let mut knobs = BTreeSet::new();
    for rel in collect_files(&root).expect("workspace walk") {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read source");
        for call in ["env::var(\"", "env_flag(\""] {
            for (at, _) in src.match_indices(call) {
                let arg = &src[at + call.len()..];
                if arg.starts_with("GFS_") {
                    let end = arg.find('"').expect("closed string literal");
                    knobs.insert(arg[..end].to_string());
                }
            }
        }
    }
    assert_eq!(
        knobs,
        BTreeSet::from(
            [
                "GFS_BENCH_SCALE",
                "GFS_LAB_JSON",
                "GFS_LAB_THREADS",
                "GFS_PRINT_GOLDEN",
            ]
            .map(String::from)
        )
    );
}
