//! The five rules, as token-stream pattern matchers over [`crate::lexer`]
//! output, plus pragma application. See the crate docs for the invariant
//! each rule protects and the exact scoping.

use crate::lexer::{lex, LexFile, TokKind};
use crate::report::{Finding, RuleId};

/// Decision-path crates: the only places where scheduling, simulation or
/// market outcomes are computed, so the only places where iteration order
/// or wall-clock reads can corrupt a pinned result.
const DECISION_PREFIXES: [&str; 5] = [
    "crates/sim/src/",
    "crates/sched/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/market/src/",
];

/// Hash-container methods whose visit order is arbitrary. Keyed access
/// (`get`, `entry`, `insert`, `remove`, `contains_key`, indexing) is fine
/// and deliberately not listed: the `budget`/`virt_idle` maps in
/// `gfs_sched::placement` are the canonical keyed-lookup-only pattern.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// `Node` mutators that change a placement score. Inside
/// `crates/cluster/src/cluster.rs` these must sit in a function that
/// reaches `changes.note` (the ScoreIndex epoch contract).
const NODE_PRIMITIVES: [&str; 7] = [
    "place_pod",
    "release_pod",
    "record_eviction",
    "record_failure",
    "set_up",
    "set_draining",
    "clear_eviction_history",
];

/// The subset of [`NODE_PRIMITIVES`] whose names are unambiguous enough
/// to flag *outside* `gfs_cluster` (`record_eviction` is excluded: the
/// SQA controller has an unrelated method of that name).
const NODE_PRIMITIVES_FOREIGN: [&str; 6] = [
    "place_pod",
    "release_pod",
    "record_failure",
    "set_up",
    "set_draining",
    "clear_eviction_history",
];

/// `CapacityIndex` mutators (`self.index.<m>(…)`) — same contract.
const INDEX_MUTATORS: [&str; 5] = [
    "refresh",
    "remove_node",
    "restore_node",
    "add_spot",
    "remove_spot",
];

/// The `gfs_sim` files holding the service's journal and recovery paths.
const SERVICE_FILES: [&str; 3] = [
    "crates/sim/src/service.rs",
    "crates/sim/src/journal.rs",
    "crates/sim/src/snapshot.rs",
];

/// Journal/recovery functions of [`SERVICE_FILES`] that must use typed
/// errors only: a panic mid-recovery turns a detectable torn tail into a
/// crash loop.
const JOURNAL_FNS: [&str; 21] = [
    "parse_journal",
    "scan_line",
    "check_line",
    "scan_journal",
    "decode_event",
    "record_crc",
    "admit",
    "append",
    "append_record",
    "resume",
    "enable",
    "enable_journal",
    "journal",
    "last_seq",
    "text",
    "replay_journal",
    "restore",
    "from_json",
    "check_task_indices",
    "state_hash",
    "snapshot_json",
];

/// Scans one file. `path` must be the workspace-relative, `/`-separated
/// path — rules scope themselves by it.
#[must_use]
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let f = lex(src);
    let tests = test_spans(&f);
    let mut findings = Vec::new();

    if in_decision_path(path) {
        det_iter(path, &f, &tests, &mut findings);
    }
    if det_clock_scope(path) {
        det_clock(path, &f, &tests, &mut findings);
    }
    golden_serde(path, &f, &mut findings);
    if path.starts_with("crates/cluster/") && path.ends_with("cluster.rs") {
        changelog_local(path, &f, &tests, &mut findings);
    } else if in_decision_path(path) && !path.starts_with("crates/cluster/") {
        changelog_foreign(path, &f, &tests, &mut findings);
    }
    if SERVICE_FILES.contains(&path) {
        service_unwrap(path, &f, &tests, &mut findings);
    }
    if path.starts_with("crates/nn/") {
        tape_alloc(path, &f, &tests, &mut findings);
    }

    apply_pragmas(path, &f, &mut findings);
    findings
}

fn in_decision_path(path: &str) -> bool {
    DECISION_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn det_clock_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/bench/")
        && path != "crates/forecast/src/timing.rs"
}

// -------------------------------------------------------------------
// structure helpers
// -------------------------------------------------------------------

/// Token-index spans of `#[cfg(test)]`-gated modules and functions.
fn test_spans(f: &LexFile<'_>) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < f.toks.len() {
        let hit = f.is_punct(i, '#')
            && f.is_punct(i + 1, '[')
            && f.is_ident(i + 2, "cfg")
            && f.is_punct(i + 3, '(')
            && f.is_ident(i + 4, "test")
            && f.is_punct(i + 5, ')')
            && f.is_punct(i + 6, ']');
        if !hit {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // skip further attributes before the item
        while f.is_punct(j, '#') && f.is_punct(j + 1, '[') {
            let mut depth = 0i32;
            while j < f.toks.len() {
                match f.toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // find the gated item's body brace (stop at `;` for `mod x;`)
        let mut k = j;
        let mut depth = 0i32;
        while k < f.toks.len() {
            match f.toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Punct('{') if depth == 0 => {
                    spans.push((k, f.match_brace(k)));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        i = j.max(i + 1);
    }
    spans
}

fn in_test(tests: &[(usize, usize)], i: usize) -> bool {
    tests.iter().any(|&(a, b)| i >= a && i < b)
}

/// A function item: name plus its body token span.
struct FnItem {
    name: String,
    line: u32,
    body: Option<(usize, usize)>,
}

/// Extracts every `fn` item (including nested ones) with its body span.
fn fn_items(f: &LexFile<'_>) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < f.toks.len() {
        if f.is_ident(i, "fn") && matches!(f.toks.get(i + 1), Some(t) if t.kind == TokKind::Ident) {
            let name = f.text(i + 1).to_string();
            let line = f.line(i + 1);
            // scan to the body `{` or a `;` (trait method declaration),
            // at bracket depth 0 (return types like `-> [u8; 4]` nest)
            let mut k = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while k < f.toks.len() {
                match f.toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct(';') if depth == 0 => break,
                    TokKind::Punct('{') if depth == 0 => {
                        body = Some((k, f.match_brace(k)));
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            out.push(FnItem { name, line, body });
        }
        i += 1;
    }
    out
}

// -------------------------------------------------------------------
// det-iter
// -------------------------------------------------------------------

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: typed
/// bindings/fields/params (`name: [&] [mut] [std::collections::] HashMap<…>`,
/// including one wrapper like `Option<HashMap<…>>`) and initializer
/// bindings (`name = HashMap::new()`).
fn hash_names(f: &LexFile<'_>) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..f.toks.len() {
        if !(f.is_ident(i, "HashMap") || f.is_ident(i, "HashSet")) {
            continue;
        }
        // initializer form: `name = HashMap::…`
        if i >= 2 && f.is_punct(i - 1, '=') && f.toks[i - 2].kind == TokKind::Ident {
            names.push(f.text(i - 2).to_string());
            continue;
        }
        // type-annotation form: walk back over the type prefix to the `:`
        let mut j = i as isize - 1;
        let mut saw_colon = false;
        while j >= 0 {
            let ju = j as usize;
            match f.toks[ju].kind {
                TokKind::Punct(':') => {
                    saw_colon = true;
                    j -= 1;
                }
                TokKind::Punct('&') | TokKind::Punct('<') => j -= 1,
                TokKind::Lifetime => j -= 1,
                TokKind::Ident
                    if matches!(
                        f.text(ju),
                        "std"
                            | "collections"
                            | "mut"
                            | "dyn"
                            | "Option"
                            | "Vec"
                            | "Box"
                            | "Arc"
                            | "Rc"
                            | "Mutex"
                            | "RefCell"
                            | "Cell"
                    ) =>
                {
                    j -= 1;
                }
                _ => break,
            }
        }
        if saw_colon && j >= 0 && f.toks[j as usize].kind == TokKind::Ident {
            let name = f.text(j as usize);
            if name != "fn" && name != "let" {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

fn det_iter(path: &str, f: &LexFile<'_>, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    let names = hash_names(f);
    if names.is_empty() {
        return;
    }
    let is_hash = |i: usize| {
        f.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
            && names.iter().any(|n| n == f.text(i))
    };
    for i in 0..f.toks.len() {
        if in_test(tests, i) {
            continue;
        }
        // `map.iter()` and friends
        if is_hash(i)
            && f.is_punct(i + 1, '.')
            && ITER_METHODS.iter().any(|m| f.is_ident(i + 2, m))
            && f.is_punct(i + 3, '(')
        {
            out.push(Finding {
                path: path.to_string(),
                line: f.line(i),
                rule: RuleId::DetIter,
                message: format!(
                    "iteration over std hash container `{}` (`.{}()`) in a decision path: visit order is nondeterministic — use BTreeMap/BTreeSet, sort the keys first, or pragma with a proof of order-independence",
                    f.text(i),
                    f.text(i + 2),
                ),
            });
        }
        // `for x in map {` / `for x in &map {`
        if f.is_ident(i, "for") {
            let mut j = i + 1;
            let mut in_idx = None;
            while j < f.toks.len() && j < i + 64 {
                if f.is_punct(j, '{') {
                    break;
                }
                if f.is_ident(j, "in") {
                    in_idx = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(start) = in_idx else { continue };
            let mut k = start + 1;
            while k < f.toks.len() && k < start + 64 && !f.is_punct(k, '{') {
                if is_hash(k) && f.is_punct(k + 1, '{') {
                    out.push(Finding {
                        path: path.to_string(),
                        line: f.line(k),
                        rule: RuleId::DetIter,
                        message: format!(
                            "`for` loop over std hash container `{}` in a decision path: visit order is nondeterministic — use BTreeMap/BTreeSet, sort the keys first, or pragma with a proof of order-independence",
                            f.text(k),
                        ),
                    });
                }
                k += 1;
            }
        }
    }
}

// -------------------------------------------------------------------
// det-clock
// -------------------------------------------------------------------

fn det_clock(path: &str, f: &LexFile<'_>, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        if in_test(tests, i) {
            continue;
        }
        if f.is_ident(i, "Instant")
            && f.is_punct(i + 1, ':')
            && f.is_punct(i + 2, ':')
            && f.is_ident(i + 3, "now")
        {
            out.push(Finding {
                path: path.to_string(),
                line: f.line(i),
                rule: RuleId::DetClock,
                message: "`Instant::now()` outside the bench/timing allowlist: wall-clock reads make runs irreproducible — time in the experiment bins (`crates/bench`) or through `gfs_forecast`'s `timing` helper".to_string(),
            });
        }
        if f.is_ident(i, "SystemTime") && f.is_punct(i + 1, ':') && f.is_punct(i + 2, ':') {
            out.push(Finding {
                path: path.to_string(),
                line: f.line(i),
                rule: RuleId::DetClock,
                message: "`SystemTime` use outside the bench/timing allowlist: wall-clock reads make runs irreproducible — simulated time (`SimTime`) is the only clock decision paths may read".to_string(),
            });
        }
    }
}

// -------------------------------------------------------------------
// golden-serde
// -------------------------------------------------------------------

fn golden_serde(path: &str, f: &LexFile<'_>, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < f.toks.len() {
        // start of an attribute run attached to one field
        if !(f.is_punct(i, '#') && f.is_punct(i + 1, '[')) {
            i += 1;
            continue;
        }
        let mut has_skip = false;
        let mut skip_line = 0u32;
        let mut has_default = false;
        let mut j = i;
        // walk the whole consecutive attribute run (serde or otherwise)
        while f.is_punct(j, '#') && f.is_punct(j + 1, '[') {
            let serde_attr = f.is_ident(j + 2, "serde");
            // find the matching `]`
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < f.toks.len() {
                match f.toks[k].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident if serde_attr => {
                        if f.text(k) == "skip_serializing_if" {
                            has_skip = true;
                            skip_line = f.line(k);
                        } else if f.text(k) == "default" {
                            has_default = true;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        if has_skip && !has_default {
            out.push(Finding {
                path: path.to_string(),
                line: skip_line,
                rule: RuleId::GoldenSerde,
                message: "`skip_serializing_if` without `default`: old reports missing the field would fail to deserialize, breaking the skip-at-zero golden-pin contract — add `default` to the same `#[serde(…)]` attribute".to_string(),
            });
        }
        i = j.max(i + 1);
    }
}

// -------------------------------------------------------------------
// changelog-coverage
// -------------------------------------------------------------------

fn body_calls_primitive(f: &LexFile<'_>, a: usize, b: usize) -> Option<(u32, String)> {
    for i in a..b.min(f.toks.len()) {
        if NODE_PRIMITIVES.iter().any(|p| f.is_ident(i, p)) && f.is_punct(i + 1, '(') {
            return Some((f.line(i), f.text(i).to_string()));
        }
        if f.is_ident(i, "index")
            && f.is_punct(i + 1, '.')
            && INDEX_MUTATORS.iter().any(|m| f.is_ident(i + 2, m))
            && f.is_punct(i + 3, '(')
        {
            return Some((f.line(i + 2), format!("index.{}", f.text(i + 2))));
        }
    }
    None
}

/// Arm (a): inside `cluster.rs`, every function whose body calls a
/// score-relevant mutation primitive must reach `changes.note` — directly
/// or through another function of this file that does (delegating to a
/// logged helper like `bring_into_service` counts).
fn changelog_local(path: &str, f: &LexFile<'_>, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    let fns = fn_items(f);
    let has_note = |a: usize, b: usize| {
        (a..b.min(f.toks.len().saturating_sub(2))).any(|i| {
            f.is_ident(i, "changes") && f.is_punct(i + 1, '.') && f.is_ident(i + 2, "note")
        })
    };
    let mut covered: Vec<bool> = fns
        .iter()
        .map(|it| it.body.is_some_and(|(a, b)| has_note(a, b)))
        .collect();
    // fixpoint: a fn that calls a covered fn is covered
    loop {
        let mut changed = false;
        for (idx, it) in fns.iter().enumerate() {
            if covered[idx] {
                continue;
            }
            let Some((a, b)) = it.body else { continue };
            for i in a..b.min(f.toks.len()) {
                if f.toks[i].kind == TokKind::Ident && f.is_punct(i + 1, '(') {
                    let callee = f.text(i);
                    if fns
                        .iter()
                        .enumerate()
                        .any(|(j, g)| covered[j] && g.name == callee)
                    {
                        covered[idx] = true;
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (idx, it) in fns.iter().enumerate() {
        let Some((a, b)) = it.body else { continue };
        if in_test(tests, a) || covered[idx] {
            continue;
        }
        if let Some((_, what)) = body_calls_primitive(f, a, b) {
            out.push(Finding {
                path: path.to_string(),
                line: it.line,
                rule: RuleId::ChangelogCoverage,
                message: format!(
                    "fn `{}` mutates score-relevant state (`{}`) without reaching `changes.note`: the ScoreIndex epoch contract requires every such mutation to be logged (directly or via a logged helper)",
                    it.name, what,
                ),
            });
        }
    }
}

/// Arm (b): outside `gfs_cluster`, raw `Node` mutators are off limits —
/// score-relevant mutation must go through `Cluster`'s logged API.
fn changelog_foreign(
    path: &str,
    f: &LexFile<'_>,
    tests: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    for i in 0..f.toks.len() {
        if in_test(tests, i) {
            continue;
        }
        if f.is_punct(i, '.')
            && NODE_PRIMITIVES_FOREIGN.iter().any(|p| f.is_ident(i + 1, p))
            && f.is_punct(i + 2, '(')
        {
            out.push(Finding {
                path: path.to_string(),
                line: f.line(i + 1),
                rule: RuleId::ChangelogCoverage,
                message: format!(
                    "raw score-relevant Node mutation `.{}()` outside gfs_cluster: it bypasses the ChangeLog, so the ScoreIndex would serve stale scores — go through Cluster's logged API",
                    f.text(i + 1),
                ),
            });
        }
    }
}

// -------------------------------------------------------------------
// service-unwrap
// -------------------------------------------------------------------

fn service_unwrap(path: &str, f: &LexFile<'_>, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    for it in fn_items(f) {
        if !JOURNAL_FNS.contains(&it.name.as_str()) {
            continue;
        }
        let Some((a, b)) = it.body else { continue };
        if in_test(tests, a) {
            continue;
        }
        for i in a..b.min(f.toks.len()) {
            if f.is_punct(i, '.')
                && (f.is_ident(i + 1, "unwrap") || f.is_ident(i + 1, "expect"))
                && f.is_punct(i + 2, '(')
            {
                out.push(Finding {
                    path: path.to_string(),
                    line: f.line(i + 1),
                    rule: RuleId::ServiceUnwrap,
                    message: format!(
                        "`.{}()` in journal/recovery path `{}`: a panic here turns a detectable torn tail into a crash loop — return the typed `JournalError`/`RestoreError` instead",
                        f.text(i + 1),
                        it.name,
                    ),
                });
            }
        }
    }
}

// -------------------------------------------------------------------
// tape-alloc
// -------------------------------------------------------------------

/// Allocating constructors flagged by `tape-alloc` when called as
/// `T::new(...)` inside a `hot(tape)` function.
const ALLOC_CTORS: [&str; 3] = ["Box", "Rc", "Vec"];

/// Inside functions marked `// gfs-lint: hot(tape)` (the zero-allocation
/// steady-state contract of the `gfs_nn` tape arena), flag heap
/// allocation: `Box::new`/`Rc::new`/`Vec::new` calls, `vec![…]`, and
/// `.clone()` (tensor clones allocate unless the copy-on-write share was
/// taken outside the hot path). Suppress justified cases with
/// `allow(tape-alloc, "reason")`.
fn tape_alloc(path: &str, f: &LexFile<'_>, tests: &[(usize, usize)], out: &mut Vec<Finding>) {
    let fns = fn_items(f);
    // each marker opts in the next fn item at or below it
    let mut spans: Vec<(usize, String, usize, usize)> = Vec::new();
    for m in &f.markers {
        if m.zone != "tape" {
            continue;
        }
        let Some((idx, it)) = fns
            .iter()
            .enumerate()
            .filter(|(_, it)| it.line >= m.line)
            .min_by_key(|(_, it)| it.line)
        else {
            continue;
        };
        let Some((a, b)) = it.body else { continue };
        if !spans.iter().any(|&(i, ..)| i == idx) {
            spans.push((idx, it.name.clone(), a, b));
        }
    }
    for (_, name, a, b) in spans {
        if in_test(tests, a) {
            continue;
        }
        for i in a..b.min(f.toks.len()) {
            if ALLOC_CTORS.iter().any(|c| f.is_ident(i, c))
                && f.is_punct(i + 1, ':')
                && f.is_punct(i + 2, ':')
                && f.is_ident(i + 3, "new")
                && f.is_punct(i + 4, '(')
            {
                out.push(Finding {
                    path: path.to_string(),
                    line: f.line(i),
                    rule: RuleId::TapeAlloc,
                    message: format!(
                        "`{}::new` in tape-hot fn `{}`: heap allocation on the zero-alloc steady-state path — reuse a preallocated arena slot or scratch buffer, or pragma with a reason",
                        f.text(i), name,
                    ),
                });
            }
            if f.is_ident(i, "vec") && f.is_punct(i + 1, '!') {
                out.push(Finding {
                    path: path.to_string(),
                    line: f.line(i),
                    rule: RuleId::TapeAlloc,
                    message: format!(
                        "`vec![…]` in tape-hot fn `{name}`: heap allocation on the zero-alloc steady-state path — reuse a preallocated scratch buffer, or pragma with a reason",
                    ),
                });
            }
            if f.is_punct(i, '.') && f.is_ident(i + 1, "clone") && f.is_punct(i + 2, '(') {
                out.push(Finding {
                    path: path.to_string(),
                    line: f.line(i + 1),
                    rule: RuleId::TapeAlloc,
                    message: format!(
                        "`.clone()` in tape-hot fn `{name}`: cloning a tensor buffer allocates — take the copy-on-write share outside the hot path or write through `copy_from`, or pragma with a reason",
                    ),
                });
            }
        }
    }
}

// -------------------------------------------------------------------
// pragmas
// -------------------------------------------------------------------

/// Applies `// gfs-lint: allow(rule, "reason")` pragmas: a standalone
/// pragma suppresses matching findings on the next token-bearing line, an
/// inline one on its own line. Malformed pragmas and unknown rule names
/// become `bad-pragma` findings (which no pragma can suppress).
fn apply_pragmas(path: &str, f: &LexFile<'_>, findings: &mut Vec<Finding>) {
    for m in &f.markers {
        if m.zone != "tape" {
            findings.push(Finding {
                path: path.to_string(),
                line: m.line,
                rule: RuleId::BadPragma,
                message: format!("gfs-lint marker names unknown hot zone `{}`", m.zone),
            });
        }
    }
    let mut allowed: Vec<(u32, RuleId)> = Vec::new();
    for p in &f.pragmas {
        if let Some(msg) = &p.malformed {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: RuleId::BadPragma,
                message: format!("malformed gfs-lint pragma: {msg}"),
            });
            continue;
        }
        let Some(rule) = RuleId::parse(&p.rule) else {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: RuleId::BadPragma,
                message: format!("gfs-lint pragma names unknown rule `{}`", p.rule),
            });
            continue;
        };
        let target = if p.standalone {
            f.toks
                .iter()
                .map(|t| t.line)
                .find(|&l| l > p.line)
                .unwrap_or(p.line)
        } else {
            p.line
        };
        allowed.push((target, rule));
    }
    findings.retain(|fi| {
        fi.rule == RuleId::BadPragma || !allowed.iter().any(|&(l, r)| l == fi.line && r == fi.rule)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_names_cover_bindings_fields_and_params() {
        let src = "
            struct S { counts: HashMap<u64, u32>, other: Vec<u32> }
            fn f(id_to_idx: &HashMap<TaskId, u32>, v: &[u32]) {
                let mut budget: HashMap<NodeId, u32> = HashMap::new();
                let inline = HashMap::new();
                let opt: Option<HashMap<u32, u32>> = None;
            }
        ";
        let f = lex(src);
        let names = hash_names(&f);
        assert_eq!(
            names,
            vec!["budget", "counts", "id_to_idx", "inline", "opt"]
        );
    }

    #[test]
    fn det_iter_flags_iteration_not_lookup() {
        let src = "
            fn decide(m: &HashMap<u32, u32>) -> u32 {
                let keyed = m.get(&1).copied().unwrap_or(0); // fine
                let bad: u32 = m.values().sum();
                for (k, v) in m {
                    let _ = (k, v);
                }
                keyed
            }
        ";
        let out = scan_source("crates/core/src/x.rs", src);
        let iters: Vec<u32> = out
            .iter()
            .filter(|f| f.rule == RuleId::DetIter)
            .map(|f| f.line)
            .collect();
        assert_eq!(iters, vec![4, 5]);
        // out of scope: no findings
        assert!(scan_source("crates/lab/src/x.rs", src)
            .iter()
            .all(|f| f.rule != RuleId::DetIter));
    }

    #[test]
    fn det_iter_ignores_test_modules() {
        let src = "
            struct S { m: HashMap<u32, u32> }
            #[cfg(test)]
            mod tests {
                fn t(m: &HashMap<u32, u32>) { for x in m {} }
            }
        ";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn det_clock_scopes_and_allowlists() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(scan_source("crates/market/src/price.rs", src).len(), 1);
        assert!(scan_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(scan_source("crates/forecast/src/timing.rs", src).is_empty());
        let import_only = "use std::time::Instant;\nuse std::time::SystemTime;";
        assert!(scan_source("crates/market/src/price.rs", import_only).is_empty());
        let sys = "fn f() { let t = SystemTime::now(); }";
        assert_eq!(scan_source("crates/sim/src/x.rs", sys).len(), 1);
    }

    #[test]
    fn golden_serde_requires_default() {
        let src = "
            struct R {
                #[serde(skip_serializing_if = \"is_zero\", default)]
                ok: u32,
                #[serde(skip_serializing_if = \"is_zero\")]
                bad: u32,
                #[serde(skip_serializing_if = \"is_zero\")]
                #[serde(default)]
                split_ok: u32,
            }
        ";
        let out = scan_source("crates/lab/src/r.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RuleId::GoldenSerde);
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn changelog_local_fixpoint_covers_delegation() {
        let src = "
            impl Cluster {
                fn logged(&mut self, id: NodeId) {
                    self.index.refresh(node);
                    self.changes.note(id.raw());
                }
                fn delegates(&mut self, id: NodeId) {
                    self.nodes[0].set_up(false);
                    self.logged(id);
                }
                fn naked(&mut self, id: NodeId) {
                    self.index.remove_node(&self.nodes[0]);
                }
                fn reader(&self) -> usize { self.nodes.len() }
            }
        ";
        let out = scan_source("crates/cluster/src/cluster.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`naked`"));
    }

    #[test]
    fn changelog_foreign_flags_raw_node_mutation() {
        let src = "fn hack(n: &mut Node) { n.set_up(false); }";
        let out = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RuleId::ChangelogCoverage);
        // record_eviction is deliberately not foreign-flagged (SQA method)
        let sqa = "fn f(sqa: &mut Sqa) { sqa.record_eviction(t, at); }";
        assert!(scan_source("crates/core/src/gfs.rs", sqa).is_empty());
    }

    #[test]
    fn service_unwrap_scopes_to_journal_fns() {
        let src = "
            impl ClusterService {
                pub fn replay_journal(&mut self) { self.x.unwrap(); }
                fn step(&mut self) { self.y.expect(\"invariant\"); }
            }
        ";
        let out = scan_source("crates/sim/src/service.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("replay_journal"));
        assert!(scan_source("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn pragmas_suppress_and_malformed_ones_report() {
        let src = "
            fn f(m: &HashMap<u32, u32>) -> u32 {
                // gfs-lint: allow(det-iter, \"max over u64s is order-free\")
                let a: u32 = m.values().copied().max().unwrap_or(0);
                let b: u32 = m.values().sum(); // gfs-lint: allow(det-iter, \"sum of u32s is order-free\")
                // gfs-lint: allow(det-iter)
                // gfs-lint: allow(not-a-rule, \"x\")
                a + b
            }
        ";
        let out = scan_source("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == RuleId::BadPragma));
    }
}
