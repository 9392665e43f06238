# Developer entry points. `just` (https://github.com/casey/just) or copy the
# recipes by hand — each is a single cargo invocation (or a small loop).

# Build, test, lint, smoke — the full CI pipeline.
ci: fmt build test clippy doc lint benchmark-smoke bins examples-smoke portable

# Formatting gate (no diffs tolerated).
fmt:
    cargo fmt --all -- --check

# Release build of the whole workspace.
build:
    cargo build --release --workspace

# Tier-1 test suite.
test:
    cargo test --workspace -q

# Lint with warnings denied (kept at zero).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# API docs with warnings denied: every intra-doc link must resolve, and
# no public doc may link to a private item.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Workspace determinism/golden-pin static analysis (gfs_lint self-scan):
# hard-fails on any finding; a justified exception is a
# `// gfs-lint: allow(rule, "reason")` pragma on its line. Std-only,
# offline, sub-second.
lint:
    cargo run --release -q -p gfs-lint --bin gfs_lint -- check

# The pins on any x86-64, not only the x86-64-v3 of `.cargo/config.toml`:
# baseline x86-64 codegen (no AVX2/FMA) in its own target dir. The tests
# run twice, plainly and with glibc hiding AVX/FMA (libm takes its
# software paths), then `paper_light` runs under the same restriction;
# every pin and the benchmark fingerprint must hold.
portable:
    #!/usr/bin/env bash
    set -euo pipefail
    export RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable
    cargo test --workspace -q
    export GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX
    cargo test --workspace -q
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --workload paper_light

# 1/20-scale smoke of the four `benchmark/` sessions (≈ 5 s): checks the
# output schema against BENCHMARK.json and — the dev profile keeps debug
# assertions on — re-offers every task the scheduling pass skips.
benchmark-smoke:
    cargo test --offline --manifest-path benchmark/Cargo.toml

# The repository benchmark (BENCHMARK.json): no arguments runs all four
# workloads. `just benchmark --workload paper_backlog --trace 1` is the
# full-scale differential of the scheduling pass CI runs: one untraced
# pass (refusal classes on) against one through the tracing proxy, which
# forwards no classes (the exhaustive sweep); fingerprint and every
# `sim.*` must agree or the run exits non-zero. `--workload churn_recover
# --trace 1` is the same differential under the churn-aware policy.
benchmark *args:
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- {{args}}

# Non-test non-blank Rust lines: every `.rs` file under crates/, src/ and
# examples/ outside tests/ and benches/ directories, counting the non-blank
# lines before the file's first column-0 `#[cfg(test)]` (comments count).
loc:
    find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 | xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on && NF { n++ } END { print n }'

# Re-record every golden pin: prints the new non-comment lines of `PINS`,
# sorted. Paste them over the old ones, keeping the `#` provenance
# comments, and commit the re-record on its own with its reason. (`sed`
# drops the progress dots `cargo test -q` leaves before a printed line.)
repin:
    { GFS_PRINT_GOLDEN=1 cargo test --workspace -q -- --nocapture; GFS_PRINT_GOLDEN=1 cargo run --release -q -p gfs-bench --bin lab_fleet; } | sed -E 's/^\.+//' | grep -E '^[a-z0-9_.]+ = ' | LC_ALL=C sort

# Every paper and lab bin (fig*, table*, lab_*) at its default size,
# discovered from the bin list — a new bin is picked up automatically, so
# it cannot silently miss CI wiring. Each grid bin reruns its grid
# serially and asserts byte-identical output; lab_fleet and lab_recovery
# make the same serial == parallel check, and lab_fleet pins its hash.
bins:
    set -e; for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/table*.rs crates/bench/src/bin/lab_*.rs; do \
        bin=$(basename "$src" .rs); \
        echo "== $bin"; \
        cargo run --release -q -p gfs-bench --bin "$bin"; \
    done

# Examples must keep running as the APIs evolve: every example in
# release, discovered from examples/*.rs.
examples-smoke:
    set -e; for src in examples/*.rs; do \
        ex=$(basename "$src" .rs); \
        echo "== $ex"; \
        cargo run --release -q --example "$ex"; \
    done

# Build an experiment bin under the `profiling` profile (release codegen
# + debug info) and run it — the binary perf/flamegraph should attach
# to. Defaults to the sharded fleet-engine run.
profile bin="lab_fleet":
    cargo run --profile profiling -p gfs-bench --bin {{bin}}
