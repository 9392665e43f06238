# Developer entry points. `just` (https://github.com/casey/just) or copy the
# recipes by hand — each is a single cargo invocation (or a small loop).

# Build, test, lint, gate — the full CI pipeline.
ci: fmt build test clippy doc lint benchmark-smoke bench-smoke bench-gate lab-smokes examples-smoke

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

# Short-mode micro-bench smoke run (seconds, not minutes).
bench-smoke:
    GFS_BENCH_SHORT=1 GFS_BENCH_TAG=ci-smoke cargo bench -p gfs-bench

# Regression gate over the smoke run: diffs BENCH_*.json against the
# committed BENCH_*.baseline.json with a spread-aware tolerance and
# hard-fails only on >2.5x regressions. Run bench-smoke first.
bench-gate:
    cargo run --release -p gfs-bench --bin bench_gate

# Every lab smoke in one pass, discovered from the bin list — a new
# lab_*.rs bin is picked up automatically, so it cannot silently miss CI
# wiring. Each bin runs its tiny grid with the serial == parallel
# assertion (deterministic aggregation for any thread count).
lab-smokes:
    set -e; for src in crates/bench/src/bin/lab_*.rs; do \
        bin=$(basename "$src" .rs); \
        echo "== $bin"; \
        GFS_LAB_SMOKE=1 GFS_LAB_COMPARE=1 cargo run --release -p gfs-bench --bin "$bin"; \
    done

# Crash-injection sweep on its own: kill live services at every crash
# point of the grid and require bit-identical recovery (also part of
# lab-smokes via bin discovery).
recovery-smoke:
    GFS_LAB_SMOKE=1 GFS_LAB_COMPARE=1 cargo run --release -p gfs-bench --bin lab_recovery

# Examples must keep running as the APIs evolve: drive the quickstart,
# the maintenance-wave walkthrough, the churn-policy comparison, the
# crash-recovery demo and the spot-market walkthrough in release
# (smoke-sized where the example supports it).
examples-smoke:
    cargo run --release --example quickstart
    GFS_WAVE_SMOKE=1 cargo run --release --example maintenance_wave
    GFS_POLICY_SMOKE=1 cargo run --release --example churn_policies
    cargo run --release --example crash_recovery
    GFS_MARKET_SMOKE=1 cargo run --release --example spot_market

# Full benchmark suites; writes BENCH_*.json at the repo root.
bench tag="local":
    GFS_BENCH_TAG={{tag}} cargo bench -p gfs-bench

# Hot-path component breakdown for the forecast training loop.
profile-forecast:
    cargo run --release -p gfs-bench --bin profile_forecast

# Build a bench under the `profiling` profile (release codegen + debug
# info) and run it in full mode — the binary perf/flamegraph should
# attach to. Defaults to the fleet-scale suite.
profile bench="fleet_scale":
    cargo bench -p gfs-bench --bench {{bench}} --profile profiling
