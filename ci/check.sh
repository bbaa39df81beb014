#!/usr/bin/env sh
# Repository quality gate. Run from the repo root:
#
#   sh ci/check.sh
#
# Mirrors .github/workflows/ci.yml so the gate is reproducible offline.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (rustdoc -D warnings)"
# Catches intra-doc links left dangling when an item is removed or
# made private.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> channel tests, release mode"
# The optimiser orders the channel's parked-waiter bookkeeping
# differently from a debug build; the lost-wakeup stress test must pass
# under both.
cargo test -p crossbeam --release --offline -q

echo "==> dispatch properties, release mode, 512 cases"
# Routing, plan-cache and observers-on == observers-off properties (with
# seeded matcher panics) at 8x the default case count.
PROPTEST_CASES=512 cargo test -p tep --release --offline --test routing_equivalence -q

echo "==> broker_bench: fmt --check, clippy -D warnings, release build"
# The benchmark is a Cargo workspace of its own, so the workspace-wide
# steps above never see it.
cargo fmt --manifest-path broker_bench/Cargo.toml -- --check
cargo clippy --manifest-path broker_bench/Cargo.toml --all-targets --offline -- -D warnings
cargo build --manifest-path broker_bench/Cargo.toml --release --offline

echo "==> broker_bench smoke (every gated workload, --trace 0 and 1)"
sh ci/broker_bench_smoke.sh

echo "==> chaos seed matrix"
# The chaos suite precomputes exact expectations from the fault seed, so
# any seed must pass; sweep a few beyond the defaults.
for seed in 0xC4A05 0xA11CE 0xF00D5; do
    echo "== TEP_CHAOS_SEED=$seed =="
    TEP_CHAOS_SEED=$seed cargo test -p tep --test broker_chaos --offline -q
done

echo "==> bench smoke (BENCH_throughput.json + BENCH_metrics.prom + alloc/explain/span dumps)"
cargo run -p tep-bench --release --offline --bin probe -- \
    bench --out BENCH_throughput.json --prom BENCH_metrics.prom --alloc

echo "==> perf gate (vs ci/perf_baseline.json)"
# CI shared runners are noisy; the committed thresholds assume bare
# metal, so give the shared-runner path extra headroom by default.
PERF_GATE_MAX_DROP="${PERF_GATE_MAX_DROP:-0.25}" \
PERF_GATE_MAX_P99_GROWTH="${PERF_GATE_MAX_P99_GROWTH:-2.0}" \
SUBINDEX_GATE_MIN_RATIO="${SUBINDEX_GATE_MIN_RATIO:-0.30}" \
    sh ci/perf_gate.sh

echo "All checks passed."
