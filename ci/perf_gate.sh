#!/usr/bin/env sh
# Perf- and quality-regression gates. Run from the repo root after a
# bench run has produced fresh BENCH_throughput.json and
# BENCH_quality.json documents:
#
#   sh ci/perf_gate.sh [baseline] [current]
#
# First compares the fresh throughput document against the committed
# baseline (ci/perf_baseline.json): exits non-zero if any scenario's
# throughput drops more than 25%, any stage's p99 more than doubles, or
# any scenario's queue_wait p50 exceeds the absolute 5 ms ceiling
# (PERF_GATE_MAX_QW_P50_NS overrides; 0 disables).
# Then compares the fresh quality document against
# ci/quality_baseline.json: exits non-zero if any sufficiently-sampled
# scenario's live F1 drops more than 10 points below baseline, or the
# live F1 disagrees with the offline eval F1 beyond its own confidence
# interval. Finally compares the fresh subscription-aggregation document
# (BENCH_subindex.json) against ci/subindex_baseline.json: exits non-zero
# if the million-subscriber population shrank, its hash-consed entry
# count drifted, its throughput dropped more than 25%, or the
# large/small throughput ratio fell below the absolute 0.5 floor
# (SUBINDEX_GATE_MAX_DROP / SUBINDEX_GATE_MIN_RATIO override).
# Last come the two self-contained overhead gates. Both run on one
# shared harness (crates/bench/src/harness.rs): the seed_exact_broadcast
# workload (8 subscriptions x 128 events, tiny eval config) with a
# warm-up round and a paced publish/flush loop; an interleaved off/on
# A/B that keeps each side's best of N trials and re-measures a pass
# over the ceiling, keeping the lowest overhead of at most three passes;
# and a steady-state allocation window counted through
# tep_bench::alloc::count_window. Thresholds are the code defaults of
# each gate's config, overridable by the environment variables below.
#
# probe obs-gate: the flight recorder at its production defaults must
# stay within 1% of recorder-off throughput, both on the exact workload
# and on its thematic twin (a thematic_cached matcher on the same inputs
# tagged one term per domain), allocate nothing across 256
# forced frame ticks, record frames, and freeze well-formed diagnostic
# bundles for an injected worker panic and a forced Critical load state.
# It writes BENCH_obsgate.json and the chaos bundle
# BENCH_diag_bundle.json (OBS_GATE_MAX_OVERHEAD /
# OBS_GATE_MAX_STEADY_ALLOCS / OBS_GATE_TRIALS override).
#
# probe cost-gate: sampling cost attribution at its default 1-in-64 rate
# must stay within 1% of attribution-off throughput, the k=1 charge path
# may allocate nothing beyond the attribution-off loop, and attributed
# totals scaled by k must reconcile with the global match+deliver stage
# histograms within 35% (exactly at k=1). It writes BENCH_costs.json
# (COST_GATE_MAX_OVERHEAD / COST_GATE_MAX_EXTRA_ALLOCS /
# COST_GATE_MAX_RECONCILE_ERROR / COST_GATE_TRIALS override).
#
# Thresholds can be loosened for noisy runners via the environment:
#
#   PERF_GATE_MAX_DROP=0.40 PERF_GATE_MAX_P99_GROWTH=3.0 \
#   QUALITY_GATE_MAX_F1_DROP=0.15 QUALITY_GATE_MIN_SAMPLES=150 \
#   SUBINDEX_GATE_MAX_DROP=0.50 OBS_GATE_MAX_OVERHEAD=0.05 \
#   COST_GATE_MAX_OVERHEAD=0.05 \
#       sh ci/perf_gate.sh
#
# To refresh the baselines after an intentional change:
#
#   cargo run -p tep-bench --release --offline --bin probe -- \
#       bench --out ci/perf_baseline.json --prom /dev/null
#   cp BENCH_quality.json ci/quality_baseline.json
#   cp BENCH_subindex.json ci/subindex_baseline.json
set -eu

BASELINE="${1:-ci/perf_baseline.json}"
CURRENT="${2:-BENCH_throughput.json}"
QUALITY_BASELINE="${QUALITY_BASELINE:-ci/quality_baseline.json}"
QUALITY_CURRENT="${QUALITY_CURRENT:-BENCH_quality.json}"
SUBINDEX_BASELINE="${SUBINDEX_BASELINE:-ci/subindex_baseline.json}"
SUBINDEX_CURRENT="${SUBINDEX_CURRENT:-BENCH_subindex.json}"
OBSGATE_OUT="${OBSGATE_OUT:-BENCH_obsgate.json}"
OBSGATE_BUNDLE="${OBSGATE_BUNDLE:-BENCH_diag_bundle.json}"
COSTGATE_OUT="${COSTGATE_OUT:-BENCH_costs.json}"

if [ -x target/release/probe ]; then
    PROBE=target/release/probe
else
    PROBE="cargo run -p tep-bench --release --offline --bin probe --"
fi

$PROBE perf-gate --baseline "$BASELINE" --current "$CURRENT"
$PROBE quality-gate --baseline "$QUALITY_BASELINE" --current "$QUALITY_CURRENT"
$PROBE subindex-gate --baseline "$SUBINDEX_BASELINE" --current "$SUBINDEX_CURRENT"
$PROBE obs-gate --out "$OBSGATE_OUT" --bundle "$OBSGATE_BUNDLE"
$PROBE cost-gate --out "$COSTGATE_OUT"
