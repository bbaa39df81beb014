#!/usr/bin/env sh
# Smoke run of the repository benchmark (broker_bench). Run from the repo
# root:
#
#   sh ci/broker_bench_smoke.sh
#
# Runs every gated workload for two seconds, untraced and traced, plus
# theme_churn untraced: the one workload that writes to the subscription
# index while events flow, so it exercises candidate-plan invalidation
# end to end. Fails unless each run's last line reports "correct": true.
# Timings are not checked here: the bounds in BENCHMARK.json are for
# alternating-pair comparisons on one machine, not for a single short run.
set -eu

smoke() {
    echo "== broker_bench --workload $1 --trace $2 =="
    last=$(cargo run --release --offline --quiet \
        --manifest-path broker_bench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 2 --trace "$2" | tail -n 1)
    case "$last" in
        *'"correct": true'*) echo "correct" ;;
        *)
            echo "broker_bench $1 --trace $2 is not correct:" >&2
            echo "$last" >&2
            exit 1
            ;;
    esac
}

for workload in thematic_broadcast exact_fanout; do
    for trace in 0 1; do
        smoke "$workload" "$trace"
    done
done
smoke theme_churn 0
