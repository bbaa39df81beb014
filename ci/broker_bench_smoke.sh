#!/usr/bin/env sh
# Smoke run of the repository benchmark (broker_bench). Run from the repo
# root:
#
#   sh ci/broker_bench_smoke.sh
#
# Runs every gated workload for two seconds, untraced and traced, and
# fails unless each run's last line reports "correct": true. Timings are
# not checked here: the bounds in BENCHMARK.json are for alternating-pair
# comparisons on one machine, not for a single short run.
set -eu

for workload in thematic_broadcast exact_fanout; do
    for trace in 0 1; do
        echo "== broker_bench --workload $workload --trace $trace =="
        last=$(cargo run --release --offline --quiet \
            --manifest-path broker_bench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tail -n 1)
        case "$last" in
            *'"correct": true'*) echo "correct" ;;
            *)
                echo "broker_bench $workload --trace $trace is not correct:" >&2
                echo "$last" >&2
                exit 1
                ;;
        esac
    done
done
