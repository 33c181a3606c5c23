#!/usr/bin/env bash
# The full benchmark: all five workloads end to end, then traced.
#
#   bash bench/run.sh [--seed N] [--seconds S] [--repeat N]
#
# --repeat N runs N sets of the same code with the same seed and prints,
# for every end-to-end metric and workload, how far apart the sets read
# against that metric's bound in BENCHMARK.json; it exits
# non-zero when a bound is exceeded or any run fails its checks. Results
# go to bench/out/set<k>/ (git-ignored). Run it from the repository root.
#
# bench/ is a module of its own, so the root `go test ./...` does not
# reach its smoke test; this script runs it first.
set -euo pipefail

seed=1 seconds=15 repeat=1
while [[ $# -gt 0 ]]; do
	case $1 in
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--repeat) repeat=$2 ;;
	*)
		echo "usage: bench/run.sh [--seed N] [--seconds S] [--repeat N]" >&2
		exit 2
		;;
	esac
	shift 2
done

here=$(dirname "$0")
go -C "$here" test ./...
workloads=(poll_idle poll_hot push_storm churn_recover cluster_failover)
status=0 sets=()
for ((k = 1; k <= repeat; k++)); do
	dir=bench/out/set$k
	mkdir -p "$dir"
	sets+=("$dir")
	for trace in 0 1; do
		for w in "${workloads[@]}"; do
			echo "== set $k: $w trace=$trace" >&2
			log=$dir/$w.trace$trace.txt
			bash "$here/bench.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$log" || status=1
			sed '$d' "$log" # the report; the last line is the JSON result object
			tail -n 1 "$log" >"$dir/$w.trace$trace.json"
		done
	done
done

bench/out/_build/bench -compare BENCHMARK.json "${sets[@]}" || status=1
exit $status
