#!/usr/bin/env bash
# One benchmark run: build the bench program if its sources changed, then
# run it with the given arguments. This is BENCHMARK.json's command:
#
#   bash bench/bench.sh --workload poll_hot --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes stays inside the
# checkout, under bench/out/ (git-ignored): the binary and the Go build
# cache in bench/out/_build/ (the go command skips directories named _*,
# so `go test ./...` inside bench/ never walks the cache), trace files
# and scratch data beside them.
set -euo pipefail

root=$PWD
if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench.sh: run from the repository root (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi

build=$root/bench/out/_build
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, module cache, its
# telemetry counters under the user config directory) goes under the
# checkout; no toolchain download, no network.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off

# go build is a no-op when nothing changed; a failed build fails the run.
go build -C bench -o "$build/bench" .

exec "$build/bench" -out "$root/bench/out" "$@"
