#!/bin/sh
# Full verification: vet, build, race-enabled tests, a flake slice, the
# wire-codec fuzz smoke and the bench/ smoke test. The daemon smokes
# (iftttd with the SLO tier and push, a 4-node cluster, kill -9 and WAL
# restart) are tier-1 tests in cmd/iftttd. Tier-1 (ROADMAP.md) is the
# build+test subset; this script is the pre-merge superset. Performance is measured by bench/
# (bash bench/run.sh), not here.
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt -l .'
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "verify: not gofmt-clean: $UNFORMATTED" >&2
    exit 1
fi

echo '== go vet ./...'
go vet ./...

echo '== go build ./...'
go build ./...

echo '== go test -race ./...'
go test -race ./...

# A slice of `make flake` (the whole of it is nightly CI): the clock the
# scheduler stands on, the timer-driven hand-off tests, and the recovery
# determinism test that was tier-1's flake until it was pinned to one
# shard x one worker (DESIGN.md, "Scheduler architecture", Determinism).
echo '== flake pass: simtime, scheduler hand-off, recovery determinism (-race, repeated)'
go test -race -count=20 ./internal/simtime
go test -race -count=20 -run 'TestSchedulerActorsPerDuePoll|TestPollHeapRandomised|TestLeaveLastPendingPollQuiesces|TestRemovedAfterAdmissionRefundsBudget' ./internal/engine
go test -race -count=50 -run 'TestStoreRecoveryDeterministic' ./internal/durable

# A timer firing sweeps every shard due at its instant, in shard order,
# and further workers start from a shard's spare timer once the running
# ones block: the timeline and tie order those keep, and the golden
# whose ties the sweep decides.
echo '== scheduler sweep and spare workers (-race, repeated)'
go test -race -count=5 -run 'Scheduler|Spare|Sweep|Golden/adaptive_pareto$' ./internal/engine ./internal/core ./internal/simtime

# Observability work happens only for an observer and the request
# scratch rewrites only what changed: observing must change nothing,
# exec IDs stay unique across shards, a reused scratch builds what a
# fresh one builds, and a pooled decoder keeps bounded members.
echo '== observation, exec IDs and request scratch (-race, repeated)'
go test -race -count=3 -run 'Observ|ExecID|Scratch|Decoder' ./internal/engine ./internal/httpx

# The residency and allocation guards skip under -race (instrumentation
# changes object sizes and counts), so the suite pass above never ran
# them: what a silent subscription keeps on the heap, and the cluster
# router per applet, what an empty poll, a hot poll and an action
# allocate, what a routed push batch allocates, what the client sends
# a request with, what the WAL codec and the event scanner allocate,
# and what a subscription's gap RNG costs.
echo '== residency and allocation guards (race off)'
go test -count=1 -run 'ResidentBytesPerApplet|Allocs' ./internal/engine ./internal/httpx ./internal/durable ./internal/proto ./internal/stats ./internal/cluster

# The kill-and-rebalance soak is the cluster tier's handoff invariant
# (no applet+event pair executes twice, none lost) under -race with
# polls, pushes, node death, and snapshot migration racing. It already
# ran inside `go test -race ./...` above; -count=2 here re-runs it with
# a fresh schedule so a lucky interleaving in the suite pass does not
# mask a handoff race.
echo '== cluster kill-and-rebalance soak (-race, 4 nodes)'
go test -race -count=2 -run 'TestClusterKillAndRebalance' ./internal/cluster/

# The wire codec is held to the decoder it replaced by two differential
# fuzz targets (internal/proto/fuzz_test.go); ten seconds each is a smoke
# pass over the seed corpus plus whatever the mutator finds from it.
echo '== wire codec differential fuzz (2 x 10s)'
go test -run '^$' -fuzz '^FuzzPollResponseDecode$' -fuzztime=10s ./internal/proto/
go test -run '^$' -fuzz '^FuzzPushBatchDecode$' -fuzztime=10s ./internal/proto/

# bench/ is a module of its own, so `go test ./...` above never reaches
# it. Its smoke test runs every benchmark workload at 1/100 size through
# the engine's public surface with the exactly-once audit on: a decoder
# semantics or public-API break fails here, not at the next benchmark run.
#
# One P and no background GC, because TestSeedReproduces wants two
# same-seed runs to agree on allocs_per_op within 1 % and bench/ counts
# allocations with metrics.Read, which leaves out what each P has taken
# from the spans it currently holds (a span is counted when it is handed
# back, at a refill or a GC). Between same-seed smoke-size poll_hot runs
# on this 2-core box that instrument alone spreads 700–1700 objects —
# over 1 % of the 51 K objects the window allocates (at the parent
# commit, 277 K objects, the test already failed 5 runs in 70 the same
# way) — while the exact count (runtime.ReadMemStats) repeats to 0.3 %,
# and to within ten objects under one P. Pinned, the instrument repeats
# to 0.1 % and the test checks the engine again; concurrency is the race
# suite's to cover. Numbers: EXPERIMENTS.md, "Smoke-test repeatability".
#
# TestSeedReproduces runs first, in a process of its own, and gates like
# the rest. Pinning removes the spread between Ps; what is left is where
# the window's edges fall in the spans the one P holds, up to +-350
# objects. Same-seed runs allocate the same objects in the same order,
# so in a fresh process the edges fall alike and the counter repeats to
# 0.05 % (13.492-13.493 then 13.485-13.487 allocs/op, 0 failures in 82
# runs). After the real-clock smoke workloads have left the spans at a
# wall-clock-dependent fill they do not, and +-350 is 2.5 % of the 25 K
# objects a smoke-size poll_hot window allocates since PR 13 (it was
# 0.5 % of 73 K): in the suite's order the 1 % band trips one run in
# four, on the counter, not on the engine (EXPERIMENTS.md, PR 13).
#
# Since PR 16 this step is red more often than green, and it still gates:
# 12 of 20 invocations fail, the two same-seed poll_hot runs reading e.g.
# 6.056 then 6.20 allocs/op while the exact count (runtime.ReadMemStats
# at the window's edges) is 10 399 or 10 400 objects in every run. What
# the counter leaves out is, per size class, what the P took from its
# current span. A smoke window now allocates 1 205 objects in the 16-byte
# class (the tiny blocks behind event IDs) where the parent allocated
# 5 756, and when it opens that class has 1 800-3 500 free slots in five
# to ten nearly empty spans pinned by process-lifetime strings. The
# parent's window used those up in both runs, after which the uncounted
# rest is (allocations + live objects) mod 512, the same twice; 1 205
# allocations end somewhere inside them, up to 512 objects (6 %) apart.
# No other class differs. Nothing an engine in the process does moves
# that: with the request and decoder pools owned per client and per
# engine it is 12 of 20 again. The fix is in bench/ - exact counters at
# the window's edges, or an absolute band - which a change that claims a
# gain may not touch: ROADMAP item 1(a), EXPERIMENTS.md "PR 16". What an
# empty poll, a hot poll and an action allocate is pinned exactly by the
# guards above (testing.AllocsPerRun).
# Compile and vet bench/ on its own first, so a break of the API it
# drives is reported as such and not hidden by the smoke's own failures.
echo '== go -C bench vet ./...'
go -C bench vet ./...

echo '== benchmark smoke test (go -C bench test ./...)'
GOMAXPROCS=1 GOGC=off go -C bench test -run '^TestSeedReproduces$' ./...
GOMAXPROCS=1 GOGC=off go -C bench test -skip '^TestSeedReproduces$' ./...

echo 'verify: OK'
