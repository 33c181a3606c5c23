#!/bin/sh
# Full verification: vet, build, race-enabled tests, and a short pass
# over the engine-scale benchmarks. Tier-1 (ROADMAP.md) is the
# build+test subset; this script is the pre-merge superset.
set -eu

cd "$(dirname "$0")/.."

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

# The residency and allocation guards skip under -race (instrumentation
# changes object sizes and counts), so the suite pass above never ran
# them: what a silent subscription keeps on the heap, and what an empty
# poll, a hot poll and an action allocate.
echo '== residency and allocation guards (race off)'
go test -count=1 -run 'TestResidentBytesPerApplet|Allocs' ./internal/engine ./internal/httpx

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
echo '== benchmark smoke test (go -C bench test ./...)'
GOMAXPROCS=1 GOGC=off go -C bench test -run '^TestSeedReproduces$' ./...
GOMAXPROCS=1 GOGC=off go -C bench test -skip '^TestSeedReproduces$' ./...

echo '== engine scale benchmarks (short)'
go test -run '^$' -bench 'EngineScaleInstall|EngineScale100K|HintRouting|EngineEventThroughput|EngineChaosResilience' \
    -benchtime 1x .

echo '== iftttop console smoke (iftttd + iftttop --once)'
BIN=$(mktemp -d)
IFTTTD_PID=""
cleanup() {
    [ -n "$IFTTTD_PID" ] && kill "$IFTTTD_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT
go build -o "$BIN/iftttd" ./cmd/iftttd
go build -o "$BIN/iftttop" ./cmd/iftttop
# -push mounts the ingress so the console's push/ingress line and the
# ifttt_ingest_* metrics are exercised by the smoke too.
"$BIN/iftttd" -addr 127.0.0.1:18089 -slo-target 120s -push &
IFTTTD_PID=$!
OK=""
for _ in $(seq 1 50); do
    if "$BIN/iftttop" -once -addr http://127.0.0.1:18089; then
        OK=1
        break
    fi
    sleep 0.2
done
if [ -z "$OK" ]; then
    echo 'verify: iftttop never rendered a frame against iftttd' >&2
    exit 1
fi
kill "$IFTTTD_PID" 2>/dev/null || true
IFTTTD_PID=""

# Same smoke against a 4-node cluster daemon: the console must render
# the per-node rows (GET /v1/cluster) and the aggregate metric mirrors.
echo '== iftttop console smoke (cluster mode, 4 nodes)'
"$BIN/iftttd" -addr 127.0.0.1:18090 -cluster-nodes 4 -push &
IFTTTD_PID=$!
OK=""
for _ in $(seq 1 50); do
    if FRAME=$("$BIN/iftttop" -once -addr http://127.0.0.1:18090); then
        OK=1
        break
    fi
    sleep 0.2
done
if [ -z "$OK" ]; then
    echo 'verify: iftttop never rendered a frame against clustered iftttd' >&2
    exit 1
fi
case $FRAME in
*"cluster 4 nodes"*node3*) ;;
*)
    echo 'verify: cluster frame missing per-node rows' >&2
    printf '%s\n' "$FRAME" >&2
    exit 1
    ;;
esac
kill "$IFTTTD_PID" 2>/dev/null || true
IFTTTD_PID=""

# Durable-store crash smoke: bootstrap applets through -wal-dir, kill -9
# the daemon mid-flight (no clean close, no final snapshot), restart on
# the same directory, and require WAL replay to restore the exact applet
# population with /readyz green. -poll 15m keeps the unreachable dummy
# trigger URLs from opening breakers during the window.
echo '== durable WAL kill -9 + restart smoke (iftttd -wal-dir)'
cat >"$BIN/applets.json" <<'EOF'
[
  {"ID": "smoke-a1", "Name": "smoke 1", "UserID": "u1",
   "Trigger": {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "t1"},
   "Action":  {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "act"}},
  {"ID": "smoke-a2", "Name": "smoke 2", "UserID": "u2",
   "Trigger": {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "t2"},
   "Action":  {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "act"}},
  {"ID": "smoke-a3", "Name": "smoke 3", "UserID": "u3",
   "Trigger": {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "t3"},
   "Action":  {"Service": "svc", "BaseURL": "http://127.0.0.1:1", "Slug": "act"}}
]
EOF
"$BIN/iftttd" -addr 127.0.0.1:18091 -poll 15m \
    -wal-dir "$BIN/wal" -applets "$BIN/applets.json" &
IFTTTD_PID=$!
OK=""
for _ in $(seq 1 50); do
    if curl -fsS http://127.0.0.1:18091/v1/stats 2>/dev/null | grep -q '"applets":3'; then
        OK=1
        break
    fi
    sleep 0.2
done
if [ -z "$OK" ]; then
    echo 'verify: iftttd never reported 3 installed applets' >&2
    exit 1
fi
kill -9 "$IFTTTD_PID"
wait "$IFTTTD_PID" 2>/dev/null || true
IFTTTD_PID=""
# Restart WITHOUT -applets: the population must come back from the WAL.
"$BIN/iftttd" -addr 127.0.0.1:18091 -poll 15m -wal-dir "$BIN/wal" &
IFTTTD_PID=$!
OK=""
for _ in $(seq 1 50); do
    if curl -fsS http://127.0.0.1:18091/v1/stats 2>/dev/null | grep -q '"applets":3'; then
        OK=1
        break
    fi
    sleep 0.2
done
if [ -z "$OK" ]; then
    echo 'verify: restart did not recover 3 applets from the WAL' >&2
    exit 1
fi
READY=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18091/readyz)
if [ "$READY" != 200 ]; then
    echo "verify: /readyz returned $READY after replay" >&2
    exit 1
fi

echo 'verify: OK'
