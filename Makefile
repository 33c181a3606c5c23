GO ?= go

.PHONY: build test race flake residency bench verify report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flake hunt: the concurrency-heavy packages twenty times over under
# -race (the engine alone is ~15 min of that, hence the timeout). A test
# that fails here once is a bug in the system or in the claim it makes;
# CI runs this nightly.
flake:
	$(GO) test -race -count=20 -timeout 60m ./internal/simtime ./internal/engine ./internal/durable ./internal/cluster ./internal/ingest

# Where a silent subscription's bytes are: the population of
# TestResidentBytesPerApplet (20K bench-shaped applets, each polled once)
# with every allocation profiled, B/applet and objects/applet from the
# test, then the live heap by allocation site. EXPERIMENTS.md records
# this table before and after a change to what is resident.
residency:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	$(GO) test -c -o "$$out/engine.test" ./internal/engine && \
	(cd internal/engine && "$$out/engine.test" -test.run '^TestResidentBytesPerApplet$$' -test.v \
		-test.memprofile "$$out/heap.pprof" -test.memprofilerate 1 | grep -e 'resident per applet' -e '^--- ' -e '^FAIL') && \
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=25 "$$out/engine.test" "$$out/heap.pprof" 2>/dev/null

# Short pass over the engine-scale benchmarks (scheduler regressions).
bench:
	$(GO) test -run '^$$' -bench 'EngineScaleInstall|EngineScale100K|HintRouting|EngineEventThroughput|EngineChaosResilience' -benchtime 1x .

# Full figure/table benchmark suite.
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Pre-merge superset: vet + build + race tests + scheduler benches.
verify:
	sh scripts/verify.sh

# Regenerate EXPERIMENTS.md from the calibrated models.
report:
	$(GO) run ./cmd/report -out EXPERIMENTS.md
