GO ?= go

.PHONY: build test race flake bench verify report

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
