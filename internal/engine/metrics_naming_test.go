package engine

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestMetricsNamingConvention audits every metric the full stack
// registers — engine scheduler, span histograms, SLO tier, tail store,
// fault injector — against the repo's naming convention via the shared
// obs.LintMetricNames linter (the cluster tier runs the same linter
// over its ifttt_cluster_* family in its own package).
//
// Registering everything at once also re-proves no two subsystems
// collide on a name (the registry panics on duplicates).
func TestMetricsNamingConvention(t *testing.T) {
	reg := obs.NewRegistry()
	clock := simtime.NewReal()
	rng := stats.NewRNG(3)

	inj := faults.New(clock, rng.Split("faults"))
	inj.RegisterMetrics(reg)

	eng := New(Config{
		Clock:         clock,
		RNG:           rng.Split("engine"),
		Doer:          inj.Wrap(stubDoer{}),
		Metrics:       reg,
		Push:          true,
		PollBudgetQPS: 1,
		Adaptive:      &AdaptiveConfig{},
		SLO:           &slo.Config{},
	})
	defer eng.Stop()

	for _, v := range obs.LintMetricNames(reg.Snapshot()) {
		t.Error(v)
	}
}
