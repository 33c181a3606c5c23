package core

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestRunAdaptiveParetoSmall runs a shrunk Pareto sweep and checks the
// study's two structural claims: at a saturating budget the adaptive
// arm delivers materially better hot-event latency for comparable
// spend, and the adaptive arm never spends more than the uniform arm
// (which burns its whole allowance by construction).
func TestRunAdaptiveParetoSmall(t *testing.T) {
	cfg := ParetoConfig{
		Seed:        3,
		Subs:        40,
		Hot:         4,
		HotPeriod:   20 * time.Second,
		ColdPeriod:  time.Hour,
		Budgets:     []float64{0.5, 2},
		Horizon:     40 * time.Minute,
		FastFloor:   5 * time.Second,
		SlowCeiling: 5 * time.Minute,
		HalfLife:    time.Minute,
	}
	res, err := RunAdaptivePareto(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 budgets x 2 arms)", len(res.Points))
	}
	byArm := map[bool]map[float64]ParetoPoint{false: {}, true: {}}
	for _, p := range res.Points {
		if p.Events == 0 {
			t.Errorf("budget %g adaptive=%v measured no events", p.BudgetQPS, p.Adaptive)
		}
		byArm[p.Adaptive][p.BudgetQPS] = p
	}
	for _, qps := range cfg.Budgets {
		u, a := byArm[false][qps], byArm[true][qps]
		// Uniform interval = subs/QPS spends the full budget; adaptive
		// demand is bounded by the same admission controller, so it can
		// never spend more.
		if a.MeasuredQPS > u.MeasuredQPS*1.05 {
			t.Errorf("budget %g: adaptive spent %.2f QPS > uniform %.2f", qps, a.MeasuredQPS, u.MeasuredQPS)
		}
		if a.P50 >= u.P50 {
			t.Errorf("budget %g: adaptive p50 %.1fs not better than uniform %.1fs", qps, a.P50, u.P50)
		}
	}
	// The saturating low budget must show deferrals on at least one arm
	// (0.5 QPS against 40 subs is oversubscribed for uniform's
	// 80-second interval... interval = 40/0.5 = 80s, demand = 0.5 QPS
	// exactly; the adaptive arm's hot demand alone is 4/5s = 0.8 QPS,
	// so its admission controller must defer).
	if p := byArm[true][0.5]; p.Deferred == 0 {
		t.Errorf("adaptive arm at 0.5 QPS: no deferrals despite oversubscribed hot demand")
	}
	// Both arms saturate the 0.5 QPS budget, so the p50 gap above is at
	// matched spend: the measured rates agree within 5 %.
	if u, a := byArm[false][0.5].MeasuredQPS, byArm[true][0.5].MeasuredQPS; math.Abs(u-a)/u > 0.05 {
		t.Errorf("budget 0.5: measured QPS uniform %.3f vs adaptive %.3f, want within 5%%", u, a)
	}

	out := FormatAdaptivePareto(res)
	for _, want := range []string{"Pareto", "| 0.5 | uniform |", "| 2 | adaptive |", "Utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAdaptivePareto missing %q in:\n%s", want, out)
		}
	}
}
