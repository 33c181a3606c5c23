package core

import (
	"testing"
	"time"
)

// A shrunk kill-and-rebalance run: 4 nodes, a node death at
// mid-horizon, coordinator-driven recovery. cmd/report runs the study
// at its full defaults.
func TestRunClusterChaosSmall(t *testing.T) {
	res, err := RunClusterChaos(ClusterChaosConfig{
		Seed: 7, Subs: 2000, Hot: 200,
		BudgetQPS: 20, Horizon: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicates != 0 {
		t.Errorf("%d applet+event pairs executed more than once across the handoff", res.Duplicates)
	}
	if res.Lost != 0 {
		t.Errorf("%d due executions lost", res.Lost)
	}
	if res.Executed == 0 {
		t.Fatal("nothing executed")
	}
	if res.Moves == 0 || res.VictimSubs == 0 {
		t.Errorf("no migration happened: moves=%d victimSubs=%d", res.Moves, res.VictimSubs)
	}
	if res.NodesAlive != 3 {
		t.Errorf("nodes alive = %d, want 3", res.NodesAlive)
	}
	if res.AggregateQPS > res.Cfg.BudgetQPS*1.1 {
		t.Errorf("aggregate poll rate %.1f exceeds budget %g", res.AggregateQPS, res.Cfg.BudgetQPS)
	}
	if res.SteadyP50 <= 0 {
		t.Errorf("no steady-state T2A measured")
	}
	if res.RecoverySeconds > 300 {
		t.Errorf("T2A recovery took %.0fs after the kill, want ≤ 300s", res.RecoverySeconds)
	}
	if s := FormatClusterChaos(res); s == "" {
		t.Error("empty report")
	}
	t.Logf("executed %d pairs, victim %s (%d subs), moves %d, parked %d, steady p50 %.2fs peak %.2fs recovery %.0fs, qps %.1f/%g",
		res.Executed, res.VictimNode, res.VictimSubs, res.Moves, res.ParkedOps,
		res.SteadyP50, res.PeakP50, res.RecoverySeconds, res.AggregateQPS, res.Cfg.BudgetQPS)
}
