package core

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestRunPerformanceSmall(t *testing.T) {
	res, err := RunPerformance(PerfConfig{
		Seed: 1, Fig4Trials: 3, Fig5Trials: 3, Fig7Trials: 3,
		SeqTriggers: 20, LoopWindow: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7"} {
		if len(res.Fig4[id]) != 3 {
			t.Errorf("Fig4[%s] = %d samples", id, len(res.Fig4[id]))
		}
	}
	for _, sc := range []string{"E1", "E2", "E3"} {
		if len(res.Fig5[sc]) != 3 {
			t.Errorf("Fig5[%s] = %d samples", sc, len(res.Fig5[sc]))
		}
	}
	if len(res.Table5) < 5 {
		t.Errorf("Table5 rows = %d", len(res.Table5))
	}
	if len(res.Fig6.ActionTimes) != 20 {
		t.Errorf("Fig6 actions = %d", len(res.Fig6.ActionTimes))
	}
	if len(res.Fig7.Diff) != 3 {
		t.Errorf("Fig7 trials = %d", len(res.Fig7.Diff))
	}
	if res.ExplicitLoop.Executions < 5 || res.ImplicitLoop.Executions < 5 {
		t.Errorf("loops did not spin: %d / %d",
			res.ExplicitLoop.Executions, res.ImplicitLoop.Executions)
	}

	out := FormatPerf(res)
	for _, want := range []string{"Fig 4", "Fig 5", "Table 5", "Fig 6", "Fig 7", "Infinite loops", "E3"} {
		if !strings.Contains(out, want) {
			t.Errorf("perf report missing %q", want)
		}
	}
}

func TestRunEcosystemSmall(t *testing.T) {
	res := RunEcosystem(2, 0.02)
	if len(res.Table1) != 14 {
		t.Fatalf("Table1 rows = %d", len(res.Table1))
	}
	if res.Table2.Applets < 5000 {
		t.Errorf("applets = %d at scale 0.02", res.Table2.Applets)
	}
	if res.Fig3.Top1Share < 0.5 {
		t.Errorf("top1 share = %.2f", res.Fig3.Top1Share)
	}
	if res.Perm.Connections == 0 {
		t.Error("perm analysis empty")
	}

	out := FormatEco(res)
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Fig 2", "Fig 3", "permission"} {
		if !strings.Contains(out, want) {
			t.Errorf("eco report missing %q", want)
		}
	}
}

func TestRunCrawlStudy(t *testing.T) {
	start := time.Now()
	cs, err := RunCrawlStudy(3, 0.01, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if cs.AppletsCrawled != cs.AppletsTruth {
		t.Errorf("crawl lost applets: %d vs %d", cs.AppletsCrawled, cs.AppletsTruth)
	}
	if cs.Top1Crawled != cs.Top1Truth {
		t.Errorf("crawl-side analysis differs: %.4f vs %.4f", cs.Top1Crawled, cs.Top1Truth)
	}
	out := FormatCrawl(cs, time.Since(start))
	if !strings.Contains(out, "applets recovered") {
		t.Errorf("crawl report malformed:\n%s", out)
	}
}

func TestRunAblationsSmall(t *testing.T) {
	res, err := RunAblations(AblationConfig{Seed: 5, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SmartHot) != 4 || len(res.SmartUniform) != 4 {
		t.Fatalf("smart samples = %d/%d", len(res.SmartHot), len(res.SmartUniform))
	}
	// The smart policy must beat the uniform baseline for the hot
	// applet (33s vs 200s polling interval).
	hotP50 := stats.Percentile(res.SmartHot, 50)
	uniP50 := stats.Percentile(res.SmartUniform, 50)
	if hotP50 >= uniP50 {
		t.Errorf("smart p50 %.1f not better than uniform %.1f", hotP50, uniP50)
	}
	if len(res.PollSweep) != 4 {
		t.Fatalf("sweep points = %d", len(res.PollSweep))
	}
	if res.PollSweep[time.Second] >= res.PollSweep[4*time.Minute] {
		t.Error("sweep not monotone: faster polling should reduce latency")
	}
	localP50 := stats.Percentile(res.LocalT2A, 50)
	if localP50 > 1 {
		t.Errorf("local engine p50 = %.3fs, want milliseconds", localP50)
	}
	if !res.FailoverWorked || res.FailoverTransitions != 3 {
		t.Errorf("failover: worked=%v transitions=%d", res.FailoverWorked, res.FailoverTransitions)
	}

	out := FormatAblations(res)
	for _, want := range []string{"Smart polling", "sweep", "Local vs centralized", "failover"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q", want)
		}
	}
}

func TestWriteFigureCSVs(t *testing.T) {
	perf, err := RunPerformance(PerfConfig{
		Seed: 9, Fig4Trials: 2, Fig5Trials: 2, Fig7Trials: 2,
		SeqTriggers: 10, LoopWindow: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	eco := RunEcosystem(9, 0.01)
	dir := t.TempDir()
	if err := WriteFigureCSVs(dir, perf, eco); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig4_A1.csv", "fig4_A7.csv", "fig5_E3.csv",
		"fig6_actions.csv", "fig6_triggers.csv", "fig7_diff.csv",
		"fig3_addcounts.csv", "fig2_heatmap.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Errorf("%s has %d lines; want header + data", name, lines)
		}
	}
	// CDF files must be ascending in both columns.
	data, _ := os.ReadFile(filepath.Join(dir, "fig4_A1.csv"))
	recs, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, rec := range recs[1:] {
		v, _ := strconv.ParseFloat(rec[1], 64)
		if v <= prev {
			t.Fatalf("CDF not increasing: %v", recs)
		}
		prev = v
	}
	if prev != 1 {
		t.Fatalf("CDF ends at %v, want 1", prev)
	}
}

func TestRunEngineScaleSmall(t *testing.T) {
	r, err := RunEngineScale(ScaleConfig{Seed: 5, Applets: 2000, Virtual: 6 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if r.Polls < 2000 {
		t.Errorf("Polls = %d, want ≥ 2000 (every applet polls once at +5m)", r.Polls)
	}
	if r.Goroutines > 200 {
		t.Errorf("Goroutines = %d, want O(shards+workers)", r.Goroutines)
	}
	if r.InstallsPerSec <= 0 || r.PollsPerSec <= 0 {
		t.Errorf("throughput not measured: installs/s=%.0f polls/s=%.0f",
			r.InstallsPerSec, r.PollsPerSec)
	}
	out := FormatScale(r)
	for _, want := range []string{"sharded scheduler", "goroutine per applet", "2,000"} {
		if !strings.Contains(out, want) {
			t.Errorf("scale report missing %q", want)
		}
	}
}
