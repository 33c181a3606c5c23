package core

import (
	"testing"
	"time"
)

// A shrunk A/B run: hot demand (50 events/30s ≈ 1.7 QPS) oversubscribes
// the 1 QPS budget, so the poll arm starves while the push arm delivers
// at ingress speed. cmd/report runs the study at its full defaults.
func TestRunPushVsPollSmall(t *testing.T) {
	res, err := RunPushVsPoll(PushVsPollConfig{
		Seed: 7, Subs: 500, Hot: 50,
		HotPeriod: 30 * time.Second, BudgetQPS: 1,
		Horizon: 20 * time.Minute, IngressQueue: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Poll.Events == 0 || res.Push.Events == 0 {
		t.Fatalf("empty arms: poll %d push %d events", res.Poll.Events, res.Push.Events)
	}
	if res.Push.PushShare < 0.9 {
		t.Errorf("push share = %.2f, want ≥0.9 (push should win nearly every event)", res.Push.PushShare)
	}
	if res.Poll.PushShare != 0 {
		t.Errorf("poll arm has push share %.2f", res.Poll.PushShare)
	}
	if sp := res.Speedup(); sp < 2 {
		t.Errorf("speedup = %.1fx (poll p50 %.1fs, push p50 %.1fs), want ≥2x even shrunk",
			sp, res.Poll.P50, res.Push.P50)
	}
	if s := FormatPushVsPoll(res); s == "" {
		t.Error("empty report")
	}
	t.Logf("poll p50 %.1fs p90 %.1fs (%d events, %.2f qps) | push p50 %.1fs p90 %.1fs share %.2f ingest p50 %.3fs rejected %d | speedup %.1fx",
		res.Poll.P50, res.Poll.P90, res.Poll.Events, res.Poll.MeasuredQPS,
		res.Push.P50, res.Push.P90, res.Push.PushShare, res.Push.IngestP50, res.Push.Rejected,
		res.Speedup())
}
