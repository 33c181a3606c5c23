package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/service"
)

func TestDedupRingFIFO(t *testing.T) {
	r := newDedupRing(3)
	for _, id := range []string{"a", "b", "c"} {
		if !r.Add(id) {
			t.Fatalf("first Add(%q) reported duplicate", id)
		}
	}
	if r.Add("a") {
		t.Error("remembered ID not deduplicated")
	}
	// "d" evicts "a" (oldest), then "e" evicts "b".
	r.Add("d")
	r.Add("e")
	if !r.Add("a") {
		t.Error("evicted ID should be forgotten (FIFO order)")
	}
	if r.Add("d") || r.Add("e") {
		t.Error("recent IDs evicted out of order")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

// TestDedupRingMemoryBounded is the regression test for the old
// []string FIFO, which re-sliced its backing array on every eviction:
// the array never shrank and eviction was O(window). The ring must keep
// both the buffer and the map at the window size no matter how many
// events stream past.
func TestDedupRingMemoryBounded(t *testing.T) {
	const window = 64
	r := newDedupRing(window)
	for i := 0; i < 100*window; i++ {
		if !r.Add(fmt.Sprintf("ev-%06d", i)) {
			t.Fatalf("distinct ID %d reported duplicate", i)
		}
		if got := cap(r.buf); got > 2*window {
			t.Fatalf("ring storage grew to %d entries after %d adds; want ≤ %d", got, i+1, 2*window)
		}
	}
	if r.Len() != window {
		t.Errorf("Len = %d, want %d", r.Len(), window)
	}
	if got := len(r.seen); got != window {
		t.Errorf("dedup map holds %d entries, want %d", got, window)
	}
	// Only the newest window of IDs is remembered.
	if r.Add(fmt.Sprintf("ev-%06d", 100*window-1)) {
		t.Error("newest ID forgotten")
	}
	if !r.Add("ev-000000") {
		t.Error("ancient ID still remembered; window unbounded")
	}
}

// TestEngineDedupWindowBounded drives the window through the full poll
// path: many more distinct events than the window holds stream past, so the
// ring must evict, yet per-applet memory stays at the window size and —
// because the service's replay depth fits inside the window — every
// event still executes exactly once.
func TestEngineDedupWindowBounded(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.engine.dedupCap = 8
	// Keep the poll replay depth below the dedup window; an event must
	// age out of the service buffer before the ring forgets it.
	r.svc = service.New(service.Config{
		Name: "testsvc", Clock: r.clock, ServiceKey: "k", Retention: 4,
	})
	r.svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
	r.svc.RegisterAction(service.ActionSpec{
		Slug:    "act",
		Execute: func(map[string]string, proto.UserInfo) error { return nil },
	})
	r.net.AddHost("svc.sim", r.svc.Handler())
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(6 * time.Second) // subscription made
		for i := 0; i < 40; i++ {
			r.svc.Publish("fired", map[string]string{"n": fmt.Sprint(i)})
			r.clock.Sleep(5 * time.Second)
		}
		r.engine.mu.Lock()
		ra := r.engine.applets["a1"]
		r.engine.mu.Unlock()
		if got := ra.dedup.Len(); got > 8 {
			t.Errorf("dedup window grew to %d, want ≤ 8", got)
		}
		if got := len(ra.dedup.seen); got > 8 {
			t.Errorf("dedup map grew to %d entries, want ≤ 8", got)
		}
		r.engine.Stop()
	})
	// Every event still executed exactly once: eviction never outpaced
	// the 5 s polling round.
	if acked := len(r.tracesOf(TraceActionAcked)); acked != 40 {
		t.Errorf("acked %d actions, want 40", acked)
	}
}
