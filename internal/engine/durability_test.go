package engine

import (
	"errors"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
)

// countingDoer wraps a Doer and counts requests by method, with a gate
// the test flips to mark the point after which requests are violations.
type countingDoer struct {
	inner      httpx.Doer
	afterStop  atomic.Bool
	deletes    atomic.Int64
	lateDelete atomic.Int64
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodDelete {
		d.deletes.Add(1)
		if d.afterStop.Load() {
			d.lateDelete.Add(1)
		}
	}
	return d.inner.Do(req)
}

// TestReinstallKeepsDedupWindow is the regression for the reinstall
// amnesia bug: Remove(id) followed by Install of the same applet ID
// used to build a fresh dedupRing, so a buffered event the first
// installation already executed would execute again when the next poll
// re-served it. The coalesced two-member subscription keeps the
// upstream buffer alive across the member churn (no last-member DELETE)
// — the exact shape where re-serving is guaranteed.
func TestReinstallKeepsDedupWindow(t *testing.T) {
	r := newRigCfg(t, FixedInterval{Interval: 5 * time.Second}, nil, func(cfg *Config) {
		cfg.Coalesce = true
	})
	a1, a2 := r.applet("a1"), r.applet("a2")
	r.clock.Run(func() {
		if err := r.engine.Install(a1); err != nil {
			t.Errorf("install a1: %v", err)
		}
		if err := r.engine.Install(a2); err != nil {
			t.Errorf("install a2: %v", err)
		}
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"n": "1"})
		// Both members execute the event once.
		r.clock.Sleep(15 * time.Second)
		r.engine.Remove("a1")
		if err := r.engine.Install(a1); err != nil {
			t.Errorf("reinstall a1: %v", err)
		}
		// Several more polls re-serve the still-buffered event to the
		// subscription; the reinstalled member must not re-execute it.
		r.clock.Sleep(30 * time.Second)
		r.engine.Stop()
	})

	per := map[string]int{}
	for _, ev := range r.tracesOf(TraceActionAcked) {
		per[ev.AppletID+"/"+ev.EventID]++
	}
	if len(per) != 2 {
		t.Fatalf("distinct (applet,event) executions = %d, want 2: %v", len(per), per)
	}
	for k, n := range per {
		if n != 1 {
			t.Errorf("%s executed %d times, want exactly once", k, n)
		}
	}
}

// TestRemoveAfterStopIssuesNoDelete is the regression for the
// Remove/Stop race: a last-member Remove on a stopping (or stopped)
// engine used to spawn the upstream-DELETE actor unconditionally,
// issuing requests against transports that may be mid-teardown and —
// under a simulated clock — leaving an actor behind the test's Run
// section. With the delMu fence no DELETE may be issued once Stop has
// returned.
func TestRemoveAfterStopIssuesNoDelete(t *testing.T) {
	var doer countingDoer
	r := newRigCfg(t, FixedInterval{Interval: 5 * time.Second}, nil, func(cfg *Config) {
		doer.inner = cfg.Doer
		cfg.Doer = &doer
	})
	r.clock.Run(func() {
		for _, id := range []string{"a1", "a2", "a3"} {
			if err := r.engine.Install(r.applet(id)); err != nil {
				t.Errorf("install: %v", err)
			}
		}
		r.clock.Sleep(12 * time.Second)
		r.engine.Stop()
		doer.afterStop.Store(true)
		// Removals after Stop still unindex the applets but must not
		// reach upstream.
		for _, id := range []string{"a1", "a2", "a3"} {
			r.engine.Remove(id)
		}
		// Give any (buggy) spawned actor time to issue its request.
		r.clock.Sleep(time.Minute)
	})
	if n := doer.lateDelete.Load(); n != 0 {
		t.Fatalf("%d upstream DELETEs issued after Stop, want 0", n)
	}
	if got := len(r.engine.Applets()); got != 0 {
		t.Fatalf("applets after removal = %d, want 0", got)
	}
}

// TestRemoveStopRace hammers last-member removals from concurrent
// actors against Stop; run under -race it guards the delMu fence, and
// under the simulated clock it proves the simulation quiesces (Run
// returning is the assertion — a leaked delete actor would trip the
// deadlock detector or hang).
func TestRemoveStopRace(t *testing.T) {
	const n = 60
	var doer countingDoer
	r := newRigCfg(t, FixedInterval{Interval: time.Minute}, nil, func(cfg *Config) {
		doer.inner = cfg.Doer
		cfg.Doer = &doer
	})
	ids := make([]string, n)
	r.clock.Run(func() {
		for i := range ids {
			ids[i] = "a" + string(rune('0'+i/10)) + string(rune('0'+i%10))
			if err := r.engine.Install(r.applet(ids[i])); err != nil {
				t.Errorf("install: %v", err)
			}
		}
		// A bare sync.WaitGroup.Wait would stall the simulated clock —
		// block through a Gate instead, opened by the last worker.
		gate := r.clock.NewGate()
		var left atomic.Int64
		left.Store(4)
		for w := 0; w < 4; w++ {
			r.clock.Go(func() {
				for i := w; i < n; i += 4 {
					r.engine.Remove(ids[i])
					r.clock.Sleep(time.Millisecond)
				}
				if left.Add(-1) == 0 {
					gate.Open()
				}
			})
		}
		r.clock.Sleep(8 * time.Millisecond)
		r.engine.Stop()
		gate.Wait()
		r.clock.Sleep(time.Minute)
	})
	if got := len(r.engine.Applets()); got != 0 {
		t.Fatalf("applets after churn = %d, want 0", got)
	}
}

// TestReplayHoldsPollTimers: a replay window holds the poll timers, so
// an install replayed early in the log cannot poll before the rest of
// the log is applied, however far the clock moves; once the window
// closes the overdue poll runs.
func TestReplayHoldsPollTimers(t *testing.T) {
	r := newRigCfg(t, FixedInterval{Interval: 5 * time.Second}, nil, nil)
	r.clock.Run(func() {
		err := r.engine.Replay(func() error {
			if err := r.engine.Install(r.applet("a1")); err != nil {
				return err
			}
			r.clock.Sleep(time.Minute)
			if n := r.engine.Stats().Polls; n != 0 {
				t.Errorf("%d polls inside the replay window, want 0", n)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		r.clock.Sleep(time.Second)
		if n := r.engine.Stats().Polls; n != 1 {
			t.Errorf("%d polls after the window closed, want 1", n)
		}
		r.engine.Stop()
	})
}

// TestApplyCheckpointReachesRetainedWindow: a replayed checkpoint adds
// its IDs to the member's ring or, once the member is removed (its
// removal raced the execution that journaled the checkpoint), to the
// retained window a reinstall resumes; a repeat changes nothing, and
// outside a replay window the call is refused.
func TestApplyCheckpointReachesRetainedWindow(t *testing.T) {
	r := newRigCfg(t, FixedInterval{Interval: time.Hour}, nil, nil)
	cp := func(ids ...string) Checkpoint {
		return Checkpoint{Key: "k", Members: []MemberEvents{{AppletID: "a1", EventIDs: ids}}}
	}
	if err := r.engine.ApplyCheckpoint(cp("e0")); err == nil {
		t.Fatal("checkpoint applied outside a replay window")
	}
	err := r.engine.Replay(func() error {
		if err := r.engine.Install(r.applet("a1")); err != nil {
			return err
		}
		if err := r.engine.ApplyCheckpoint(cp("e1")); err != nil {
			return err
		}
		if err := r.engine.Remove("a1"); err != nil {
			return err
		}
		if err := r.engine.ApplyCheckpoint(cp("e1", "e2")); err != nil {
			return err
		}
		if err := r.engine.ApplyCheckpoint(cp("e2")); !errors.Is(err, ErrNoChange) {
			t.Errorf("repeated checkpoint = %v, want ErrNoChange", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []RetiredDedup{{AppletID: "a1", SeenEvents: hashIDs([]string{"e1", "e2"})}}
	if got := r.engine.ExportRetiredDedup(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retained windows = %v, want %v", got, want)
	}
	r.engine.Stop()
}
