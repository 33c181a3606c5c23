package engine

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// windowDoer serves, for polls carrying the "win" marker, every event
// available so far (newest first, capped at the protocol's 50) — a
// service that re-serves its whole buffer on every poll, so the
// per-applet dedup rings are the only thing standing between a poll
// and re-execution. That makes dedup-window migration directly
// observable: if a snapshot drops the rings, the target engine's first
// poll re-executes history.
type windowDoer struct {
	clock  simtime.Clock
	start  time.Time
	period time.Duration
}

func (d *windowDoer) Do(req *http.Request) (*http.Response, error) {
	ok := func(body string) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader(body)),
			Header:     make(http.Header),
			Request:    req,
		}, nil
	}
	if req.Body == nil {
		return ok(`{}`)
	}
	raw, _ := io.ReadAll(req.Body)
	if !strings.Contains(string(raw), `"n":"win"`) {
		return ok(`{"data":[]}`)
	}
	avail := int(d.clock.Now().Sub(d.start) / d.period)
	lo := 0
	if avail > 50 {
		lo = avail - 50
	}
	var b strings.Builder
	b.WriteString(`{"data":[`)
	for i := avail - 1; i >= lo; i-- {
		if i < avail-1 {
			b.WriteByte(',')
		}
		ts := d.start.Add(time.Duration(i+1) * d.period).Unix()
		fmt.Fprintf(&b, `{"meta":{"id":"e%06d","timestamp":%d}}`, i, ts)
	}
	b.WriteString(`]}`)
	return ok(b.String())
}

// ackCollector tallies action acks per applet+event across engines.
type ackCollector struct {
	mu    sync.Mutex
	acked map[string]int
}

func (c *ackCollector) observe(ev TraceEvent) {
	if ev.Kind != TraceActionAcked {
		return
	}
	c.mu.Lock()
	if c.acked == nil {
		c.acked = make(map[string]int)
	}
	c.acked[ev.AppletID+"/"+ev.EventID]++
	c.mu.Unlock()
}

func snapshotApplet(id string) Applet {
	return Applet{
		ID:     id,
		UserID: "u1",
		Trigger: ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": "win"},
		},
		Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
	}
}

// TestDetachAttachMovesSubscription is the migration core: a coalesced
// two-member subscription polls on engine A, moves to engine B, and the
// re-served history does not re-execute because the dedup rings
// travelled with it — exactly-once across the handoff.
func TestDetachAttachMovesSubscription(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &windowDoer{clock: clock, start: clock.Now(), period: 10 * time.Second}
	col := &ackCollector{}
	mk := func(label string) *Engine {
		return New(Config{
			Clock: clock, RNG: stats.NewRNG(7).Split(label), Doer: doer,
			Poll: FixedInterval{Interval: 5 * time.Second}, DispatchDelay: -1,
			Coalesce: true, Trace: col.observe,
		})
	}
	a, b := mk("A"), mk("B")
	key := func() string { ap := snapshotApplet("a1"); return ap.CoalescedTriggerIdentity() }()

	clock.Run(func() {
		for _, id := range []string{"a1", "a2"} {
			if err := a.Install(snapshotApplet(id)); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
		clock.Sleep(21 * time.Second) // several polls; ~2 events occur

		snap, err := a.DetachSubscription(key)
		if err != nil {
			t.Fatalf("detach: %v", err)
		}
		if snap == nil {
			t.Fatal("detach returned no snapshot for a live subscription")
		}
		if len(snap.Members) != 2 {
			t.Fatalf("snapshot members = %d, want 2", len(snap.Members))
		}
		for _, m := range snap.Members {
			if len(m.SeenEvents) == 0 {
				t.Errorf("member %s: empty dedup snapshot after polls served events", m.Applet.ID)
			}
		}
		if st := a.Stats(); st.Applets != 0 || st.Subscriptions != 0 {
			t.Errorf("source after detach: applets=%d subs=%d, want 0/0", st.Applets, st.Subscriptions)
		}
		// The source must not execute anything after the detach.
		col.mu.Lock()
		atDetach := len(col.acked)
		col.mu.Unlock()
		clock.Sleep(11 * time.Second)
		col.mu.Lock()
		if got := len(col.acked); got != atDetach {
			t.Errorf("source executed %d new applet+event pairs after detach", got-atDetach)
		}
		col.mu.Unlock()

		if err := b.AttachSubscription(snap); err != nil {
			t.Fatalf("attach: %v", err)
		}
		if st := b.Stats(); st.Applets != 2 || st.Subscriptions != 1 {
			t.Errorf("target after attach: applets=%d subs=%d, want 2/1", st.Applets, st.Subscriptions)
		}
		clock.Sleep(30 * time.Second) // target polls: re-served history + new events
		a.Stop()
		b.Stop()
	})

	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.acked) == 0 {
		t.Fatal("no actions acked at all")
	}
	newOnTarget := 0
	for k, n := range col.acked {
		if n != 1 {
			t.Errorf("%s executed %d times across the move, want exactly once", k, n)
		}
		// Events e000002+ occurred after the detach, so they can only
		// have executed on the target.
		var idx int
		fmt.Sscanf(strings.SplitN(k, "/e", 2)[1], "%d", &idx)
		if idx >= 2 {
			newOnTarget++
		}
	}
	if newOnTarget == 0 {
		t.Error("target engine never executed a post-move event")
	}
}

// TestDetachWaitsForInflightExecution: the claim loop must wait out an
// execution that owns the subscription, mirroring the poll/push
// ownership protocol.
func TestDetachWaitsForInflightExecution(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &windowDoer{clock: clock, start: clock.Now(), period: time.Hour}
	e := New(Config{
		Clock: clock, RNG: stats.NewRNG(3), Doer: doer,
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Coalesce: true,
	})
	key := func() string { ap := snapshotApplet("a1"); return ap.CoalescedTriggerIdentity() }()

	clock.Run(func() {
		if err := e.Install(snapshotApplet("a1")); err != nil {
			t.Fatalf("install: %v", err)
		}
		sh := e.shardFor(key)
		sh.mu.Lock()
		sub := sh.subs[key]
		sub.polling = true // simulate an in-flight execution owning the sub
		sh.mu.Unlock()

		release := clock.Now().Add(55 * time.Millisecond)
		clock.Go(func() {
			clock.Sleep(55 * time.Millisecond)
			sh.mu.Lock()
			sub.polling = false
			sh.mu.Unlock()
		})
		snap, err := e.DetachSubscription(key)
		if err != nil {
			t.Fatalf("detach: %v", err)
		}
		if snap == nil {
			t.Fatal("no snapshot")
		}
		if clock.Now().Before(release) {
			t.Errorf("detach returned at %v, before the in-flight execution released at %v",
				clock.Now(), release)
		}
		e.Stop()
	})
}

// TestDetachFromStoppedEngine: draining a killed node must work — Stop
// halts scheduling but the subscription state stays detachable.
func TestDetachFromStoppedEngine(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &windowDoer{clock: clock, start: clock.Now(), period: 10 * time.Second}
	mk := func(label string) *Engine {
		return New(Config{
			Clock: clock, RNG: stats.NewRNG(5).Split(label), Doer: doer,
			Poll: FixedInterval{Interval: 5 * time.Second}, DispatchDelay: -1, Coalesce: true,
		})
	}
	a, b := mk("A"), mk("B")
	key := func() string { ap := snapshotApplet("a1"); return ap.CoalescedTriggerIdentity() }()

	clock.Run(func() {
		if err := a.Install(snapshotApplet("a1")); err != nil {
			t.Fatalf("install: %v", err)
		}
		clock.Sleep(12 * time.Second)
		a.Stop() // the "killed" node

		snap, err := a.DetachSubscription(key)
		if err != nil {
			t.Fatalf("detach from stopped engine: %v", err)
		}
		if snap == nil {
			t.Fatal("no snapshot from stopped engine")
		}
		if err := b.AttachSubscription(snap); err != nil {
			t.Fatalf("attach: %v", err)
		}
		if st := b.Stats(); st.Subscriptions != 1 {
			t.Errorf("target subscriptions = %d, want 1", st.Subscriptions)
		}
		b.Stop()
	})
}

// TestAttachRestoresAdaptiveAndBreakerState: the EWMA rate estimate and
// an open breaker must survive the move — a hot identity stays hot, a
// tripped one stays tripped (and settles the breaker gauge on both
// sides).
func TestAttachRestoresAdaptiveAndBreakerState(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &windowDoer{clock: clock, start: clock.Now(), period: time.Hour}
	mk := func(label string) *Engine {
		return New(Config{
			Clock: clock, RNG: stats.NewRNG(9).Split(label), Doer: doer,
			DispatchDelay: -1, Coalesce: true,
			Adaptive: &AdaptiveConfig{FastFloor: 10 * time.Second, SlowCeiling: 15 * time.Minute},
		})
	}
	a, b := mk("A"), mk("B")
	key := func() string { ap := snapshotApplet("a1"); return ap.CoalescedTriggerIdentity() }()

	clock.Run(func() {
		if err := a.Install(snapshotApplet("a1")); err != nil {
			t.Fatalf("install: %v", err)
		}
		sh := a.shardFor(key)
		sh.mu.Lock()
		sub := sh.subs[key]
		sub.rate = 0.25 // hot: four-second period estimate
		sub.rateAt = a.sinceEpoch(clock.Now())
		sub.failStreak = 7
		sub.brState = brOpen
		sh.mu.Unlock()
		a.breakerOpen.Add(1)

		snap, err := a.DetachSubscription(key)
		if err != nil || snap == nil {
			t.Fatalf("detach: snap=%v err=%v", snap, err)
		}
		if !snap.BreakerOpen || snap.FailStreak != 7 || snap.Rate != 0.25 {
			t.Errorf("snapshot state = open=%v streak=%d rate=%g, want open=true/7/0.25",
				snap.BreakerOpen, snap.FailStreak, snap.Rate)
		}
		if g := a.breakerOpen.Load(); g != 0 {
			t.Errorf("source breaker gauge = %d after detach, want 0 (settled)", g)
		}
		if err := b.AttachSubscription(snap); err != nil {
			t.Fatalf("attach: %v", err)
		}
		if g := b.breakerOpen.Load(); g != 1 {
			t.Errorf("target breaker gauge = %d, want 1 (restored open)", g)
		}
		bsh := b.shardFor(key)
		bsh.mu.Lock()
		bsub := bsh.subs[key]
		if bsub.brState != brOpen || bsub.failStreak != 7 || bsub.rate != 0.25 {
			t.Errorf("restored state = br=%v streak=%d rate=%g, want open/7/0.25",
				bsub.brState, bsub.failStreak, bsub.rate)
		}
		bsh.mu.Unlock()
		a.Stop()
		b.Stop()
	})
}

// TestAttachRejectsConflicts: duplicate applet IDs and duplicate
// subscription keys must refuse to attach, leaving the engine clean.
func TestAttachRejectsConflicts(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &windowDoer{clock: clock, start: clock.Now(), period: time.Hour}
	e := New(Config{
		Clock: clock, RNG: stats.NewRNG(4), Doer: doer,
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Coalesce: true,
	})
	clock.Run(func() {
		if err := e.Install(snapshotApplet("a1")); err != nil {
			t.Fatalf("install: %v", err)
		}
		if err := e.AttachSubscription(nil); err == nil {
			t.Error("attach(nil) succeeded")
		}
		if err := e.AttachSubscription(&SubscriptionSnapshot{Key: "k"}); err == nil {
			t.Error("attach with no members succeeded")
		}
		dupApplet := &SubscriptionSnapshot{
			Key:     "other-key",
			Members: []MemberSnapshot{{Applet: snapshotApplet("a1")}},
		}
		if err := e.AttachSubscription(dupApplet); err == nil {
			t.Error("attach with duplicate applet ID succeeded")
		}
		a1 := snapshotApplet("a1")
		dupKey := &SubscriptionSnapshot{
			Key:     a1.CoalescedTriggerIdentity(),
			Members: []MemberSnapshot{{Applet: snapshotApplet("a9")}},
		}
		if err := e.AttachSubscription(dupKey); err == nil {
			t.Error("attach onto an existing subscription key succeeded")
		}
		if st := e.Stats(); st.Applets != 1 || st.Subscriptions != 1 {
			t.Errorf("engine state disturbed by rejected attaches: applets=%d subs=%d",
				st.Applets, st.Subscriptions)
		}
		e.Stop()
	})
}
