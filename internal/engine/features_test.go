package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/proto"
)

func TestPollLimitCapsBatchAndDropsOverflow(t *testing.T) {
	// The protocol returns the NEWEST k buffered events per poll
	// (newest-first order, truncated at the limit). A backlog larger
	// than k within one polling gap therefore loses its oldest events —
	// a real overflow property of the measured design: the batch is
	// capped at k (the §4 clustering) and the excess never executes.
	r := newRig(t, FixedInterval{Interval: time.Minute}, nil)
	r.engine.pollLimit = 4
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(61 * time.Second) // subscription made
		for i := 0; i < 10; i++ {
			r.svc.Publish("fired", map[string]string{"n": string(rune('0' + i))})
		}
		r.clock.Sleep(5 * time.Minute)
		r.engine.Stop()
	})
	var batches []int
	for _, ev := range r.tracesOf(TracePollResult) {
		if ev.N > 0 {
			batches = append(batches, ev.N)
		}
	}
	if len(batches) != 1 || batches[0] != 4 {
		t.Fatalf("batches = %v, want one capped batch of 4", batches)
	}
	acked := r.tracesOf(TraceActionAcked)
	if len(acked) != 4 {
		t.Fatalf("acked %d actions, want 4 (6 oldest dropped past the limit)", len(acked))
	}
}

func TestDefaultLimitCoversFig6Backlog(t *testing.T) {
	// With the production default k=50, a Fig 6-style backlog (events
	// every 5 s within one gap) executes completely as one cluster.
	r := newRig(t, FixedInterval{Interval: 3 * time.Minute}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(3*time.Minute + time.Second)
		for i := 0; i < 30; i++ {
			r.svc.Publish("fired", map[string]string{"n": string(rune('0' + i))})
			r.clock.Sleep(5 * time.Second)
		}
		r.clock.Sleep(10 * time.Minute)
		r.engine.Stop()
	})
	if acked := r.tracesOf(TraceActionAcked); len(acked) != 30 {
		t.Fatalf("acked %d actions, want all 30", len(acked))
	}
}

func TestRemoveDeletesSubscription(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 10 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(11 * time.Second)
		if got := r.svc.Subscriptions("fired"); got != 1 {
			t.Errorf("subscriptions before remove = %d", got)
		}
		r.engine.Remove("a1")
		r.clock.Sleep(5 * time.Second) // DELETE in flight
		if got := r.svc.Subscriptions("fired"); got != 0 {
			t.Errorf("subscriptions after remove = %d; DELETE not sent", got)
		}
		r.engine.Stop()
	})
}

func TestUserScopedRealtimeHint(t *testing.T) {
	// A user_id hint must wake every allow-listed applet of that user.
	r := newRig(t, FixedInterval{Interval: 10 * time.Minute}, map[string]bool{"testsvc": true})
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		other := r.applet("a2")
		other.UserID = "someone-else"
		r.engine.Install(other)
		r.clock.Sleep(10*time.Minute + time.Second) // both subscribed

		before := len(r.tracesOf(TracePollSent))
		r.svc.Publish("fired", map[string]string{"k": "v"})

		// Deliver a user-scoped hint by hand (the SDK sends
		// trigger-identity hints; user hints come from services that
		// track users, like Alexa).
		hintEngineUser(r, "u1")
		r.clock.Sleep(30 * time.Second)
		after := len(r.tracesOf(TracePollSent))
		// Only u1's applet (a1) polls early: exactly one extra poll.
		if after-before != 1 {
			t.Errorf("extra polls after user hint = %d, want 1", after-before)
		}
		r.engine.Stop()
	})
}

// hintEngineUser posts a user-scoped realtime notification to the
// engine host from within the simulation.
func hintEngineUser(r *rig, userID string) {
	client := httpx.NewClient(r.net.Client("svc.sim"), r.clock, 0)
	status, err := client.DoJSON("POST", "http://engine.sim"+proto.RealtimePath,
		proto.RealtimeNotification{Data: []proto.RealtimeHint{{UserID: userID}}}, nil)
	if err != nil || status != 200 {
		panic("hint failed")
	}
}

func TestEngineScalesToManyApplets(t *testing.T) {
	// 200 applets with independent polling loops on one engine: every
	// subscription receives the broadcast event and executes exactly
	// once.
	r := newRig(t, NewPaperPollModel(), nil)
	const n = 200
	r.clock.Run(func() {
		for i := 0; i < n; i++ {
			if err := r.engine.Install(r.applet(fmt.Sprintf("many-%03d", i))); err != nil {
				t.Errorf("install %d: %v", i, err)
				return
			}
		}
		// One full maximal gap so every applet has subscribed.
		r.clock.Sleep(16 * time.Minute)
		if got := r.svc.Subscriptions("fired"); got != n {
			t.Errorf("subscriptions = %d, want %d", got, n)
		}
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(20 * time.Minute)
		r.engine.Stop()
	})
	acked := r.tracesOf(TraceActionAcked)
	if len(acked) != n {
		t.Fatalf("acked = %d, want %d", len(acked), n)
	}
	// Every applet executed exactly once.
	per := map[string]int{}
	for _, ev := range acked {
		per[ev.AppletID]++
	}
	for id, c := range per {
		if c != 1 {
			t.Fatalf("applet %s executed %d times", id, c)
		}
	}
}

func TestEngineStatsCounters(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("s1"))
		r.clock.Sleep(6 * time.Second)
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(30 * time.Second)

		// Read the counters over the HTTP surface, as an operator would.
		client := httpx.NewClient(r.net.Client("ops.sim"), r.clock, 0)
		var st Stats
		status, err := client.DoJSON("GET", "http://engine.sim/v1/stats", nil, &st)
		if err != nil || status != 200 {
			t.Errorf("stats endpoint: %d %v", status, err)
		}
		if st.Applets != 1 || st.Polls < 5 || st.EventsReceived != 1 || st.ActionsOK != 1 {
			t.Errorf("stats = %+v", st)
		}
		r.engine.Stop()
	})
	if st := r.engine.Stats(); st.PollFailures != 0 || st.ActionsFailed != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
}
