package engine

import (
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/stats"
)

// postHints POSTs a realtime notification straight at the engine's
// handler, bypassing the simulated network (hooks in tests sometimes
// need to fire a hint at an exact instant).
func (r *rig) postHints(t *testing.T, body string) int {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/notifications", strings.NewReader(body))
	w := httptest.NewRecorder()
	r.engine.Handler().ServeHTTP(w, req)
	return w.Code
}

func TestHintUnmatchedIdentityStillCounted(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true})
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		if code := r.postHints(t, `{"data":[{"trigger_identity":"no-such-identity"},{"user_id":"nobody"}]}`); code != 200 {
			t.Fatalf("notification rejected: %d", code)
		}
		r.engine.Stop()
	})
	hints := r.tracesOf(TraceHintReceived)
	if len(hints) != 2 {
		t.Fatalf("traced %d hints, want 2 (unmatched hints must still be counted)", len(hints))
	}
	for _, ev := range hints {
		if ev.N != 0 || ev.AppletID != "" {
			t.Errorf("unmatched hint traced as matched: N=%d applet=%q", ev.N, ev.AppletID)
		}
	}
	if got := r.engine.Stats().HintsReceived; got != 2 {
		t.Errorf("HintsReceived = %d, want 2", got)
	}
}

func TestHintCountedOncePerNotificationEntry(t *testing.T) {
	// One user hint fanning out to many applets is one hint, not many.
	r := newRig(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true})
	r.clock.Run(func() {
		for _, id := range []string{"a1", "a2", "a3"} {
			r.engine.Install(r.applet(id))
		}
		if code := r.postHints(t, `{"data":[{"user_id":"u1"}]}`); code != 200 {
			t.Fatalf("notification rejected: %d", code)
		}
		r.engine.Stop()
	})
	hints := r.tracesOf(TraceHintReceived)
	if len(hints) != 1 {
		t.Fatalf("traced %d hints, want exactly 1", len(hints))
	}
	if hints[0].N != 3 {
		t.Errorf("hint matched N=%d applets, want 3", hints[0].N)
	}
	if got := r.engine.Stats().HintsReceived; got != 1 {
		t.Errorf("HintsReceived = %d, want 1", got)
	}
}

func TestHintForAppletRemovedMidFlight(t *testing.T) {
	// A hint whose applet is removed between notification and the
	// delayed poke must neither panic nor provoke a poll.
	r := newRig(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true})
	a := r.applet("a1")
	identity := a.TriggerIdentity()
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(time.Second) // first poll done
		polls := len(r.tracesOf(TracePollSent))

		// Hint lands, then the applet is removed before the realtime
		// delay elapses and the poke fires.
		if code := r.postHints(t, `{"data":[{"trigger_identity":"`+identity+`"}]}`); code != 200 {
			t.Fatalf("notification rejected: %d", code)
		}
		r.engine.Remove("a1")
		r.clock.Sleep(time.Minute)
		if after := len(r.tracesOf(TracePollSent)); after != polls {
			t.Errorf("removed applet polled by stale poke: %d → %d", polls, after)
		}

		// And the reverse race: removal first, hint after. The hint is
		// still acknowledged and counted, with no target.
		if code := r.postHints(t, `{"data":[{"trigger_identity":"`+identity+`"}]}`); code != 200 {
			t.Fatalf("post-removal notification rejected: %d", code)
		}
		r.clock.Sleep(time.Minute)
		if after := len(r.tracesOf(TracePollSent)); after != polls {
			t.Errorf("hint for removed applet provoked a poll: %d → %d", polls, after)
		}
		r.engine.Stop()
	})
	hints := r.tracesOf(TraceHintReceived)
	if len(hints) != 2 {
		t.Fatalf("traced %d hints, want 2", len(hints))
	}
	if hints[0].N != 1 {
		t.Errorf("pre-removal hint N=%d, want 1", hints[0].N)
	}
	if hints[1].N != 0 {
		t.Errorf("post-removal hint N=%d, want 0", hints[1].N)
	}
	if got := r.engine.Stats().HintsReceived; got != 2 {
		t.Errorf("HintsReceived = %d, want 2", got)
	}
}

func TestHintDroppedWhileAppletMidPoll(t *testing.T) {
	// A poke landing while the applet's poll is in flight is dropped —
	// it must not queue a second immediate poll (old stopper semantics).
	r := newRig(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true})
	// Stretch the network so the first poll's round trip (~10s) outlasts
	// the realtime delay (1.5s): the poke then lands mid-poll.
	r.net.SetDefaultLink(simnet.Link{Latency: stats.Constant(5)})
	a := r.applet("a1")
	identity := a.TriggerIdentity()
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(10 * time.Millisecond)
		r.postHints(t, `{"data":[{"trigger_identity":"`+identity+`"}]}`)
		r.clock.Sleep(30 * time.Minute)
		r.engine.Stop()
	})
	// Exactly one poll: the in-flight one. The poke was dropped and the
	// hour-long gap that follows is untouched.
	if polls := len(r.tracesOf(TracePollSent)); polls != 1 {
		t.Errorf("polls = %d, want 1 (mid-poll poke must be dropped)", polls)
	}
}

// TestUserHintFollowsInstallOrder: a user-scoped hint names the user's
// oldest surviving applet and pokes the user's subscriptions in the
// order their applets were installed, each once, with or without
// coalescing (where a1 and a3 share one). The resolution is repeated,
// so an order taken from map iteration would show.
func TestUserHintFollowsInstallOrder(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		r := newRigCfg(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true},
			func(c *Config) { c.Coalesce = coalesce })
		check := func(ids ...string) bool {
			t.Helper()
			r.engine.mu.Lock()
			var want []*subscription
			for _, id := range ids {
				if sub := r.engine.applets[id].sub; !slices.Contains(want, sub) {
					want = append(want, sub)
				}
			}
			r.engine.mu.Unlock()
			for k := 0; k < 20; k++ {
				targets, first, n := r.engine.userSubscriptions("u1")
				if !slices.Equal(targets, want) || first != ids[0] || n != len(ids) {
					t.Errorf("coalesce=%v: %d subscriptions, first %q, %d applets; want %d, %q, %d in install order",
						coalesce, len(targets), first, n, len(want), ids[0], len(ids))
					return false
				}
			}
			return true
		}
		r.clock.Run(func() {
			defer r.engine.Stop()
			for i, id := range []string{"a1", "a2", "a3"} {
				a := r.applet(id)
				a.Trigger.Fields = map[string]string{"n": strconv.Itoa(i % 2)}
				if err := r.engine.Install(a); err != nil {
					t.Error(err)
					return
				}
			}
			if !check("a1", "a2", "a3") {
				return
			}
			r.postHints(t, `{"data":[{"user_id":"u1"}]}`)
			r.clock.Sleep(time.Minute)
			if err := r.engine.Remove("a1"); err != nil {
				t.Error(err)
				return
			}
			if !check("a2", "a3") {
				return
			}
			r.postHints(t, `{"data":[{"user_id":"u1"}]}`)
			r.clock.Sleep(time.Minute)
		})
		hints := r.tracesOf(TraceHintReceived)
		if len(hints) != 2 || hints[0].AppletID != "a1" || hints[0].N != 3 || hints[1].AppletID != "a2" || hints[1].N != 2 {
			t.Errorf("coalesce=%v: hints traced %+v, want a1 of 3 applets, then a2 of 2", coalesce, hints)
		}
		wantPolls := 3 + 2 // one poll per poked subscription
		if coalesce {
			wantPolls = 2 + 2
		}
		if polls := len(r.tracesOf(TracePollSent)); polls != wantPolls {
			t.Errorf("coalesce=%v: %d polls, want %d (one per subscription a hint poked)", coalesce, polls, wantPolls)
		}
	}
}
