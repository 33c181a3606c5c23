package engine

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// newCoalesceRig is the standard rig with poll coalescing enabled. The
// rig's applets share one trigger configuration and user, so under
// coalescing they all join a single subscription.
func newCoalesceRig(t *testing.T, poll PollPolicy, realtime map[string]bool) *rig {
	t.Helper()
	return newRigCfg(t, poll, realtime, func(cfg *Config) { cfg.Coalesce = true })
}

func ackedByApplet(r *rig) map[string]int {
	out := make(map[string]int)
	for _, ev := range r.tracesOf(TraceActionAcked) {
		out[ev.AppletID]++
	}
	return out
}

func TestCoalescedTriggerIdentity(t *testing.T) {
	base := Applet{
		ID:     "a1",
		UserID: "u1",
		Trigger: ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": "1"},
		},
	}
	same := base
	same.ID = "a2" // different applet, identical trigger + user
	if base.CoalescedTriggerIdentity() != same.CoalescedTriggerIdentity() {
		t.Error("identical trigger configs must share a coalesced identity")
	}
	if base.TriggerIdentity() == same.TriggerIdentity() {
		t.Error("per-applet TriggerIdentity must still differ across applets")
	}
	otherUser := base
	otherUser.UserID = "u2"
	if base.CoalescedTriggerIdentity() == otherUser.CoalescedTriggerIdentity() {
		t.Error("coalescing must not cross users")
	}
	otherFields := base
	otherFields.Trigger.Fields = map[string]string{"n": "2"}
	if base.CoalescedTriggerIdentity() == otherFields.CoalescedTriggerIdentity() {
		t.Error("coalescing must not cross trigger field values")
	}
}

// TestCoalesceSharedTriggerSinglePoll is the tentpole behaviour: three
// applets with identical triggers cost one upstream poll per round, and
// each fresh event fans out to an action per member.
func TestCoalesceSharedTriggerSinglePoll(t *testing.T) {
	r := newCoalesceRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		for _, id := range []string{"a1", "a2", "a3"} {
			if err := r.engine.Install(r.applet(id)); err != nil {
				t.Fatalf("install %s: %v", id, err)
			}
		}
		st := r.engine.Stats()
		if st.Applets != 3 || st.Subscriptions != 1 {
			t.Fatalf("applets=%d subscriptions=%d, want 3 applets on 1 subscription",
				st.Applets, st.Subscriptions)
		}
		r.clock.Sleep(7 * time.Second) // first poll creates the upstream subscription
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(6 * time.Second) // second poll serves the event
		r.engine.Stop()
	})

	if polls := len(r.tracesOf(TracePollSent)); polls != 2 {
		t.Errorf("polls = %d, want 2 (one per round for the whole group)", polls)
	}
	acked := ackedByApplet(r)
	for _, id := range []string{"a1", "a2", "a3"} {
		if acked[id] != 1 {
			t.Errorf("applet %s acked %d actions, want 1", id, acked[id])
		}
	}
	st := r.engine.Stats()
	if st.PollsCoalesced != 4 {
		t.Errorf("PollsCoalesced = %d, want 4 (2 polls × 2 extra members)", st.PollsCoalesced)
	}
	if got := r.svc.Stats().Actions; got != 3 {
		t.Errorf("service executed %d actions, want 3", got)
	}
}

// TestCoalesceHintFiresOnePoll checks that realtime hints — both
// identity- and user-scoped — poke a shared subscription exactly once,
// so a group of applets costs one hinted poll, not one per member.
func TestCoalesceHintFiresOnePoll(t *testing.T) {
	r := newCoalesceRig(t, FixedInterval{Interval: time.Hour}, map[string]bool{"testsvc": true})
	a := r.applet("a1")
	identity := a.CoalescedTriggerIdentity()
	r.clock.Run(func() {
		for _, id := range []string{"a1", "a2", "a3"} {
			r.engine.Install(r.applet(id))
		}
		if code := r.postHints(t, `{"data":[{"trigger_identity":"`+identity+`"}]}`); code != 200 {
			t.Fatalf("identity hint rejected: %d", code)
		}
		r.clock.Sleep(10 * time.Minute)
		if code := r.postHints(t, `{"data":[{"user_id":"u1"}]}`); code != 200 {
			t.Fatalf("user hint rejected: %d", code)
		}
		r.clock.Sleep(10 * time.Minute)
		r.engine.Stop()
	})

	if polls := len(r.tracesOf(TracePollSent)); polls != 2 {
		t.Errorf("polls = %d, want 2 (exactly one per hint, despite 3 members)", polls)
	}
	hints := r.tracesOf(TraceHintReceived)
	if len(hints) != 2 {
		t.Fatalf("traced %d hints, want 2", len(hints))
	}
	for i, ev := range hints {
		if ev.N != 3 {
			t.Errorf("hint %d traced N=%d applets, want 3", i, ev.N)
		}
	}
}

// TestCoalesceJoinLeaveMidPoll pins the membership-snapshot semantics:
// a member that leaves while a poll is in flight still receives that
// poll's dispatches (exactly as an uncoalesced applet removed mid-poll
// did), and a member that joins mid-poll sees nothing until the next
// round — where events still buffered upstream are fresh to it.
func TestCoalesceJoinLeaveMidPoll(t *testing.T) {
	r := newCoalesceRig(t, FixedInterval{Interval: 10 * time.Second}, nil)
	// Stretch the network so a poll's round trip (~10 s) leaves a wide
	// mid-flight window to mutate the membership in.
	r.net.SetDefaultLink(simnet.Link{Latency: stats.Constant(5)})
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.engine.Install(r.applet("a2"))
		// Poll 1 (t≈10–20s) creates the upstream subscription.
		r.clock.Sleep(21 * time.Second)
		r.svc.Publish("fired", map[string]string{"k": "v"})
		// Poll 2 departs at t≈30s with members {a1, a2}; mutate the
		// membership while it is on the wire.
		r.clock.Sleep(11 * time.Second)
		r.engine.Install(r.applet("a3"))
		r.engine.Remove("a2")
		// Let poll 2's fan-out and poll 3 (which re-serves the buffered
		// event to the newly joined a3) complete.
		r.clock.Sleep(2 * time.Minute)
		r.engine.Stop()
	})

	acked := ackedByApplet(r)
	if acked["a1"] != 1 {
		t.Errorf("a1 acked %d actions, want 1", acked["a1"])
	}
	if acked["a2"] != 1 {
		t.Errorf("a2 acked %d actions, want 1 (left mid-poll, still owed the in-flight dispatch)", acked["a2"])
	}
	if acked["a3"] != 1 {
		t.Errorf("a3 acked %d actions, want 1 (joined mid-poll, event fresh on its first round)", acked["a3"])
	}
	st := r.engine.Stats()
	if st.Applets != 2 || st.Subscriptions != 1 {
		t.Errorf("applets=%d subscriptions=%d after churn, want 2 on 1", st.Applets, st.Subscriptions)
	}
}

// freshEventDoer serves every poll one event never served before and
// acknowledges every action; safe for concurrent use.
type freshEventDoer struct{ seq atomic.Int64 }

func (d *freshEventDoer) Do(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	body := `{"data":[{"id":"ok"}]}`
	if !strings.HasPrefix(req.URL.Path, proto.ActionsPath) {
		body = string(append(benchEvent([]byte(`{"data":[`), int(d.seq.Add(1))), "]}"...))
	}
	r := &emptyPollResponse{Response: http.Response{StatusCode: http.StatusOK}}
	r.Reset(body)
	r.Body = r
	return &r.Response, nil
}

// TestCoalesceLeadChurnRace changes a coalesced subscription's lead
// over and over on a real clock while its polls run and journal their
// checkpoints, so the race detector sees the key and blob rendered
// again beside executions that read them.
func TestCoalesceLeadChurnRace(t *testing.T) {
	j := &checkpointJournal{}
	clock := simtime.NewReal()
	e := New(Config{Clock: clock, RNG: stats.NewRNG(1), Doer: &freshEventDoer{},
		Poll: FixedInterval{Interval: time.Millisecond}, DispatchDelay: -1, Shards: 2, Coalesce: true, Journal: j})
	applet := func(i int) Applet {
		a := residentApplet(0)
		a.ID = "m" + strconv.Itoa(i)
		return a
	}
	first := applet(0)
	key := first.CoalescedTriggerIdentity()
	if err := e.Install(first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := e.Install(applet(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Remove("m" + strconv.Itoa(i-1)); err != nil { // the lead
			t.Fatal(err)
		}
		if i%20 == 0 {
			e.ApplyHint(proto.RealtimeHint{TriggerIdentity: key})
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(5 * time.Millisecond)
	e.Stop()
	clock.Wait()
	if st := e.Stats(); st.Applets != 1 || st.Subscriptions != 1 || st.Polls == 0 {
		t.Errorf("stats %+v: want one applet on one subscription, polled", st)
	}
	if j.n == 0 || j.last.Key != key {
		t.Errorf("%d checkpoints, the first under %q, want them under %q", j.n, j.last.Key, key)
	}
}

// TestCoalesceDedupIndependentStaggeredInstalls checks that members
// keep private dedup windows: an event already executed by an early
// member re-serves as fresh — exactly once — to a member that joins
// later, without re-executing for the early one.
func TestCoalesceDedupIndependentStaggeredInstalls(t *testing.T) {
	r := newCoalesceRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(7 * time.Second) // poll 1: subscription made
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(5 * time.Second) // poll 2: a1 executes the event
		r.engine.Install(r.applet("a2"))
		// Several more rounds: the buffered event re-serves every poll,
		// fresh for a2 exactly once, stale for a1 every time.
		r.clock.Sleep(20 * time.Second)
		r.engine.Stop()
	})

	acked := ackedByApplet(r)
	if acked["a1"] != 1 {
		t.Errorf("a1 acked %d actions, want 1 (must not re-execute on a2's join)", acked["a1"])
	}
	if acked["a2"] != 1 {
		t.Errorf("a2 acked %d actions, want 1 (re-served event is fresh for the late joiner once)", acked["a2"])
	}
}

// coalesceScaleApplet maps 50K applets onto 500 shared trigger
// identities: applets i, i+500, i+1000, … share user u{i%500} and
// identical trigger fields, so under coalescing each group of ~100
// polls through one subscription.
func coalesceScaleApplet(i int) Applet {
	group := i % 500
	return Applet{
		ID:     fmt.Sprintf("a%05d", i),
		UserID: fmt.Sprintf("u%04d", group),
		Trigger: ServiceRef{
			Service: "scalesvc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": fmt.Sprint(group)},
		},
		Action: ServiceRef{
			Service: "scalesvc", BaseURL: "http://svc.sim", Slug: "act",
		},
	}
}

// TestEngineScaleSoakCoalesced re-runs the 50K-applet soak with 500
// shared identities: churn, hints, and the goroutine bound all behave
// as in the uncoalesced soak, while the upstream poll count collapses
// by the sharing factor (~100×). Run under -race by scripts/verify.sh.
func TestEngineScaleSoakCoalesced(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	const shards, workers = 8, 8

	clock := simtime.NewSimDefault()
	eng := New(Config{
		Clock:            clock,
		RNG:              stats.NewRNG(7),
		Doer:             stubDoer{},
		Poll:             FixedInterval{Interval: 5 * time.Minute},
		RealtimeServices: map[string]bool{"scalesvc": true},
		DispatchDelay:    -1,
		Shards:           shards,
		ShardWorkers:     workers,
		Coalesce:         true,
	})
	r := &rig{engine: eng} // for postHints

	baseline := runtime.NumGoroutine()
	var peak int
	sample := func() {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}

	clock.Run(func() {
		for i := 0; i < n; i++ {
			if err := eng.Install(coalesceScaleApplet(i)); err != nil {
				t.Fatalf("install %d: %v", i, err)
			}
		}
		sample()
		st := eng.Stats()
		if st.Applets != n {
			t.Fatalf("installed %d applets, want %d", st.Applets, n)
		}
		if st.Subscriptions != 500 {
			t.Fatalf("subscriptions = %d, want 500", st.Subscriptions)
		}

		// First polling round, then churn: remove a tenth (subscriptions
		// survive, thinner), hint a few hundred users, install
		// replacements into the same identity groups.
		clock.Sleep(5*time.Minute + time.Second)
		sample()
		for i := 0; i < n/10; i++ {
			eng.Remove(coalesceScaleApplet(i).ID)
		}
		for u := 0; u < 200; u++ {
			r.postHints(t, fmt.Sprintf(`{"data":[{"user_id":"u%04d"}]}`, 100+u))
		}
		for i := n; i < n+n/50; i++ {
			if err := eng.Install(coalesceScaleApplet(i)); err != nil {
				t.Fatalf("reinstall %d: %v", i, err)
			}
		}
		clock.Sleep(10 * time.Minute)
		sample()
		eng.Stop()
	})

	st := eng.Stats()
	if want := n - n/10 + n/50; st.Applets != want {
		t.Errorf("Applets = %d, want %d", st.Applets, want)
	}
	if st.Subscriptions != 500 {
		t.Errorf("Subscriptions = %d, want 500 (churn never emptied a group)", st.Subscriptions)
	}
	if st.HintsReceived != 200 {
		t.Errorf("HintsReceived = %d, want 200", st.HintsReceived)
	}
	// ~3 polling rounds × 500 subscriptions, vs ≥2×n uncoalesced: the
	// sharing factor (~100) is the whole point.
	if max := int64(n / 10); st.Polls > max {
		t.Errorf("Polls = %d, want ≤ %d — coalescing is not collapsing the poll count", st.Polls, max)
	}
	if min := int64(1000); st.Polls < min {
		t.Errorf("Polls = %d, want ≥ %d — groups stopped polling", st.Polls, min)
	}
	if st.PollsCoalesced < st.Polls*50 {
		t.Errorf("PollsCoalesced = %d vs Polls = %d; expected ~100-member fan-out", st.PollsCoalesced, st.Polls)
	}
	if st.PollFailures != 0 {
		t.Errorf("PollFailures = %d, want 0", st.PollFailures)
	}

	bound := baseline + shards*(workers+1) + 100
	if peak > bound {
		t.Errorf("peak goroutines = %d (baseline %d), want ≤ %d — scheduler is not O(shards+workers)",
			peak, baseline, bound)
	}
	t.Logf("n=%d polls=%d coalesced=%d peak goroutines=%d (baseline %d)",
		n, st.Polls, st.PollsCoalesced, peak, baseline)
}
