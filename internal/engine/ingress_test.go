package engine

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// newPushRig is newRigCfg with the push tier on both ends: the engine
// mounts the push ingress and the partner service POSTs every buffered
// event to it on Publish (while still serving polls, so both paths see
// the same event IDs).
func newPushRig(t *testing.T, poll PollPolicy, mod func(*Config)) *rig {
	t.Helper()
	clock := simtime.NewSimDefault()
	rng := stats.NewRNG(11)
	net := simnet.New(clock, rng.Split("net"))
	net.SetDefaultLink(simnet.Link{Latency: stats.Constant(0.02)})

	svc := service.New(service.Config{
		Name: "testsvc", Clock: clock, ServiceKey: "k",
		Push: &service.PushConfig{
			URL:        "http://engine.sim" + proto.PushPath,
			Client:     httpx.NewClient(net.Client("svc.sim"), clock, 0),
			ServiceKey: "k",
		},
	})
	svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
	svc.RegisterAction(service.ActionSpec{
		Slug:    "act",
		Execute: func(map[string]string, proto.UserInfo) error { return nil },
	})
	net.AddHost("svc.sim", svc.Handler())

	r := &rig{clock: clock, net: net, svc: svc}
	cfg := Config{
		Clock: clock,
		RNG:   rng.Split("engine"),
		Doer:  net.Client("engine.sim"),
		Poll:  poll,
		Push:  true,
		Trace: func(ev TraceEvent) {
			r.mu.Lock()
			r.traces = append(r.traces, ev)
			r.mu.Unlock()
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	r.engine = New(cfg)
	net.AddHost("engine.sim", r.engine.Handler())
	return r
}

// The push copy arrives seconds before any poll; the polls that follow
// re-serve the same buffered event. Exactly one action must run.
func TestPushThenPollExecutesOnce(t *testing.T) {
	r := newPushRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		// Let the first poll create the service-side subscription.
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"n": "1"})
		r.clock.Sleep(60 * time.Second)
		r.engine.Stop()
	})

	if acked := r.tracesOf(TraceActionAcked); len(acked) != 1 {
		t.Fatalf("event executed %d times across push+poll, want exactly once", len(acked))
	}
	st := r.engine.Stats()
	if st.PushEvents != 1 {
		t.Errorf("push delivered %d fresh events, want 1", st.PushEvents)
	}
	// The push beat every poll, so the poll path saw nothing fresh.
	if st.EventsReceived != 0 {
		t.Errorf("poll path received %d fresh events, want 0 (push won)", st.EventsReceived)
	}
	if polls := r.tracesOf(TracePollSent); len(polls) < 5 {
		t.Errorf("polling stalled: %d polls", len(polls))
	}
	if ss := r.svc.Stats(); ss.PushEventsAccepted != 1 {
		t.Errorf("service push accounting: accepted %d, want 1", ss.PushEventsAccepted)
	}
}

// The poll path executes the event first; a push replay of the same
// event ID afterwards must dedup away without a second execution.
func TestPollThenPushDeduplicates(t *testing.T) {
	r := newRigCfg(t, FixedInterval{Interval: 5 * time.Second}, nil, func(cfg *Config) {
		cfg.Push = true
	})
	a := r.applet("a1")
	var resp proto.PushResponse
	var status int
	var postErr error
	r.clock.Run(func() {
		r.engine.Install(a)
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"n": "1"})
		// The poll path executes the event...
		r.clock.Sleep(20 * time.Second)
		// ...then a late push replays the same event ID ("<name>-ev-<seq>",
		// the service's stamping scheme).
		client := httpx.NewClient(r.net.Client("pusher.sim"), r.clock, 0)
		status, postErr = client.DoJSON("POST", "http://engine.sim"+proto.PushPath,
			proto.PushBatch{Data: []proto.PushDelivery{{
				TriggerIdentity: a.TriggerIdentity(),
				Events: []proto.TriggerEvent{{
					Ingredients: map[string]string{"n": "1"},
					Meta:        proto.EventMeta{ID: "testsvc-ev-1", Timestamp: r.clock.Now().Unix()},
				}},
			}}}, &resp)
		r.clock.Sleep(10 * time.Second)
		r.engine.Stop()
	})

	if postErr != nil || status != http.StatusOK {
		t.Fatalf("push POST: status %d err %v", status, postErr)
	}
	if resp.Accepted != 1 || resp.Rejected != 0 || resp.Unmatched != 0 {
		t.Fatalf("push response %+v, want 1 accepted", resp)
	}
	if acked := r.tracesOf(TraceActionAcked); len(acked) != 1 {
		t.Fatalf("event executed %d times across poll+push, want exactly once", len(acked))
	}
	if st := r.engine.Stats(); st.PushEvents != 0 {
		t.Errorf("push dispatched %d fresh events, want 0 (all deduped)", st.PushEvents)
	}
}

// With coalescing, one pushed event fans out to every member of the
// shared subscription exactly once — and later polls add nothing.
func TestPushCoalescedExecutesEachMemberOnce(t *testing.T) {
	r := newPushRig(t, FixedInterval{Interval: 5 * time.Second}, func(cfg *Config) {
		cfg.Coalesce = true
	})
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.engine.Install(r.applet("a2"))
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"n": "1"})
		r.clock.Sleep(60 * time.Second)
		r.engine.Stop()
	})

	if acked := r.tracesOf(TraceActionAcked); len(acked) != 2 {
		t.Fatalf("coalesced push executed %d actions, want exactly one per member (2)", len(acked))
	}
	st := r.engine.Stats()
	if st.Subscriptions != 1 {
		t.Fatalf("subscriptions = %d, want 1 (coalesced)", st.Subscriptions)
	}
	if st.PushEvents != 2 {
		t.Errorf("push fresh events = %d, want 2 (one per member ring)", st.PushEvents)
	}
	if st.EventsReceived != 0 {
		t.Errorf("poll path received %d fresh events, want 0", st.EventsReceived)
	}
}

// Two deliveries for the same subscription in one batch merge into a
// single dispatch execution (adaptive micro-batching).
func TestPushMicroBatchMergesSameSubscription(t *testing.T) {
	r := newRigCfg(t, FixedInterval{Interval: time.Hour}, nil, func(cfg *Config) {
		cfg.Push = true
	})
	a := r.applet("a1")
	var resp proto.PushResponse
	r.clock.Run(func() {
		r.engine.Install(a)
		client := httpx.NewClient(r.net.Client("pusher.sim"), r.clock, 0)
		delivery := func(id string) proto.PushDelivery {
			return proto.PushDelivery{
				TriggerIdentity: a.TriggerIdentity(),
				Events: []proto.TriggerEvent{{
					Ingredients: map[string]string{"n": id},
					Meta:        proto.EventMeta{ID: id, Timestamp: r.clock.Now().Unix()},
				}},
			}
		}
		client.DoJSON("POST", "http://engine.sim"+proto.PushPath,
			proto.PushBatch{Data: []proto.PushDelivery{delivery("e1"), delivery("e2")}}, &resp)
		r.clock.Sleep(10 * time.Second)
		r.engine.Stop()
	})

	if resp.Accepted != 2 {
		t.Fatalf("push response %+v, want 2 accepted", resp)
	}
	st := r.engine.Stats()
	if st.PushBatches != 1 {
		t.Errorf("push dispatch executions = %d, want 1 (merged)", st.PushBatches)
	}
	if st.PushEvents != 2 || st.ActionsOK != 2 {
		t.Errorf("fresh=%d actions=%d, want 2 and 2", st.PushEvents, st.ActionsOK)
	}
}

// The bounded-ingress invariant under a 10x overload burst: queued
// depth never exceeds the configured bound, every event is accounted
// (accepted+rejected+unmatched), accepted events execute exactly once,
// polling keeps running, and the queue drains afterwards. Runs under
// -race via the standard test suite.
func TestIngressBackpressureSoak(t *testing.T) {
	const (
		bound     = 32
		producers = 8
		perProd   = 40 // 10x the bound in total
	)
	r := newRigCfg(t, FixedInterval{Interval: 5 * time.Second}, nil, func(cfg *Config) {
		cfg.Push = true
		cfg.IngressQueue = bound
		// A slow dispatch wedges the workers so the burst piles up.
		cfg.DispatchDelay = 500 * time.Millisecond
	})
	a := r.applet("a1")

	var maxDepth atomic.Int64
	var sampling atomic.Bool
	sampling.Store(true)
	r.clock.Run(func() {
		r.engine.Install(a)
		// Depth sampler: polls the gauge every 50ms for the whole soak.
		r.clock.Go(func() {
			for sampling.Load() {
				if d := r.engine.Stats().IngressDepth; d > maxDepth.Load() {
					maxDepth.Store(d)
				}
				r.clock.Sleep(50 * time.Millisecond)
			}
		})
		for p := 0; p < producers; p++ {
			client := httpx.NewClient(r.net.Client(fmt.Sprintf("pusher-%d.sim", p)), r.clock, 0)
			r.clock.Go(func() {
				for j := 0; j < perProd; j++ {
					id := fmt.Sprintf("burst-%d-%d", p, j)
					client.DoJSON("POST", "http://engine.sim"+proto.PushPath,
						proto.PushBatch{Data: []proto.PushDelivery{{
							TriggerIdentity: a.TriggerIdentity(),
							Events: []proto.TriggerEvent{{
								Ingredients: map[string]string{"n": id},
								Meta:        proto.EventMeta{ID: id, Timestamp: r.clock.Now().Unix()},
							}},
						}}}, nil)
				}
			})
		}
		// Generously past the drain: ≤320 accepted × 0.5s dispatch delay.
		r.clock.Sleep(6 * time.Minute)
		sampling.Store(false)
		r.clock.Sleep(time.Second)
		r.engine.Stop()
	})

	st := r.engine.Stats()
	total := st.IngressAccepted + st.IngressRejected + st.IngressUnmatched
	if want := int64(producers * perProd); total != want {
		t.Fatalf("ingress accounting: accepted %d + rejected %d + unmatched %d = %d, want %d",
			st.IngressAccepted, st.IngressRejected, st.IngressUnmatched, total, want)
	}
	if st.IngressUnmatched != 0 {
		t.Errorf("unmatched = %d, want 0", st.IngressUnmatched)
	}
	if st.IngressRejected == 0 {
		t.Errorf("burst never tripped backpressure (rejected = 0); bound untested")
	}
	if got := maxDepth.Load(); got > bound {
		t.Errorf("ingress depth reached %d, bound is %d", got, bound)
	}
	if st.ActionsOK != st.IngressAccepted {
		t.Errorf("accepted %d events but executed %d actions, want exactly once each",
			st.IngressAccepted, st.ActionsOK)
	}
	if st.Polls < 5 {
		t.Errorf("polling starved during the burst: %d polls", st.Polls)
	}
	if st.IngressDepth != 0 {
		t.Errorf("queue did not drain: depth %d", st.IngressDepth)
	}
}
