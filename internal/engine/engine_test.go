package engine

import (
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// rig wires an engine and one partner service over a simulated network.
type rig struct {
	clock  *simtime.SimClock
	net    *simnet.Network
	engine *Engine
	svc    *service.Service

	mu     sync.Mutex
	traces []TraceEvent
}

func newRig(t *testing.T, poll PollPolicy, realtime map[string]bool) *rig {
	t.Helper()
	return newRigCfg(t, poll, realtime, nil)
}

// newRigCfg is newRig with a hook to adjust the engine config (e.g.
// enabling poll coalescing) before construction.
func newRigCfg(t *testing.T, poll PollPolicy, realtime map[string]bool, mod func(*Config)) *rig {
	t.Helper()
	clock := simtime.NewSimDefault()
	rng := stats.NewRNG(11)
	net := simnet.New(clock, rng.Split("net"))
	net.SetDefaultLink(simnet.Link{Latency: stats.Constant(0.02)})

	svc := service.New(service.Config{Name: "testsvc", Clock: clock, ServiceKey: "k"})
	svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
	svc.RegisterAction(service.ActionSpec{
		Slug:    "act",
		Execute: func(map[string]string, proto.UserInfo) error { return nil },
	})
	net.AddHost("svc.sim", svc.Handler())

	r := &rig{clock: clock, net: net, svc: svc}
	cfg := Config{
		Clock:            clock,
		RNG:              rng.Split("engine"),
		Doer:             net.Client("engine.sim"),
		Poll:             poll,
		RealtimeServices: realtime,
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

func (r *rig) applet(id string) Applet {
	return Applet{
		ID:     id,
		Name:   "test applet " + id,
		UserID: "u1",
		Trigger: ServiceRef{
			Service: "testsvc", BaseURL: "http://svc.sim", Slug: "fired", ServiceKey: "k",
		},
		Action: ServiceRef{
			Service: "testsvc", BaseURL: "http://svc.sim", Slug: "act", ServiceKey: "k",
		},
	}
}

func (r *rig) tracesOf(kind TraceKind) []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceEvent
	for _, ev := range r.traces {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func TestEngineExecutesTriggerToAction(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		if err := r.engine.Install(r.applet("a1")); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		// Let the first poll create the subscription, then fire.
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(30 * time.Second)
		r.engine.Stop()
	})

	acked := r.tracesOf(TraceActionAcked)
	if len(acked) != 1 {
		t.Fatalf("actions acked = %d, want 1", len(acked))
	}
	if got := r.svc.Stats().Actions; got != 1 {
		t.Fatalf("service executed %d actions", got)
	}
}

func TestEngineDeduplicatesAcrossPolls(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"n": "1"})
		// Several polling rounds re-serve the same buffered event.
		r.clock.Sleep(60 * time.Second)
		r.engine.Stop()
	})
	if acked := r.tracesOf(TraceActionAcked); len(acked) != 1 {
		t.Fatalf("event executed %d times, want exactly once", len(acked))
	}
	if polls := r.tracesOf(TracePollSent); len(polls) < 5 {
		t.Fatalf("expected many polls, got %d", len(polls))
	}
}

func TestEngineBatchesBacklog(t *testing.T) {
	// Events accumulated during one long gap arrive as one cluster.
	r := newRig(t, FixedInterval{Interval: 2 * time.Minute}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(2*time.Minute + time.Second) // subscription made
		for i := 0; i < 8; i++ {
			r.svc.Publish("fired", map[string]string{"n": string(rune('0' + i))})
			r.clock.Sleep(5 * time.Second)
		}
		r.clock.Sleep(3 * time.Minute)
		r.engine.Stop()
	})
	results := r.tracesOf(TracePollResult)
	var batched int
	for _, ev := range results {
		if ev.N > 1 {
			batched = ev.N
		}
	}
	if batched < 5 {
		t.Fatalf("no clustered poll result found (max batch %d)", batched)
	}
	if acked := r.tracesOf(TraceActionAcked); len(acked) != 8 {
		t.Fatalf("acked %d actions, want 8", len(acked))
	}
}

func TestRealtimeHintHonoredOnlyForAllowlist(t *testing.T) {
	measure := func(allowed bool) time.Duration {
		var rt map[string]bool
		if allowed {
			rt = map[string]bool{"testsvc": true}
		}
		r := newRig(t, FixedInterval{Interval: 10 * time.Minute}, rt)
		// Wire the service's realtime hints at the engine.
		r.svc = service.New(service.Config{
			Name: "testsvc", Clock: r.clock, ServiceKey: "k",
			Realtime: &service.RealtimeConfig{
				URL:        "http://engine.sim" + proto.RealtimePath,
				Client:     httpx.NewClient(r.net.Client("svc.sim"), r.clock, 0),
				ServiceKey: "k",
			},
		})
		r.svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
		r.svc.RegisterAction(service.ActionSpec{
			Slug:    "act",
			Execute: func(map[string]string, proto.UserInfo) error { return nil },
		})
		r.net.AddHost("svc.sim", r.svc.Handler())

		var t2a time.Duration
		r.clock.Run(func() {
			r.engine.Install(r.applet("a1"))
			r.clock.Sleep(10*time.Minute + time.Second) // first poll done
			fired := r.clock.Now()
			r.svc.Publish("fired", map[string]string{"k": "v"})
			r.clock.Sleep(12 * time.Minute)
			acked := r.tracesOf(TraceActionAcked)
			if len(acked) != 1 {
				t.Errorf("allowed=%v: acked %d actions", allowed, len(acked))
			} else {
				t2a = acked[0].Time.Sub(fired)
			}
			r.engine.Stop()
		})
		return t2a
	}

	fast := measure(true)
	slow := measure(false)
	if fast > 10*time.Second {
		t.Errorf("allow-listed hint latency = %v, want seconds", fast)
	}
	if slow < time.Minute {
		t.Errorf("ignored hint latency = %v, want full polling gap", slow)
	}
}

func TestEngineIndependentPollingPerApplet(t *testing.T) {
	// Two applets sharing a trigger poll independently: their polls are
	// not synchronized (Fig 7's root cause).
	r := newRig(t, NewPaperPollModel(), nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.engine.Install(r.applet("a2"))
		r.clock.Sleep(2 * time.Hour)
		r.engine.Stop()
	})
	var t1, t2 []time.Time
	for _, ev := range r.tracesOf(TracePollSent) {
		switch ev.AppletID {
		case "a1":
			t1 = append(t1, ev.Time)
		case "a2":
			t2 = append(t2, ev.Time)
		}
	}
	if len(t1) < 5 || len(t2) < 5 {
		t.Fatalf("too few polls: %d, %d", len(t1), len(t2))
	}
	// If schedules were shared, poll times would coincide.
	same := 0
	for i := 0; i < len(t1) && i < len(t2); i++ {
		if t1[i].Equal(t2[i]) {
			same++
		}
	}
	if same == len(t1) {
		t.Fatal("applet polls are synchronized; expected independent schedules")
	}
}

func TestEngineRemoveStopsPolling(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(12 * time.Second)
		r.engine.Remove("a1")
		before := len(r.tracesOf(TracePollSent))
		r.clock.Sleep(time.Minute)
		after := len(r.tracesOf(TracePollSent))
		if after != before {
			t.Errorf("polls continued after Remove: %d → %d", before, after)
		}
		if got := len(r.engine.Applets()); got != 0 {
			t.Errorf("Applets() = %d entries after Remove", got)
		}
		r.engine.Stop()
	})
}

func TestEngineDuplicateInstall(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: time.Second}, nil)
	r.clock.Run(func() {
		if err := r.engine.Install(r.applet("dup")); err != nil {
			t.Errorf("first install: %v", err)
		}
		if err := r.engine.Install(r.applet("dup")); err == nil {
			t.Error("duplicate install accepted")
		}
		r.engine.Stop()
	})
}

func TestEngineInstallAfterStop(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Stop()
		if err := r.engine.Install(r.applet("late")); err == nil {
			t.Error("install after Stop accepted")
		}
	})
}

func TestEngineSurvivesServiceOutage(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(7 * time.Second)
		r.net.SetHostDown("svc.sim", true)
		r.clock.Sleep(20 * time.Second)
		r.net.SetHostDown("svc.sim", false)
		r.clock.Sleep(time.Second)
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(30 * time.Second)
		r.engine.Stop()
	})
	if failed := r.tracesOf(TracePollFailed); len(failed) == 0 {
		t.Fatal("no poll failures recorded during outage")
	}
	if acked := r.tracesOf(TraceActionAcked); len(acked) != 1 {
		t.Fatalf("acked %d actions after recovery, want 1", len(acked))
	}
}

func TestExpandIngredients(t *testing.T) {
	ing := map[string]string{"subject": "hello", "from": "a@b"}
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"{{subject}}", "hello"},
		{"mail from {{from}}: {{subject}}", "mail from a@b: hello"},
		{"{{ subject }}", "hello"},
		{"{{missing}}!", "!"},
		{"{{unclosed", "{{unclosed"},
	}
	for _, c := range cases {
		if got := expandIngredients(c.in, ing); got != c.want {
			t.Errorf("expand(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTriggerIdentityStableAndDistinct(t *testing.T) {
	a := Applet{ID: "x", Trigger: ServiceRef{BaseURL: "http://s", Slug: "t",
		Fields: map[string]string{"a": "1", "b": "2"}}}
	b := Applet{ID: "x", Trigger: ServiceRef{BaseURL: "http://s", Slug: "t",
		Fields: map[string]string{"b": "2", "a": "1"}}}
	if a.TriggerIdentity() != b.TriggerIdentity() {
		t.Error("identity depends on map iteration order")
	}
	c := a
	c.ID = "y"
	if a.TriggerIdentity() == c.TriggerIdentity() {
		t.Error("distinct applets share an identity")
	}
}

func TestPaperPollModelRange(t *testing.T) {
	m := NewPaperPollModel()
	g := stats.NewRNG(3)
	var inflated int
	for i := 0; i < 20000; i++ {
		gap := m.NextGap("any", g)
		if gap < m.Min || gap > m.Max {
			t.Fatalf("gap %v outside [%v, %v]", gap, m.Min, m.Max)
		}
		if gap > 8*time.Minute {
			inflated++
		}
	}
	if inflated == 0 {
		t.Fatal("inflation regime never sampled; Fig 6's 14-minute tail unreachable")
	}
}

// recordingPolicy captures the service PerService forwards to the
// chosen policy.
type recordingPolicy struct {
	gap     time.Duration
	service string
	calls   int
}

func (p *recordingPolicy) NextGap(service string, _ *stats.RNG) time.Duration {
	p.service = service
	p.calls++
	return p.gap
}

func TestPerServicePolicy(t *testing.T) {
	alexa := &recordingPolicy{gap: time.Second}
	def := &recordingPolicy{gap: time.Minute}
	p := PerService{
		Overrides: map[string]PollPolicy{"alexa": alexa},
		Default:   def,
	}
	g := stats.NewRNG(4)
	if got := p.NextGap("alexa", g); got != time.Second {
		t.Errorf("alexa gap = %v", got)
	}
	if alexa.service != "alexa" {
		t.Errorf("override saw %q, want alexa", alexa.service)
	}
	if def.calls != 0 {
		t.Errorf("default consulted %d times for an overridden service", def.calls)
	}
	// Any service without an override — including none at all — falls
	// through to the default, with arguments intact.
	if got := p.NextGap("hue", g); got != time.Minute {
		t.Errorf("hue gap = %v", got)
	}
	if def.service != "hue" {
		t.Errorf("default saw %q, want hue", def.service)
	}
	none := PerService{Default: FixedInterval{Interval: 30 * time.Second}}
	if got := none.NextGap("alexa", g); got != 30*time.Second {
		t.Errorf("nil-overrides gap = %v", got)
	}
	// A value policy serves as an override just as well.
	fixed := PerService{
		Overrides: map[string]PollPolicy{"alexa": FixedInterval{Interval: 2 * time.Second}},
		Default:   def,
	}
	if got := fixed.NextGap("alexa", g); got != 2*time.Second {
		t.Errorf("fixed override gap = %v", got)
	}
}
