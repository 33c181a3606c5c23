package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// silentDoer answers every request with an empty poll response, reusing
// one response value, so what a benchmark measures is the engine's. It
// serves one goroutine at a time.
type silentDoer struct {
	resp http.Response
	body silentBody
}

type silentBody struct{ bytes.Reader }

func (*silentBody) Close() error { return nil }

var emptyPollBody = []byte(`{"data":[]}`)

func (d *silentDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	d.body.Reset(emptyPollBody)
	d.resp = http.Response{StatusCode: http.StatusOK, Body: &d.body}
	return &d.resp, nil
}

// BenchmarkSilentPoll is one poll of a one-member subscription that
// returns nothing, the way a shard worker runs it minus the scheduling:
// decoder borrowed and released, request assembled in pooled scratch,
// the empty response scanned and deduped against the member's ring.
// Unobserved, it pays only for the round trip and its counters; with
// Metrics, also for the fanout histogram and the span sink it never
// feeds, since no action completes a span.
func BenchmarkSilentPoll(b *testing.B) {
	for _, bc := range []struct {
		name    string
		metrics bool
	}{{"unobserved", false}, {"metrics", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: &silentDoer{},
				Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1}
			if bc.metrics {
				cfg.Metrics = obs.NewRegistry()
			}
			e := New(cfg)
			defer e.Stop()
			if err := e.Install(Applet{ID: "a1", UserID: "u1",
				Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired", ServiceKey: "k", UserToken: "tok"},
				Action:  ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act", ServiceKey: "k", UserToken: "tok"},
			}); err != nil {
				b.Fatal(err)
			}
			sub := e.applets["a1"].sub
			pollOnce(e, sub) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if ok, fresh := pollOnce(e, sub); !ok || fresh != 0 {
					b.Fatalf("poll ok=%v fresh=%d, want a silent success", ok, fresh)
				}
			}
		})
	}
}

// scenarioPartner is the partner of the observation scenarios: trigger
// slugs with event buffers the test publishes to, one slug ("broken")
// whose polls always answer 503, and an action endpoint that records
// every action body it receives, per trigger slug, in arrival order,
// with the event's trigger-to-action latency.
type scenarioPartner struct {
	clock simtime.Clock
	mu    sync.Mutex
	buf   map[string][]proto.TriggerEvent
	seq   int
	// bodies[slug] lists "<body> t2a=<latency>" per action, as received.
	bodies map[string][]string
	t2a    []time.Duration
}

const scenarioPollRTT = 50 * time.Millisecond

// publish buffers a new event for slug and returns it.
func (p *scenarioPartner) publish(slug string) proto.TriggerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	seq := strconv.Itoa(p.seq)
	ev := proto.TriggerEvent{
		Ingredients: map[string]string{"slug": slug, "seq": seq},
		Meta:        proto.EventMeta{ID: slug + "." + seq, TimestampNanos: p.clock.Now().UnixNano()},
	}
	p.buf[slug] = append(p.buf[slug], ev)
	return ev
}

func (p *scenarioPartner) Do(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	status, out := http.StatusOK, []byte(`{"data":[{"id":"ok"}]}`)
	if slug, ok := strings.CutPrefix(req.URL.Path, proto.TriggersPath); ok {
		p.clock.Sleep(scenarioPollRTT)
		if slug == "broken" {
			status, out = http.StatusServiceUnavailable, []byte(`{"errors":[{"message":"down"}]}`)
		} else {
			p.mu.Lock()
			evs := p.buf[slug][max(0, len(p.buf[slug])-10):]
			resp := proto.TriggerPollResponse{Data: make([]proto.TriggerEvent, 0, len(evs))}
			for i := len(evs) - 1; i >= 0; i-- {
				resp.Data = append(resp.Data, evs[i])
			}
			p.mu.Unlock()
			out, _ = json.Marshal(resp)
		}
	} else if strings.HasPrefix(req.URL.Path, proto.ActionsPath) {
		var ar proto.ActionRequest
		if err := json.Unmarshal(body, &ar); err != nil {
			return nil, err
		}
		slug, seq := ar.ActionFields["slug"], ar.ActionFields["seq"]
		p.mu.Lock()
		for _, ev := range p.buf[slug] {
			if ev.Meta.ID == slug+"."+seq {
				d := p.clock.Now().Sub(ev.Meta.Time())
				p.t2a = append(p.t2a, d)
				p.bodies[slug] = append(p.bodies[slug], fmt.Sprintf("%s t2a=%v", body, d))
			}
		}
		p.mu.Unlock()
	}
	return &http.Response{StatusCode: status, Body: io.NopCloser(bytes.NewReader(out)), Header: make(http.Header), Request: req}, nil
}

// scenarioRun is what one run of the observation scenario leaves.
type scenarioRun struct {
	stats          Stats
	bodies         map[string][]string
	t2a            []time.Duration
	spans          int64
	breakerTraces  int64
	pollFailTraces int64
}

// runObservationScenario is one seeded simulated-clock run on 4 shards
// with coalescing, adaptive cadence under a poll budget, push beside
// poll, and one trigger whose polls fail until its breaker opens and
// probes. observe adds a trace observer, a metrics registry and a span
// sink.
func runObservationScenario(t *testing.T, observe bool) scenarioRun {
	t.Helper()
	clock := simtime.NewSimDefault()
	p := &scenarioPartner{clock: clock, buf: map[string][]proto.TriggerEvent{}, bodies: map[string][]string{}}
	cfg := Config{
		Clock: clock, RNG: stats.NewRNG(42), Doer: p,
		Adaptive: &AdaptiveConfig{HalfLife: time.Minute, FastFloor: 5 * time.Second,
			SlowCeiling: time.Minute, TargetEventsPerPoll: 0.5},
		PollBudgetQPS: 0.5, DispatchDelay: 200 * time.Millisecond,
		Shards: 4, Coalesce: true, Push: true,
		Resilience: ResilienceConfig{BreakerThreshold: 3, ProbeInterval: 20 * time.Second},
	}
	var run scenarioRun
	var spans, breakers, pollFails atomic.Int64
	if observe {
		cfg.Trace = func(ev TraceEvent) {
			switch ev.Kind {
			case TraceBreakerOpen, TraceBreakerProbe, TraceBreakerClose:
				breakers.Add(1)
			case TracePollFailed:
				pollFails.Add(1)
			}
		}
		cfg.Metrics = obs.NewRegistry()
		cfg.OnSpan = func(obs.ExecSpan) { spans.Add(1) }
	}
	eng := New(cfg)
	applet := func(id, slug string) Applet {
		return Applet{ID: id, UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://p.sim", Slug: slug},
			Action: ServiceRef{Service: "act", BaseURL: "http://p.sim", Slug: "do",
				Fields: map[string]string{"slug": "{{slug}}", "seq": "{{seq}}"}},
		}
	}
	hot := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	identity := map[string]string{}
	clock.Run(func() {
		defer eng.Stop()
		var all []Applet
		for _, slug := range hot { // two members each, one subscription
			all = append(all, applet(slug+"-a", slug), applet(slug+"-b", slug))
			identity[slug] = all[len(all)-1].CoalescedTriggerIdentity()
		}
		for i := range 8 {
			all = append(all, applet("cold"+strconv.Itoa(i), "c"+strconv.Itoa(i)))
		}
		all = append(all, applet("broken", "broken"))
		for _, a := range all {
			if err := eng.Install(a); err != nil {
				t.Errorf("install %s: %v", a.ID, err)
				return
			}
		}
		for k := range 300 {
			clock.Sleep(1700 * time.Millisecond)
			slug := hot[k%len(hot)]
			ev := p.publish(slug)
			if k%3 == 0 {
				eng.PushDeliveries([]proto.PushDelivery{{TriggerIdentity: identity[slug], Events: []proto.TriggerEvent{ev}}})
			}
		}
		clock.Sleep(2 * time.Minute)
	})
	run.stats = eng.Stats()
	run.bodies, run.t2a = p.bodies, p.t2a
	slices.Sort(run.t2a)
	run.spans, run.breakerTraces, run.pollFailTraces = spans.Load(), breakers.Load(), pollFails.Load()
	return run
}

// TestObservingChangesNothing runs the observation scenario without an
// observer and again with a trace observer, metrics and a span sink:
// observing must not change what the engine does. Both runs count the
// same, send the partner the same action bodies in the same order per
// subscription, and give the same simulated trigger-to-action samples.
func TestObservingChangesNothing(t *testing.T) {
	plain := runObservationScenario(t, false)
	seen := runObservationScenario(t, true)

	st := plain.stats
	t.Logf("unobserved: %+v", st)
	if st.ActionsOK == 0 || st.PushBatches == 0 || st.PollsCoalesced == 0 || st.PollsDeferred == 0 ||
		st.PollFailures == 0 || st.BreakerOpens == 0 || st.BreakerProbes == 0 {
		t.Errorf("the scenario misses a path: %+v", st)
	}
	pv, sv := reflect.ValueOf(plain.stats), reflect.ValueOf(seen.stats)
	for i := range pv.NumField() {
		if a, b := pv.Field(i).Interface(), sv.Field(i).Interface(); a != b {
			t.Errorf("Stats.%s: %v unobserved, %v observed", pv.Type().Field(i).Name, a, b)
		}
	}
	if !maps.EqualFunc(plain.bodies, seen.bodies, slices.Equal) {
		for slug, want := range plain.bodies {
			if got := seen.bodies[slug]; !slices.Equal(got, want) {
				t.Errorf("subscription %s: actions differ when observed\nunobserved %q\nobserved   %q", slug, want, got)
			}
		}
		t.Errorf("action bodies differ when observed: %d subscriptions unobserved, %d observed", len(plain.bodies), len(seen.bodies))
	}
	if !slices.Equal(plain.t2a, seen.t2a) {
		t.Errorf("T2A samples differ when observed: %d unobserved, %d observed", len(plain.t2a), len(seen.t2a))
	}
	if acts := seen.stats.ActionsOK + seen.stats.ActionsFailed; seen.spans != acts || seen.breakerTraces == 0 ||
		seen.pollFailTraces != seen.stats.PollFailures {
		t.Errorf("observed run: %d spans for %d actions, %d breaker and %d poll_failed trace events for %d poll failures",
			seen.spans, acts, seen.breakerTraces, seen.pollFailTraces, seen.stats.PollFailures)
	}
}

// execIDRun is one run of the exec ID scenario: 8 shards of coalesced
// two-member subscriptions, every poll carrying one new event, and a
// push now and then; trace and spans pick the observers.
func execIDRun(t *testing.T, trace, spans bool) (traces []TraceEvent, spanList []obs.ExecSpan, members map[string]string) {
	t.Helper()
	clock := simtime.NewSimDefault()
	var mu sync.Mutex
	cfg := Config{
		Clock: clock, RNG: stats.NewRNG(8), Doer: &eventDoer{clock: clock},
		Poll: FixedInterval{Interval: 10 * time.Second}, DispatchDelay: 100 * time.Millisecond,
		Shards: 8, Coalesce: true, Push: true,
	}
	if trace {
		cfg.Trace = func(ev TraceEvent) {
			mu.Lock()
			traces = append(traces, ev)
			mu.Unlock()
		}
	}
	if spans {
		cfg.OnSpan = func(s obs.ExecSpan) {
			mu.Lock()
			spanList = append(spanList, s)
			mu.Unlock()
		}
	}
	eng := New(cfg)
	members = map[string]string{} // applet ID -> its subscription's key
	clock.Run(func() {
		defer eng.Stop()
		var idents []string
		for i := range 32 {
			for _, m := range []string{"a", "b"} {
				a := sloApplet(i, "svc")
				a.ID += m
				if err := eng.Install(a); err != nil {
					t.Errorf("install: %v", err)
					return
				}
				members[a.ID] = a.CoalescedTriggerIdentity()
			}
			idents = append(idents, members[sloApplet(i, "svc").ID+"a"])
		}
		for k := range 20 {
			clock.Sleep(3 * time.Second)
			eng.PushDeliveries([]proto.PushDelivery{{TriggerIdentity: idents[k%len(idents)],
				Events: []proto.TriggerEvent{{Meta: proto.EventMeta{ID: "p" + strconv.Itoa(k)}}}}})
		}
		clock.Sleep(time.Minute)
	})
	shards := map[*shard]bool{}
	for _, ra := range eng.applets {
		shards[ra.sub.shard] = true
	}
	if len(shards) < 4 {
		t.Fatalf("subscriptions on %d shards, want them spread over most of the 8", len(shards))
	}
	return traces, spanList, members
}

// execSpans checks the spans of one run: spans of one ID belong to one
// execution — one subscription, one poll, one event, one span per
// member — so an ID two executions drew shows as a group too big or
// mixed. It returns the spans by ID.
func execSpans(t *testing.T, spans []obs.ExecSpan, members map[string]string) map[uint64][]obs.ExecSpan {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	byID := map[uint64][]obs.ExecSpan{}
	for _, s := range spans {
		if s.ExecID == 0 {
			t.Errorf("span without an exec ID: %+v", s)
		}
		byID[s.ExecID] = append(byID[s.ExecID], s)
	}
	for id, group := range byID {
		first := group[0]
		applets := map[string]bool{}
		for _, s := range group {
			if members[s.AppletID] != members[first.AppletID] || s.EventID != first.EventID ||
				!s.PollSentAt.Equal(first.PollSentAt) || s.Pushed != first.Pushed || applets[s.AppletID] {
				t.Errorf("exec %d: spans of more than one execution: %+v", id, group)
				break
			}
			applets[s.AppletID] = true
		}
	}
	return byID
}

// execTraces checks the trace events of one run: every execution's
// events share its ID, each ID opens with exactly one poll_sent or
// push_dispatch and names only its subscription's members. It returns
// the events by ID.
func execTraces(t *testing.T, traces []TraceEvent, members map[string]string) map[uint64][]TraceEvent {
	t.Helper()
	byID := map[uint64][]TraceEvent{}
	for _, ev := range traces {
		switch ev.Kind {
		case TraceInstall, TraceRemove, TraceHintReceived:
			if ev.ExecID != 0 {
				t.Errorf("%s event carries exec ID %d", ev.Kind, ev.ExecID)
			}
			continue
		}
		if ev.ExecID == 0 {
			t.Errorf("%s event of an execution without an exec ID", ev.Kind)
		}
		byID[ev.ExecID] = append(byID[ev.ExecID], ev)
	}
	if len(byID) == 0 {
		t.Fatal("no executions traced")
	}
	for id, evs := range byID {
		if k := evs[0].Kind; k != TracePollSent && k != TracePushDispatch {
			t.Errorf("exec %d opens with %s", id, k)
		}
		for i, ev := range evs {
			if members[ev.AppletID] != members[evs[0].AppletID] ||
				i > 0 && (ev.Kind == TracePollSent || ev.Kind == TracePushDispatch) {
				t.Errorf("exec %d: events of more than one execution: %v", id, evs)
				break
			}
		}
	}
	return byID
}

// TestExecIDTraceOnly: with only a trace observer, every execution on
// any of the 8 shards draws an ID of its own that all its events carry.
func TestExecIDTraceOnly(t *testing.T) {
	traces, _, members := execIDRun(t, true, false)
	execTraces(t, traces, members)
}

// TestExecIDSpansOnly: with only a span sink, the spans of one execution
// share an ID no other execution has.
func TestExecIDSpansOnly(t *testing.T) {
	_, spans, members := execIDRun(t, false, true)
	execSpans(t, spans, members)
}

// TestExecIDTraceAndSpans: with both, every span carries the ID of the
// trace events of the execution it belongs to, and each execution with
// an action has its spans.
func TestExecIDTraceAndSpans(t *testing.T) {
	traces, spans, members := execIDRun(t, true, true)
	byID := execTraces(t, traces, members)
	spansByID := execSpans(t, spans, members)
	for id, group := range spansByID {
		evs := byID[id]
		for _, s := range group {
			found := false
			for _, ev := range evs {
				if (ev.Kind == TraceActionAcked || ev.Kind == TraceActionFailed) && ev.AppletID == s.AppletID && ev.EventID == s.EventID {
					found = true
				}
			}
			if !found {
				t.Errorf("span %+v: no action event of exec %d for it", s, id)
			}
		}
	}
	acted := 0
	for id, evs := range byID {
		for _, ev := range evs {
			if ev.Kind == TraceActionAcked || ev.Kind == TraceActionFailed {
				acted++
				if len(spansByID[id]) == 0 {
					t.Errorf("exec %d acted but completed no span", id)
				}
			}
		}
	}
	if acted != len(spans) {
		t.Errorf("%d actions traced, %d spans", acted, len(spans))
	}
}

// TestDecoderMembersBounded: one execution of a 10 K-member subscription
// (Fig 3's heavy tail, coalesced) leaves its pooled decoder no more than
// maxPooledBuilt members of capacity, and no member referenced.
func TestDecoderMembersBounded(t *testing.T) {
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: &silentDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1, Coalesce: true})
	defer e.Stop()
	const n = 10_000
	for i := range n {
		if err := e.Install(Applet{ID: "a" + strconv.Itoa(i), UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired"},
			Action:  ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	sub := e.applets["a0"].sub
	if len(sub.members) != n {
		t.Fatalf("subscription has %d members, want %d", len(sub.members), n)
	}
	sub.shard.mu.Lock()
	dec := borrowDecoder(sub)
	auth, body := sub.blob[:sub.authLen], sub.blob[sub.authLen:]
	sub.shard.mu.Unlock()
	if ok, _ := e.pollSubscription(dec, time.Time{}, auth, body); !ok {
		t.Fatal("poll failed")
	}
	dec.release()
	if c := cap(dec.members); c > maxPooledBuilt {
		t.Errorf("released decoder keeps %d members of capacity, want <= %d", c, maxPooledBuilt)
	}
	for i, ra := range dec.members[:cap(dec.members)] {
		if ra != nil {
			t.Fatalf("released decoder still references member %d", i)
		}
	}
}
