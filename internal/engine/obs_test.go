package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// newObsRig is newRig plus a metrics registry and a span sink.
func newObsRig(t *testing.T) (*rig, *obs.Registry, *[]obs.ExecSpan) {
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

	reg := obs.NewRegistry()
	spans := &[]obs.ExecSpan{}
	r := &rig{clock: clock, net: net, svc: svc}
	r.engine = New(Config{
		Clock:   clock,
		RNG:     rng.Split("engine"),
		Doer:    net.Client("engine.sim"),
		Poll:    FixedInterval{Interval: 5 * time.Second},
		Metrics: reg,
		OnSpan: func(s obs.ExecSpan) {
			r.mu.Lock()
			*spans = append(*spans, s)
			r.mu.Unlock()
		},
	})
	net.AddHost("engine.sim", r.engine.Handler())
	return r, reg, spans
}

// TestEngineMetricsHTTP drives one full execution and asserts the
// engine's /metrics endpoint serves the scheduler counters and the T2A
// histogram in Prometheus text format — the observability acceptance
// path end to end.
func TestEngineMetricsHTTP(t *testing.T) {
	r, _, spans := newObsRig(t)
	r.clock.Run(func() {
		if err := r.engine.Install(r.applet("a1")); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		r.clock.Sleep(7 * time.Second)
		r.svc.Publish("fired", map[string]string{"k": "v"})
		r.clock.Sleep(30 * time.Second)
		r.engine.Stop()
	})

	rec := httptest.NewRecorder()
	r.engine.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	// Counters must reflect the executed applet.
	m := regexp.MustCompile(`(?m)^ifttt_engine_polls_total (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("ifttt_engine_polls_total missing:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("polls_total = %d, want >= 2", n)
	}
	for _, want := range []string{
		"ifttt_engine_actions_ok_total 1",
		"ifttt_engine_events_received_total 1",
		"# TYPE ifttt_t2a_seconds histogram",
		`ifttt_t2a_seconds_bucket{le="`,
		"ifttt_t2a_seconds_count 1",
		"ifttt_polling_gap_seconds_count 1",
		"ifttt_engine_applets 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz rides on the same handler.
	rec = httptest.NewRecorder()
	r.engine.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// The span sink observed the same execution, with a sane breakdown:
	// the event waited in the service buffer, then poll RTT, processing
	// (dispatch delay), delivery — all non-negative, T2A covering them.
	if len(*spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(*spans))
	}
	s := (*spans)[0]
	if s.AppletID != "a1" || s.Failed {
		t.Errorf("span = %+v", s)
	}
	if s.EventAt.IsZero() {
		t.Error("span missing EventAt (service timestamp)")
	}
	if s.T2A() <= 0 {
		t.Errorf("T2A = %v, want > 0", s.T2A())
	}
	if s.Delivery() <= 0 {
		t.Errorf("Delivery = %v, want > 0 (simnet latency)", s.Delivery())
	}
	if s.Processing() < time.Second {
		t.Errorf("Processing = %v, want >= 1s dispatch delay", s.Processing())
	}
	if got := s.PollingGap() + s.PollRTT() + s.Processing() + s.Delivery(); got > s.T2A()+2*time.Second {
		// EventAt has unix-second granularity, so allow slack.
		t.Errorf("segments sum %v inconsistent with T2A %v", got, s.T2A())
	}
}

// Latencies of spanDoer, the scripted partner of TestExecSpanFields.
const (
	spanPollRTT     = 200 * time.Millisecond
	spanDeliveryRTT = 300 * time.Millisecond
)

// spanDoer is a partner on the simulated clock with fixed latencies: a
// poll of trigger slug s answers after spanPollRTT with the events
// published on s (newest first, nanosecond timestamps); an action
// answers after spanDeliveryRTT, with a 400 for the "fail" slug.
type spanDoer struct {
	clock  simtime.Clock
	mu     sync.Mutex
	events map[string][]proto.TriggerEvent // by trigger slug, oldest first
}

// publish buffers event id on slug, stamped now, and returns the stamp.
func (d *spanDoer) publish(slug, id string) time.Time {
	now := d.clock.Now()
	d.mu.Lock()
	d.events[slug] = append(d.events[slug], proto.TriggerEvent{
		Ingredients: map[string]string{"k": "v"},
		Meta:        proto.EventMeta{ID: id, TimestampNanos: now.UnixNano()},
	})
	d.mu.Unlock()
	return now
}

func (d *spanDoer) Do(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	status, body := http.StatusOK, []byte(`{"data":[{"id":"ok"}]}`)
	if slug, ok := strings.CutPrefix(req.URL.Path, proto.TriggersPath); ok {
		d.clock.Sleep(spanPollRTT)
		d.mu.Lock()
		resp := proto.TriggerPollResponse{Data: slices.Clone(d.events[slug])}
		d.mu.Unlock()
		slices.Reverse(resp.Data)
		if resp.Data == nil {
			resp.Data = []proto.TriggerEvent{}
		}
		body, _ = json.Marshal(resp)
	} else {
		d.clock.Sleep(spanDeliveryRTT)
		if strings.HasSuffix(req.URL.Path, "/fail") {
			status, body = http.StatusBadRequest, []byte(`{"errors":[{"message":"no"}]}`)
		}
	}
	return &http.Response{
		StatusCode: status,
		Body:       io.NopCloser(bytes.NewReader(body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// serviceGaps polls each trigger service at its own fixed gap.
type serviceGaps map[string]time.Duration

func (g serviceGaps) NextGap(service string, _ *stats.RNG) time.Duration { return g[service] }

// TestExecSpanFields drives one execution of every shape through a
// scripted partner and checks every field of every span against the
// schedule: a hinted poll, a coalesced poll fanned out to two members,
// a push execution, a condition skip (which completes no span) and a
// failed action. Each timestamp is the instant of its trace event.
func TestExecSpanFields(t *testing.T) {
	const dispatch = time.Second
	clock := simtime.NewSimDefault()
	doer := &spanDoer{clock: clock, events: map[string][]proto.TriggerEvent{}}
	var mu sync.Mutex
	var spans []obs.ExecSpan
	var traces []TraceEvent
	eng := New(Config{
		Clock: clock, RNG: stats.NewRNG(5), Doer: doer,
		Poll:             serviceGaps{"svc": 10 * time.Second, "pushsvc": 10 * time.Second, "rt": time.Hour},
		RealtimeServices: map[string]bool{"rt": true},
		DispatchDelay:    dispatch,
		Shards:           1, ShardWorkers: 8,
		Coalesce: true, Push: true,
		Trace: func(ev TraceEvent) {
			mu.Lock()
			traces = append(traces, ev)
			mu.Unlock()
		},
		OnSpan: func(s obs.ExecSpan) {
			mu.Lock()
			spans = append(spans, s)
			mu.Unlock()
		},
	})
	applet := func(id, user, service, slug, action string, conds ...Condition) Applet {
		return Applet{ID: id, UserID: user, Conditions: conds,
			Trigger: ServiceRef{Service: service, BaseURL: "http://p.sim", Slug: slug},
			Action:  ServiceRef{Service: "act", BaseURL: "http://p.sim", Slug: action},
		}
	}
	pushed := applet("push", "u1", "pushsvc", "pushed", "ok")
	var t0, at1, at2, pushEventAt time.Time
	clock.Run(func() {
		defer eng.Stop()
		t0 = clock.Now()
		for _, a := range []Applet{
			applet("hint", "uh", "rt", "hinted", "ok"),
			applet("m1", "u1", "svc", "shared", "ok"),
			applet("m2", "u1", "svc", "shared", "ok"),
			applet("skip", "u1", "svc", "skipped", "ok", IngredientEquals{Key: "k", Value: "never"}),
			applet("broken", "u1", "svc", "broken", "fail"),
			pushed,
		} {
			if err := eng.Install(a); err != nil {
				t.Errorf("install %s: %v", a.ID, err)
				return
			}
		}
		clock.Sleep(time.Second)
		at1 = doer.publish("shared", "s1")
		doer.publish("skipped", "k1")
		doer.publish("broken", "b1")
		clock.Sleep(time.Second)
		at2 = doer.publish("hinted", "h1")
		clock.Sleep(time.Second)
		// Honoured after DefaultRealtimeDelay: polled at 4.5 s, an hour
		// before the subscription's schedule.
		eng.ApplyHint(proto.RealtimeHint{UserID: "uh"})
		clock.Sleep(1900 * time.Millisecond)
		pushEventAt = clock.Now()
		clock.Sleep(100 * time.Millisecond)
		resp := eng.PushDeliveries([]proto.PushDelivery{{
			TriggerIdentity: pushed.CoalescedTriggerIdentity(),
			Events: []proto.TriggerEvent{{Ingredients: map[string]string{"k": "v"},
				Meta: proto.EventMeta{ID: "p1", TimestampNanos: pushEventAt.UnixNano()}}},
		}})
		if resp.Accepted != 1 {
			t.Errorf("push %+v, want 1 accepted", resp)
		}
		clock.Sleep(25 * time.Second)
	})

	at := func(d time.Duration) time.Time { return t0.Add(d) }
	ms := time.Millisecond
	failed := func(kind TraceKind, applet string) TraceEvent {
		for _, ev := range traces {
			if ev.Kind == kind && ev.AppletID == applet {
				return ev
			}
		}
		t.Fatalf("no %s trace for %s", kind, applet)
		return TraceEvent{}
	}
	errMsg := failed(TraceActionFailed, "broken").Err
	if errMsg == "" {
		t.Error("action_failed trace carries no error")
	}
	if n := len(traceKinds(traces, TraceConditionSkip)); n != 1 {
		t.Errorf("%d condition skips, want 1", n)
	}
	want := map[string]obs.ExecSpan{
		"hint": {AppletID: "hint", EventID: "h1", TriggerService: "rt",
			HintAt: at(4500 * ms), PollSentAt: at(4500 * ms), PollResultAt: at(4700 * ms), EventAt: at2,
			ActionSentAt: at(5700 * ms), ActionDoneAt: at(6000 * ms)},
		"push": {AppletID: "push", EventID: "p1", TriggerService: "pushsvc",
			IngestAt: at(5000 * ms), PollSentAt: at(5000 * ms), PollResultAt: at(5000 * ms), EventAt: pushEventAt,
			ActionSentAt: at(6000 * ms), ActionDoneAt: at(6300 * ms), Pushed: true},
		// One poll, two members: m2's action goes out when m1's is acked.
		"m1": {AppletID: "m1", EventID: "s1", TriggerService: "svc",
			PollSentAt: at(10 * time.Second), PollResultAt: at(10200 * ms), EventAt: at1,
			ActionSentAt: at(11200 * ms), ActionDoneAt: at(11500 * ms)},
		"m2": {AppletID: "m2", EventID: "s1", TriggerService: "svc",
			PollSentAt: at(10 * time.Second), PollResultAt: at(10200 * ms), EventAt: at1,
			ActionSentAt: at(11500 * ms), ActionDoneAt: at(11800 * ms)},
		"broken": {AppletID: "broken", EventID: "b1", TriggerService: "svc",
			PollSentAt: at(10 * time.Second), PollResultAt: at(10200 * ms), EventAt: at1,
			ActionSentAt: at(11200 * ms), ActionDoneAt: at(11500 * ms), Failed: true, Err: errMsg},
	}
	if len(spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(spans), len(want), spans)
	}
	execs := map[uint64][]string{}
	for _, got := range spans {
		w, ok := want[got.AppletID]
		if !ok {
			t.Errorf("unexpected span %+v", got)
			continue
		}
		// The exec ID is the one on the execution's trace events.
		end := TraceActionAcked
		if got.Failed {
			end = TraceActionFailed
		}
		w.ExecID = failed(end, got.AppletID).ExecID
		if !sameSpan(got, w) {
			t.Errorf("span %s\n got %+v\nwant %+v", got.AppletID, got, w)
		}
		execs[got.ExecID] = append(execs[got.ExecID], got.AppletID)
	}
	if len(execs) != 4 {
		t.Errorf("executions %v: want the two coalesced members under one exec ID, every other span under its own", execs)
	}
}

// sameSpan compares spans field by field, instants with time.Equal.
func sameSpan(a, b obs.ExecSpan) bool {
	for _, p := range [][2]time.Time{
		{a.HintAt, b.HintAt}, {a.IngestAt, b.IngestAt}, {a.PollSentAt, b.PollSentAt},
		{a.PollResultAt, b.PollResultAt}, {a.EventAt, b.EventAt},
		{a.ActionSentAt, b.ActionSentAt}, {a.ActionDoneAt, b.ActionDoneAt},
	} {
		if !p[0].Equal(p[1]) {
			return false
		}
	}
	return a.ExecID == b.ExecID && a.AppletID == b.AppletID && a.EventID == b.EventID &&
		a.TriggerService == b.TriggerService && a.Pushed == b.Pushed &&
		a.Failed == b.Failed && a.Err == b.Err
}

func traceKinds(evs []TraceEvent, kind TraceKind) []TraceEvent {
	var out []TraceEvent
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestSpansLossless runs more than ten thousand executions, some of
// them failing, on 8 shards of 8 workers with metrics and the SLO tier
// on, and checks that every one completed exactly one span into every
// sink: the T2A histogram, the span counter and OnSpan all count what
// the engine's action counters count.
func TestSpansLossless(t *testing.T) {
	const applets = 200
	clock := simtime.NewSimDefault()
	reg := obs.NewRegistry()
	var onSpan atomic.Int64
	rng := stats.NewRNG(9)
	inj := faults.New(clock, rng.Split("faults"))
	inj.AddRule(faults.Rule{PathPrefix: proto.ActionsPath, ErrorRate: 0.1})
	eng := New(Config{
		Clock: clock, RNG: rng.Split("engine"), Doer: inj.Wrap(&eventDoer{clock: clock}),
		Poll:          FixedInterval{Interval: time.Second},
		DispatchDelay: -1, Shards: 8, ShardWorkers: 8,
		Metrics: reg,
		SLO:     &slo.Config{},
		OnSpan:  func(obs.ExecSpan) { onSpan.Add(1) },
	})
	clock.Run(func() {
		defer eng.Stop()
		for i := 0; i < applets; i++ {
			if err := eng.Install(sloApplet(i, "svc")); err != nil {
				t.Errorf("install: %v", err)
				return
			}
		}
		clock.Sleep(time.Minute)
	})

	st := eng.Stats()
	executed := st.ActionsOK + st.ActionsFailed
	if executed < 10_000 || st.ActionsFailed == 0 {
		t.Fatalf("%d executions (%d failed), want >= 10000 with some failing", executed, st.ActionsFailed)
	}
	t.Logf("%d executions, %d failed", executed, st.ActionsFailed)
	var spansTotal float64
	for _, m := range reg.Snapshot() {
		if m.Name == "ifttt_spans_total" {
			spansTotal = *m.Value
		}
	}
	if h := reg.LookupHistogram("ifttt_t2a_seconds").Count(); h != executed {
		t.Errorf("ifttt_t2a_seconds count %d, want %d executions", h, executed)
	}
	if int64(spansTotal) != executed {
		t.Errorf("ifttt_spans_total %v, want %d executions", spansTotal, executed)
	}
	if n := onSpan.Load(); n != executed {
		t.Errorf("OnSpan called %d times, want %d executions", n, executed)
	}
}

// TestStatsUnderChurn hammers Install/Remove/Stats concurrently on the
// real clock and checks every snapshot is consistent: counters are
// non-negative and monotonic, and the final applet count matches the
// surviving population.
func TestStatsUnderChurn(t *testing.T) {
	clock := simtime.NewReal()
	rng := stats.NewRNG(7)
	net := simnet.New(clock, rng.Split("net"))
	net.SetDefaultLink(simnet.Link{Latency: stats.Constant(0)})
	svc := service.New(service.Config{Name: "testsvc", Clock: clock, ServiceKey: "k"})
	svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
	svc.RegisterAction(service.ActionSpec{
		Slug:    "act",
		Execute: func(map[string]string, proto.UserInfo) error { return nil },
	})
	net.AddHost("svc.sim", svc.Handler())

	e := New(Config{
		Clock:         clock,
		RNG:           rng.Split("engine"),
		Doer:          net.Client("engine.sim"),
		Poll:          FixedInterval{Interval: time.Millisecond},
		DispatchDelay: -1,
		Shards:        4,
		Metrics:       obs.NewRegistry(),
	})
	mkApplet := func(i int) Applet {
		return Applet{
			ID:     "churn-" + strconv.Itoa(i),
			UserID: "u" + strconv.Itoa(i%7),
			Trigger: ServiceRef{
				Service: "testsvc", BaseURL: "http://svc.sim", Slug: "fired", ServiceKey: "k",
			},
			Action: ServiceRef{
				Service: "testsvc", BaseURL: "http://svc.sim", Slug: "act", ServiceKey: "k",
			},
		}
	}

	const installers = 4
	const perInstaller = 50
	var wg sync.WaitGroup
	var stop atomic.Bool
	// Stats readers assert monotonicity while churn runs.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Stats
			for !stop.Load() {
				st := e.Stats()
				if st.Applets < 0 || st.Polls < last.Polls ||
					st.EventsReceived < last.EventsReceived ||
					st.ActionsOK < last.ActionsOK ||
					st.PollFailures < last.PollFailures {
					t.Errorf("stats went backwards: %+v -> %+v", last, st)
					return
				}
				last = st
			}
		}()
	}
	for g := 0; g < installers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perInstaller; i++ {
				id := g*perInstaller + i
				if err := e.Install(mkApplet(id)); err != nil {
					t.Errorf("install %d: %v", id, err)
					return
				}
				if id%3 == 0 {
					e.Remove("churn-" + strconv.Itoa(id))
				}
			}
		}(g)
	}
	// Let some polls fire while churn is happening.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	want := 0
	for id := 0; id < installers*perInstaller; id++ {
		if id%3 != 0 {
			want++
		}
	}
	if got := e.Stats().Applets; got != want {
		t.Errorf("final applets = %d, want %d", got, want)
	}
	if got := len(e.Applets()); got != want {
		t.Errorf("Applets() len = %d, want %d", got, want)
	}
	e.Stop()
	if st := e.Stats(); st.Polls == 0 {
		t.Error("no polls observed during churn window")
	}
}
