package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// sentRequest is what a Doer saw of one request, copied out during Do:
// the engine assembles requests in pooled scratch, so nothing of a
// request may be looked at after its exchange is over.
type sentRequest struct {
	Method, URL, Host string
	Header            http.Header
	Body              string
}

// recordingDoer answers every request with an empty 200 and keeps a
// copy of each.
type recordingDoer struct {
	mu   sync.Mutex
	sent []sentRequest
}

func (d *recordingDoer) Do(req *http.Request) (*http.Response, error) {
	s := sentRequest{Method: req.Method, URL: req.URL.String(), Host: req.Host, Header: req.Header.Clone()}
	if req.Body != nil {
		b, _ := io.ReadAll(req.Body)
		req.Body.Close()
		s.Body = string(b)
	}
	d.mu.Lock()
	d.sent = append(d.sent, s)
	d.mu.Unlock()
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(`{"data":[]}`))}, nil
}

func (d *recordingDoer) last(t *testing.T) sentRequest {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.sent) == 0 {
		t.Fatal("no request was sent")
	}
	return d.sent[len(d.sent)-1]
}

// parentPollRequest is the poll the engine sent for lead as the oldest
// member of the subscription key before requests were assembled from an
// interned endpoint and a rendered blob: httpx.NewPrepared over the
// trigger URL with the service key and bearer token set through
// WithHeader, the body json.Marshal of the TriggerPollRequest.
func parentPollRequest(t *testing.T, key string, lead *Applet, pollLimit int) sentRequest {
	t.Helper()
	req := proto.TriggerPollRequest{
		TriggerIdentity: key,
		TriggerFields:   lead.Trigger.Fields,
		User:            proto.UserInfo{ID: lead.UserID},
		Source:          proto.Source{ID: lead.ID},
	}
	if pollLimit > 0 {
		req.Limit = &pollLimit
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := sentRequest{
		Method: "POST",
		URL:    lead.Trigger.BaseURL + "/ifttt/v1/triggers/" + lead.Trigger.Slug,
		Host:   strings.TrimPrefix(lead.Trigger.BaseURL, "http://"),
		Header: http.Header{
			"Content-Type":      {"application/json; charset=utf-8"},
			"Accept":            {"application/json"},
			"Ifttt-Service-Key": {lead.Trigger.ServiceKey},
			"Authorization":     {"Bearer " + lead.Trigger.UserToken},
		},
		Body: string(body),
	}
	// The prototype API itself still sends exactly that.
	p, err := httpx.NewPrepared("POST", proto.TriggerURL(lead.Trigger.BaseURL, lead.Trigger.Slug), req,
		httpx.WithHeader(proto.ServiceKeyHeader, lead.Trigger.ServiceKey),
		httpx.WithHeader("Authorization", "Bearer "+lead.Trigger.UserToken))
	if err != nil {
		t.Fatal(err)
	}
	var d recordingDoer
	if _, err := httpx.NewClient(&d, simtime.NewReal(), 0).DoPrepared(p, nil); err != nil {
		t.Fatal(err)
	}
	if got := d.last(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("httpx.NewPrepared sends\n %+v\nwant\n %+v", got, want)
	}
	return want
}

// TestPollRequestBytesUnchanged holds the poll on the wire — method,
// URL, Host, the whole header set and the body — to what the engine sent
// when every subscription carried an httpx.Prepared of its own.
func TestPollRequestBytesUnchanged(t *testing.T) {
	wire := func(id, user, token string, fields map[string]string) Applet {
		return Applet{ID: id, Name: "wire " + id, UserID: user,
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim:8080", Slug: "fired",
				Fields: fields, ServiceKey: "service-key", UserToken: token},
			Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim:8080", Slug: "act", ServiceKey: "service-key", UserToken: token}}
	}
	tricky := map[string]string{
		"quote": `say "hi"`, "html": "<b>&amp;</b>", "sep": "a\u2028b\u2029c", "bad": "caf\xe9 \xff", "plain": "x",
		"k<&>": "v", "nine": "9", "ten": "10", "eleven": "11", // more keys than the encoder's stack array
	}
	newEngine := func(d httpx.Doer, mod func(*Config)) *Engine {
		cfg := Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: d,
			Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 2}
		if mod != nil {
			mod(&cfg)
		}
		e := New(cfg)
		t.Cleanup(e.Stop)
		return e
	}
	check := func(t *testing.T, e *Engine, d *recordingDoer, sub *subscription, lead *Applet, limit int) {
		t.Helper()
		if ok, _ := pollOnce(e, sub); !ok {
			t.Fatal("poll failed")
		}
		if got, want := d.last(t), parentPollRequest(t, sub.key, lead, limit); !reflect.DeepEqual(got, want) {
			t.Errorf("poll on the wire\n %+v\nwant\n %+v", got, want)
		}
	}

	for _, limit := range []int{0, 50} {
		for name, fields := range map[string]map[string]string{"nil": nil, "empty": {}, "one": {"n": "7"}, "tricky": tricky} {
			t.Run(fmt.Sprintf("limit%d/%s", limit, name), func(t *testing.T) {
				d := &recordingDoer{}
				e := newEngine(d, func(c *Config) { c.PollLimit = limit })
				a := wire("a1", "u1", `tok"<1>`, fields)
				if err := e.Install(a); err != nil {
					t.Fatal(err)
				}
				check(t, e, d, e.applets["a1"].sub, &a, limit)
			})
		}
	}

	t.Run("lead leaves", func(t *testing.T) {
		d := &recordingDoer{}
		e := newEngine(d, func(c *Config) { c.Coalesce = true })
		first, second := wire("a1", "u1", "tok", tricky), wire("a2", "u1", "tok", tricky)
		for _, a := range []Applet{first, second} {
			if err := e.Install(a); err != nil {
				t.Fatal(err)
			}
		}
		sub := e.applets["a2"].sub
		if sub != e.applets["a1"].sub {
			t.Fatal("identical triggers did not coalesce")
		}
		check(t, e, d, sub, &first, 0)
		e.Remove("a1")
		check(t, e, d, sub, &second, 0)
		// The key was re-pointed at the new blob, and the index re-keyed.
		if !keyViewsBlob(sub) {
			t.Error("after the lead left, the key is not a view of the new blob")
		}
		if got := lockIdentity(e, sub.key); got != sub {
			t.Fatalf("index resolves the key to %p, want %p", got, sub)
		} else {
			got.shard.mu.Unlock()
		}
	})

	t.Run("foreign key", func(t *testing.T) {
		// A key from another engine's snapshot that JSON escapes keeps a
		// string of its own, and polls and resolves as sent.
		d := &recordingDoer{}
		e := newEngine(d, nil)
		a := wire("a1", "u1", "tok", nil)
		const key = `ti-"odd"\key<&>`
		if err := e.AttachSubscription(&SubscriptionSnapshot{Key: key, Members: []MemberSnapshot{{Applet: a}}}); err != nil {
			t.Fatal(err)
		}
		sub := e.applets["a1"].sub
		if sub.key != key || keyViewsBlob(sub) {
			t.Errorf("key %q (a view of the blob: %v), want its own %q", sub.key, keyViewsBlob(sub), key)
		}
		check(t, e, d, sub, &a, 0)
		if snap, err := e.DetachSubscription(key); err != nil || snap == nil || snap.Key != key {
			t.Errorf("detach by the foreign key: %+v, %v", snap, err)
		}
	})

	t.Run("detach attach", func(t *testing.T) {
		d := &recordingDoer{}
		src, dst := newEngine(d, nil), newEngine(d, func(c *Config) { c.PollLimit = 20 })
		a := wire("a1", "u1", "tok", tricky)
		if err := src.Install(a); err != nil {
			t.Fatal(err)
		}
		key := a.TriggerIdentity()
		snap, err := src.DetachSubscription(key)
		if err != nil || snap == nil {
			t.Fatalf("detach: %v, %v", snap, err)
		}
		if got := snap.Members[0].Applet; !reflect.DeepEqual(got, a) {
			t.Errorf("snapshot rebuilt the applet as\n %+v\nwant\n %+v", got, a)
		}
		if err := dst.AttachSubscription(snap); err != nil {
			t.Fatal(err)
		}
		check(t, dst, d, dst.applets["a1"].sub, &a, 20)
		if sub := dst.applets["a1"].sub; !keyViewsBlob(sub) {
			t.Error("an attached subscription's key is not a view of its blob")
		}
	})
}

// keyViewsBlob reports whether sub's key is a view of its blob's bytes.
func keyViewsBlob(sub *subscription) bool {
	k, b := uintptr(unsafe.Pointer(unsafe.StringData(sub.key))), uintptr(unsafe.Pointer(unsafe.StringData(sub.blob)))
	return k-b < uintptr(len(sub.blob))
}

// TestPollIdleAllocs bounds the empty poll, the one a silent
// subscription costs every gap: the request is assembled in pooled
// scratch, so what is left is the Doer's response (one object here).
func TestPollIdleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: emptyPollDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1})
	defer e.Stop()
	if err := e.Install(residentApplet(1)); err != nil {
		t.Fatal(err)
	}
	sub := e.applets[residentApplet(1).ID].sub
	poll := func() {
		if ok, fresh := pollOnce(e, sub); !ok || fresh != 0 {
			t.Fatalf("poll ok=%v fresh=%d, want an empty success", ok, fresh)
		}
	}
	poll()
	allocs := testing.AllocsPerRun(500, poll)
	t.Logf("empty poll: %.1f allocs/op", allocs)
	if allocs > 2 {
		t.Errorf("empty poll allocates %.1f/op, want <= 2", allocs)
	}
}

// warnCounter counts log records by message.
type warnCounter struct {
	mu   sync.Mutex
	msgs map[string]int
}

func (w *warnCounter) Enabled(context.Context, slog.Level) bool { return true }
func (w *warnCounter) WithAttrs([]slog.Attr) slog.Handler       { return w }
func (w *warnCounter) WithGroup(string) slog.Handler            { return w }
func (w *warnCounter) Handle(_ context.Context, r slog.Record) error {
	w.mu.Lock()
	w.msgs[r.Message]++
	w.mu.Unlock()
	return nil
}

// TestPollUnparsableBaseURL: a trigger base URL that does not parse is
// reported once, when its endpoint is interned, and from then on every
// poll of it fails the way a refused connection does — no response, so a
// transport error, backed off and then tripped by the breaker — through
// the one request path. Counters, trace kinds and the failure text are
// the ones the engine produced when such polls went through a fallback of
// their own (DoJSON building the request per attempt).
func TestPollUnparsableBaseURL(t *testing.T) {
	clock := simtime.NewSimDefault()
	var mu sync.Mutex
	kinds := map[TraceKind]int{}
	var failure string
	logs := &warnCounter{msgs: map[string]int{}}
	d := &recordingDoer{}
	e := New(Config{Clock: clock, RNG: stats.NewRNG(3), Doer: d, Shards: 1, ShardWorkers: 1,
		Poll: FixedInterval{Interval: time.Minute}, DispatchDelay: -1, Logger: slog.New(logs),
		Trace: func(ev TraceEvent) {
			mu.Lock()
			kinds[ev.Kind]++
			if ev.Kind == TracePollFailed {
				failure = ev.Err
			}
			mu.Unlock()
		}})
	bad := func(id string) Applet {
		return Applet{ID: id, UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://bad host/%zz", Slug: "fired", ServiceKey: "k", UserToken: "tok"},
			Action:  ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"}}
	}
	clock.Run(func() {
		defer e.Stop()
		for _, id := range []string{"a1", "a2"} {
			if err := e.Install(bad(id)); err != nil {
				t.Error(err)
			}
		}
		clock.Sleep(30 * time.Minute)
	})

	st := e.Stats()
	t.Logf("stats %+v\ntrace kinds %v\nlogs %v\nlast failure %q", st, kinds, logs.msgs, failure)
	// Per applet: the poll at 1 min fails, four backed-off retries fail
	// (30 s, 1, 2, 4 min nominal, jittered), the fifth failure opens the
	// breaker, and probes follow every ~5 min until the half hour is up.
	if st.Polls != st.PollFailures || st.PollErrorsTransport != st.Polls || st.PollErrorsHTTP != 0 {
		t.Errorf("every poll must fail as a transport error: %+v", st)
	}
	if st.BreakerOpens != 2 || st.BreakersOpen != 2 || st.BreakerProbes == 0 || st.BreakerCloses != 0 {
		t.Errorf("both breakers must open and stay open under probes: %+v", st)
	}
	// One shard, one worker, one seed: the schedule repeats, and these are
	// the parent's numbers (5 polls to trip each breaker, then 3 and 4
	// probes in what is left of the half hour).
	if st.Polls != 17 || st.BreakerProbes != 7 {
		t.Errorf("polls = %d, probes = %d, want 17 and 7", st.Polls, st.BreakerProbes)
	}
	wantKinds := map[TraceKind]int{
		TraceInstall: 2, TracePollSent: int(st.Polls), TracePollFailed: int(st.Polls),
		TraceBreakerOpen: 2, TraceBreakerProbe: int(st.BreakerProbes),
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("trace kinds %v, want %v", kinds, wantKinds)
	}
	if !strings.HasPrefix(failure, "POST http://bad host/%zz/ifttt/v1/triggers/fired: parse ") {
		t.Errorf("poll_failed carries %q, want the request and the parse error", failure)
	}
	if len(d.sent) != 0 {
		t.Errorf("%d requests reached the Doer for a URL that does not parse", len(d.sent))
	}
	if n := logs.msgs["endpoint URL does not parse, requests to it will fail"]; n != 1 {
		t.Errorf("unparsable endpoint reported %d times, want once for two applets and %d polls (logs %v)", n, st.Polls, logs.msgs)
	}
	if n := logs.msgs["trigger poll failed"]; n != int(st.Polls) {
		t.Errorf("%d failed-poll warnings for %d failed polls", n, st.Polls)
	}
}

// TestIdentityGolden pins the identity strings: they are sent to trigger
// services as trigger_identity, written to WAL records and snapshots,
// and index the cluster ring, so an engine must derive today the string
// it derived when the subscription was made. The values were printed by
// the fmt.Fprintf-into-hash/fnv implementation this one replaced.
func TestIdentityGolden(t *testing.T) {
	many := map[string]string{}
	for i := 0; i < 11; i++ { // more keys than the sort's stack array holds
		many[fmt.Sprintf("k%02d", 10-i)] = fmt.Sprintf("v%d", i)
	}
	tr := func(f map[string]string) ServiceRef {
		return ServiceRef{Service: "svc", BaseURL: "https://api.svc.sim", Slug: "fired", Fields: f, ServiceKey: "key", UserToken: "tok"}
	}
	cases := []struct {
		a      Applet
		ti, ci string
	}{
		{Applet{}, "ti-08e34c07b581a8a5", "ci-ba987cdfa315153b"},
		{Applet{ID: "a1", UserID: "u1", Trigger: tr(nil)}, "ti-4edda600b3c2739f", "ci-5152708631a510b6"},
		{Applet{ID: "a1", UserID: "u1", Trigger: tr(map[string]string{})}, "ti-4edda600b3c2739f", "ci-5152708631a510b6"},
		{Applet{ID: "a1", UserID: "u1", Trigger: tr(map[string]string{"n": "7"})}, "ti-7cb70ab171a3c5fd", "ci-e5f1fe98048fc320"},
		{Applet{ID: "a2", UserID: "u1", Trigger: tr(map[string]string{"n": "7"})}, "ti-7848a4f98f42e358", "ci-e5f1fe98048fc320"},
		{Applet{ID: "a1", UserID: "u2", Trigger: tr(map[string]string{"zeta": "1", "alpha": "2", "mid": "3"})}, "ti-c44893ae3a728d02", "ci-2729a0b15859d64a"},
		{Applet{ID: "a1", UserID: "u1", Trigger: tr(many)}, "ti-e1f3d102793c2269", "ci-08ed34016f49cc44"},
		// Separators are hashed as they come, unescaped; so are bytes
		// outside ASCII.
		{Applet{ID: "a|1", UserID: "u=1", Trigger: tr(map[string]string{"k|1": "v=1", "k=2": "v|2", "clé": "värde 日本", "": ""})},
			"ti-52fcf20d26315548", "ci-21928ca8a84a79d6"},
		{Applet{ID: "a1", UserID: "u1", Trigger: ServiceRef{Service: "s|x", BaseURL: "http://h/p?q=1|2", Slug: "sl=ug", ServiceKey: "k|", UserToken: "t=",
			Fields: map[string]string{"a=b": "c", "a": "b=c"}}}, "ti-84e926bde4c1affc", "ci-d22741a5b782d613"},
	}
	for i, c := range cases {
		if got := c.a.TriggerIdentity(); got != c.ti {
			t.Errorf("case %d: TriggerIdentity = %s, want %s", i, got, c.ti)
		}
		if got := c.a.CoalescedTriggerIdentity(); got != c.ci {
			t.Errorf("case %d: CoalescedTriggerIdentity = %s, want %s", i, got, c.ci)
		}
	}
	if raceEnabled {
		return
	}
	a := &cases[5].a
	if allocs := testing.AllocsPerRun(100, func() { identitySink = a.TriggerIdentity() }); allocs != 1 {
		t.Errorf("TriggerIdentity allocates %.1f/op, want 1 (the string it returns)", allocs)
	}
}

var identitySink string
