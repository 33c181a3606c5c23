package engine

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// mapIngredients is the view of an event carrying ingredients, recorded
// the way PushDeliveries records a typed event.
func mapIngredients(ingredients map[string]string) Ingredients {
	var a eventArena
	ev := a.typed(&proto.TriggerEvent{Ingredients: ingredients})
	return a.ingredients(&ev)
}

// expandIngredients is appendExpanded as a string function, for the
// template tests.
func expandIngredients(tmpl string, ingredients map[string]string) string {
	return string(appendExpanded(nil, tmpl, mapIngredients(ingredients)))
}

// TestExpandIngredientsEdgeCases covers the template corners the basic
// round-trip test misses: a closer with no opener, unclosed openers
// with text on both sides, empty keys, and adjacent placeholders.
func TestExpandIngredientsEdgeCases(t *testing.T) {
	ing := map[string]string{"a": "1", "b": "2", "": "empty"}
	cases := []struct{ in, want string }{
		// Unclosed opener: everything from the opener on is literal.
		{"pre {{a", "pre {{a"},
		{"{{a}} then {{b", "1 then {{b"},
		// A bare closer with no opener is plain text.
		{"no open }} here", "no open }} here"},
		// Empty key resolves like any other (and is present here).
		{"{{}}", "empty"},
		// Whitespace-only key trims to the empty key.
		{"{{  }}", "empty"},
		// Adjacent placeholders with nothing between them.
		{"{{a}}{{b}}", "12"},
		{"{{a}}{{a}}{{a}}", "111"},
		// Placeholder butted against braces.
		{"{{{a}}}", "}"}, // key "{a" is unknown → empty; trailing "}" stays
		{"", ""},
	}
	for _, c := range cases {
		if got := expandIngredients(c.in, ing); got != c.want {
			t.Errorf("expand(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Allocation regression guards for the per-event dispatch path. These
// are exact: the fast paths are pure reads (or appends into scratch)
// today, and any future allocation on them multiplies by events ×
// applets × polls.

func TestExpandIngredientsNoPlaceholderAllocs(t *testing.T) {
	ing := mapIngredients(map[string]string{"subject": "hello"})
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendExpanded(buf[:0], "a plain action field without templates", ing)
		buf = appendExpanded(buf[:0], "a templated field: {{subject}} {{missing}}", ing)
	})
	if allocs != 0 {
		t.Errorf("appendExpanded into scratch allocates %.1f/op, want 0", allocs)
	}
}

func TestDedupRingDuplicateAddAllocs(t *testing.T) {
	r := newDedupRing(64)
	for i := 0; i < 64; i++ {
		r.Add(idHash(fmt.Sprintf("ev-%03d", i)))
	}
	// The steady state of a quiet trigger: every poll re-serves event
	// IDs the ring already remembers.
	h := idHash("ev-007")
	allocs := testing.AllocsPerRun(100, func() {
		if r.Add(h) {
			t.Fatal("duplicate reported fresh")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate dedupRing.Add allocates %.1f/op, want 0", allocs)
	}
}

// TestDedupRingHasAllocs: an ID is looked up as it sits in a response
// body, hashed from its bytes.
func TestDedupRingHasAllocs(t *testing.T) {
	r := newDedupRing(64)
	for i := 0; i < 64; i++ {
		r.Add(idHash(fmt.Sprintf("ev-%03d", i)))
	}
	body := []byte(`{"id":"ev-007"},{"id":"ev-999"}`)
	seen, unseen := body[7:13], body[23:29]
	allocs := testing.AllocsPerRun(100, func() {
		if !r.Has(idHash(seen)) || r.Has(idHash(unseen)) {
			t.Fatal("Has disagrees with the ring's contents")
		}
	})
	if allocs != 0 {
		t.Errorf("dedupRing.Has(idHash([]byte)) allocates %.1f/op, want 0", allocs)
	}
}

// cannedDoer answers polls with the next of its prepared bodies and
// actions with a fixed acknowledgement, allocating only the response
// shell, so the guards below measure the engine.
type cannedDoer struct {
	polls   [][]byte
	next    int
	ack     []byte
	actions int
}

type cannedResponse struct {
	http.Response
	body bytes.Reader
}

func (d *cannedDoer) Do(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	r := &cannedResponse{Response: http.Response{StatusCode: http.StatusOK}}
	if strings.HasPrefix(req.URL.Path, proto.ActionsPath) {
		r.body.Reset(d.ack)
		d.actions++
	} else {
		r.body.Reset(d.polls[d.next%len(d.polls)])
		d.next++
	}
	r.Body = io.NopCloser(&r.body)
	return &r.Response, nil
}

// allocRig is an engine with n installed applets a1 … an on one
// coalesced subscription, driven by calling the poll and dispatch paths
// directly (its scheduled poll is an hour of real time away). It
// returns a1.
func allocRig(t *testing.T, d *cannedDoer, n int, conds ...Condition) (*Engine, *runningApplet) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: d,
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1, Coalesce: true})
	t.Cleanup(e.Stop)
	for i := 1; i <= n; i++ {
		a := Applet{ID: "a" + strconv.Itoa(i), UserID: "u1", Conditions: conds,
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired", ServiceKey: "k", UserToken: "tok"},
			Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act", ServiceKey: "k", UserToken: "tok",
				Fields: map[string]string{"eid": "{{eid}}", "at": "{{at}}", "note": "fixed"}},
		}
		if err := e.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	ra := e.applets["a1"]
	if len(ra.sub.members) != n {
		t.Fatalf("subscription has %d members, want %d", len(ra.sub.members), n)
	}
	return e, ra
}

// pollOnce polls sub the way a shard worker does, minus the scheduling.
func pollOnce(e *Engine, sub *subscription) (ok bool, fresh int) {
	sub.shard.mu.Lock()
	dec := borrowDecoder(sub)
	auth, body := sub.blob[:sub.authLen], sub.blob[sub.authLen:]
	sub.shard.mu.Unlock()
	ok, fresh = e.pollSubscription(dec, time.Time{}, auth, body)
	dec.release()
	return ok, fresh
}

func benchEvent(b []byte, seq int) []byte {
	b = append(b, `{"eid":"1234.`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `","at":"1490400000000000000","meta":{"id":"1234.`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	return append(b, `","timestamp":1490400000,"timestamp_ns":1490400000000000000}}`...)
}

// TestPollOneFreshOfTwentyAllocs is the hot-poll steady state the wire
// codec exists for: a service re-serving its 20-event buffer, of which
// the applet has executed 19. The 19 must cost nothing, and neither does
// the request (pooled scratch) or the fresh event: its ID is hashed from
// the body's bytes and its record, ID and ingredients are copied into
// the decoder's scratch, where the condition reads them (and then skips
// the action, which has its own guard). No ID string is made. The bound
// is the measured cost, the Doer's response, 2, + 1.
func TestPollOneFreshOfTwentyAllocs(t *testing.T) {
	allocs := pollOneFreshOfTwentyAllocs(t, 1)
	if allocs > 3 {
		t.Errorf("20-event poll with 19 remembered allocates %.1f/op, want <= 3", allocs)
	}
}

// TestPollCoalescedFreshAllocs is the same poll on a subscription of
// four members, each with one event to take: each ID is hashed once and
// the event's record built once, the other members share them, so the
// poll costs no more than the one-member case.
func TestPollCoalescedFreshAllocs(t *testing.T) {
	single := pollOneFreshOfTwentyAllocs(t, 1)
	if coalesced := pollOneFreshOfTwentyAllocs(t, 4); coalesced > single {
		t.Errorf("20-event poll on 4 members allocates %.1f/op, one member %.1f/op", coalesced, single)
	}
}

// pollOneFreshOfTwentyAllocs measures a poll of a 20-event buffer on n
// coalesced members that each remember 19 of the events.
func pollOneFreshOfTwentyAllocs(t *testing.T, n int) float64 {
	const runs = 200
	d := &cannedDoer{}
	for k := 0; k <= runs+1; k++ { // body k serves events k+19 … k, newest first
		b := []byte(`{"data":[`)
		for seq := k + 19; seq >= k; seq-- {
			b = benchEvent(b, seq)
			if seq > k {
				b = append(b, ',')
			}
		}
		d.polls = append(d.polls, append(b, "]}"...))
	}
	e, ra := allocRig(t, d, n, IngredientEquals{Key: "eid", Value: "never"})
	for _, m := range ra.sub.members {
		for seq := 0; seq < 19; seq++ {
			m.remember(idHash("1234." + strconv.Itoa(seq)))
		}
	}
	poll := func() {
		if ok, fresh := pollOnce(e, ra.sub); !ok || fresh != 1 {
			t.Fatalf("poll ok=%v fresh=%d, want one fresh event", ok, fresh)
		}
	}
	poll() // warm the pools and the intern table
	allocs := testing.AllocsPerRun(runs, poll)
	t.Logf("20-event poll, %d members, 19 remembered: %.1f allocs/op", n, allocs)
	if st := e.Stats(); st.ConditionSkips != int64(n*(runs+2)) || st.ActionsOK != 0 {
		t.Errorf("stats %+v: every poll should have surfaced exactly one (skipped) event per member", st)
	}
	return allocs
}

// TestDispatchActionAllocs bounds one action execution of a polled
// event's record, its ingredients expanded from the decoder's scratch:
// credential and body rendered into the decoder's request buffer and
// copied from there into the client's pooled request scratch, the
// request assembled there around the interned endpoint, ack checked
// without decoding. The engine allocates nothing; both allocations are
// the Doer's response. Measured 2, the bound.
func TestDispatchActionAllocs(t *testing.T) {
	d := &cannedDoer{ack: []byte(`{"data":[{"id":"ok"}]}`)}
	e, ra := allocRig(t, d, 1)
	dec := &pollDecoder{execID: 1}
	if err := dec.scan.ScanPollResponse(append(benchEvent([]byte(`{"data":[`), 5), "]}"...)); err != nil {
		t.Fatal(err)
	}
	ev := dec.scanned(&dec.scan, 0, idHash(dec.scan.ID(0)))
	ing := dec.ingredients(&ev)
	if ing.Get("eid") != "1234.5" || ing.Get("at") != "1490400000000000000" {
		t.Fatalf("record's ingredients eid=%q at=%q", ing.Get("eid"), ing.Get("at"))
	}
	e.dispatchAction(dec, ra, &ev, ing)
	allocs := testing.AllocsPerRun(200, func() { e.dispatchAction(dec, ra, &ev, dec.ingredients(&ev)) })
	t.Logf("dispatchAction: %.1f allocs/op", allocs)
	if allocs > 2 {
		t.Errorf("dispatchAction allocates %.1f/op, want <= 2", allocs)
	}
	if st := e.Stats(); st.ActionsOK != 202 || st.ActionsFailed != 0 {
		t.Errorf("stats %+v: every dispatch should have been acknowledged", st)
	}
}

// pushAllocRig is an engine with n uncoalesced push subscriptions, one
// applet each, that acknowledges every action. It returns the applets'
// trigger identities.
func pushAllocRig(t *testing.T, n int) (*Engine, []string) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: &cannedDoer{ack: []byte(`{"data":[{"id":"ok"}]}`)},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1, Push: true, IngressQueue: 1 << 12})
	t.Cleanup(e.Stop)
	idents := make([]string, n)
	for i := range idents {
		a := Applet{ID: "a" + strconv.Itoa(i), UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired", ServiceKey: "k", UserToken: "tok",
				Fields: map[string]string{"room": strconv.Itoa(i)}},
			Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act", ServiceKey: "k", UserToken: "tok",
				Fields: map[string]string{"eid": "{{eid}}", "at": "{{at}}", "note": "fixed"}},
		}
		if err := e.Install(a); err != nil {
			t.Fatal(err)
		}
		idents[i] = a.TriggerIdentity()
	}
	return e, idents
}

// reusedRequest is a push request and a response writer that a handler
// can be served with again and again, allocating nothing of their own
// but the header value the handler sets.
type reusedRequest struct {
	req    *http.Request
	body   bytes.Reader
	data   []byte
	header http.Header
	status int
	out    []byte
}

func newReusedRequest(data []byte) *reusedRequest {
	r := &reusedRequest{data: data, header: http.Header{}}
	r.req = httptest.NewRequest(http.MethodPost, proto.PushPath, nil)
	r.req.Body = io.NopCloser(&r.body)
	return r
}

func (r *reusedRequest) Header() http.Header         { return r.header }
func (r *reusedRequest) WriteHeader(code int)        { r.status = code }
func (r *reusedRequest) Write(p []byte) (int, error) { r.out = append(r.out, p...); return len(p), nil }

func (r *reusedRequest) serve(h http.Handler) {
	r.body.Reset(r.data)
	r.status, r.out = http.StatusOK, r.out[:0]
	h.ServeHTTP(r, r.req)
}

// TestPushBatchAllocs bounds the push ingress: a batch of 50
// single-event deliveries, each for its own subscription, through
// Handler(). The body is read into httpx's pooled buffer and scanned by
// a pooled scanner, identities resolve from its bytes, each event's ID
// is hashed from them and its ID and ingredients are copied into its
// mailbox (recycled), and the response is rendered into pooled scratch:
// nothing is allocated per event. Each batch is counted inside a Replay
// window, so its executions wait on the ready queue and run after the
// count. Measured 4 per batch, + 0.2 per event.
func TestPushBatchAllocs(t *testing.T) {
	const deliveries, runs = 50, 100
	e, idents := pushAllocRig(t, deliveries)
	b := []byte(`{"data":[`)
	for i, id := range idents {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, `{"trigger_identity":"`...), id...), `","events":[`...)
		b = append(benchEvent(b, i), "]}"...)
	}
	r := newReusedRequest(append(b, "]}"...))
	h := e.Handler()
	var ms runtime.MemStats
	var total uint64
	for run := 0; run <= runs; run++ { // run 0 warms the pools
		e.Replay(func() error {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			r.serve(h)
			runtime.ReadMemStats(&ms)
			if run > 0 {
				total += ms.Mallocs - before
			}
			return nil
		})
		if r.status != http.StatusOK || string(r.out) != `{"accepted":50,"rejected":0,"unmatched":0}`+"\n" {
			t.Fatalf("push answered %d %s", r.status, r.out)
		}
	}
	allocs := float64(total) / runs
	t.Logf("50-delivery push batch: %.1f allocs/op, %.2f per event", allocs, allocs/deliveries)
	if allocs > 4+0.2*deliveries {
		t.Errorf("50-delivery push batch allocates %.1f/op, want <= %.0f", allocs, 4+0.2*deliveries)
	}
	if st := e.Stats(); st.PushEvents != deliveries || st.ActionsOK != deliveries || st.IngressDepth != 0 {
		t.Errorf("stats %+v: each event should have executed once, the later copies dedup away", st)
	}
}

// TestPushExecutionAllocs bounds one push execution of four waiting
// deliveries, a fresh event each: the mailbox's events are copied into a
// pooled decoder, dedup and dispatch run as for a poll, and each action
// costs what TestDispatchActionAllocs allows, 2, the Doer's response.
// Measured 8, the bound. Replay runs the execution on the calling
// goroutine once its window closes.
func TestPushExecutionAllocs(t *testing.T) {
	const perRun, runs = 4, 200
	e, idents := pushAllocRig(t, 1)
	batches := make([][]proto.PushDelivery, runs+2)
	for k := range batches {
		for j := 0; j < perRun; j++ {
			id := "1234." + strconv.Itoa(k*perRun+j)
			batches[k] = append(batches[k], proto.PushDelivery{TriggerIdentity: idents[0], Events: []proto.TriggerEvent{{
				Ingredients: map[string]string{"eid": id, "at": "1490400000000000000"},
				Meta:        proto.EventMeta{ID: id, Timestamp: 1490400000},
			}}})
		}
	}
	next := 0
	push := func() {
		e.Replay(func() error {
			if resp := e.PushDeliveries(batches[next]); resp.Accepted != perRun {
				t.Fatalf("push %+v", resp)
			}
			return nil
		})
		next++
	}
	push() // warm the pools
	allocs := testing.AllocsPerRun(runs, push)
	t.Logf("push execution of %d deliveries: %.1f allocs/op", perRun, allocs)
	if allocs > 2*perRun {
		t.Errorf("push execution of %d deliveries allocates %.1f/op, want <= %d", perRun, allocs, 2*perRun)
	}
	if st := e.Stats(); st.PushBatches != runs+2 || st.ActionsOK != perRun*(runs+2) {
		t.Errorf("stats %+v: every run should have been one execution of %d actions", st, perRun)
	}
}
