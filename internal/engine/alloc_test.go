package engine

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// expandIngredients is appendExpanded as a string function, for the
// template tests.
func expandIngredients(tmpl string, ingredients map[string]string) string {
	return string(appendExpanded(nil, tmpl, Ingredients{m: ingredients}))
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
	ing := Ingredients{m: map[string]string{"subject": "hello"}}
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
		r.Add(fmt.Sprintf("ev-%03d", i))
	}
	// The steady state of a quiet trigger: every poll re-serves event
	// IDs the ring already remembers.
	allocs := testing.AllocsPerRun(100, func() {
		if r.Add("ev-007") {
			t.Fatal("duplicate reported fresh")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate dedupRing.Add allocates %.1f/op, want 0", allocs)
	}
}

func TestDedupRingHasAllocs(t *testing.T) {
	r := newDedupRing(64)
	for i := 0; i < 64; i++ {
		r.Add(fmt.Sprintf("ev-%03d", i))
	}
	body := []byte(`{"id":"ev-007"},{"id":"ev-999"}`)
	seen, unseen := body[7:13], body[23:29]
	allocs := testing.AllocsPerRun(100, func() {
		if !r.Has(seen) || r.Has(unseen) {
			t.Fatal("Has disagrees with the ring's contents")
		}
	})
	if allocs != 0 {
		t.Errorf("dedupRing.Has([]byte) allocates %.1f/op, want 0", allocs)
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
// the request (pooled scratch) or the fresh event's ingredients (copied
// into the decoder's scratch, read there by the condition); the bound is
// the measured cost of the Doer's response plus the fresh event's ID
// string (its condition then skips the action, which has its own
// guard), 3, + 1.
func TestPollOneFreshOfTwentyAllocs(t *testing.T) {
	allocs := pollOneFreshOfTwentyAllocs(t, 1)
	if allocs > 4 {
		t.Errorf("20-event poll with 19 remembered allocates %.1f/op, want <= 4", allocs)
	}
}

// TestPollCoalescedFreshAllocs is the same poll on a subscription of
// four members, each with one event to take: the event's record and its
// ID are built once, the other members share them, so the poll costs no
// more than the one-member case.
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
			m.dedup.Add("1234." + strconv.Itoa(seq))
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
// credential and body rendered into pooled scratch and copied out as one
// string, the request assembled in pooled scratch around the interned
// endpoint, ack checked without decoding; the other two are the Doer's
// response. Measured 3, + 2.
func TestDispatchActionAllocs(t *testing.T) {
	d := &cannedDoer{ack: []byte(`{"data":[{"id":"ok"}]}`)}
	e, ra := allocRig(t, d, 1)
	dec := &pollDecoder{span: obs.ExecSpan{ExecID: 1}}
	if err := dec.scan.ScanPollResponse(append(benchEvent([]byte(`{"data":[`), 5), "]}"...)); err != nil {
		t.Fatal(err)
	}
	ev := dec.record(0)
	ing := dec.ingredients(&ev)
	if ing.Get("eid") != "1234.5" || ing.Get("at") != "1490400000000000000" {
		t.Fatalf("record's ingredients eid=%q at=%q", ing.Get("eid"), ing.Get("at"))
	}
	e.dispatchAction(dec, ra, &ev, ing)
	allocs := testing.AllocsPerRun(200, func() { e.dispatchAction(dec, ra, &ev, dec.ingredients(&ev)) })
	t.Logf("dispatchAction: %.1f allocs/op", allocs)
	if allocs > 5 {
		t.Errorf("dispatchAction allocates %.1f/op, want <= 5", allocs)
	}
	if st := e.Stats(); st.ActionsOK != 202 || st.ActionsFailed != 0 {
		t.Errorf("stats %+v: every dispatch should have been acknowledged", st)
	}
}
