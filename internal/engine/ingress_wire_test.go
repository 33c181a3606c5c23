package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// pushTwinDoer acknowledges every action and logs its body in order,
// except the blocker applet's: that one holds the engine's only worker
// until released, so a batch is admitted whole before any of its
// executions starts and the order of actions is the engine's alone.
type pushTwinDoer struct {
	mu      sync.Mutex
	bodies  []string
	entered chan struct{}
	release chan struct{}
}

func (d *pushTwinDoer) Do(req *http.Request) (*http.Response, error) {
	b, _ := io.ReadAll(req.Body)
	req.Body.Close()
	if strings.HasPrefix(req.URL.Path, proto.ActionsPath) {
		if bytes.Contains(b, []byte(`"ifttt_source":{"id":"blocker"}`)) {
			d.entered <- struct{}{}
			<-d.release
		} else {
			d.mu.Lock()
			d.bodies = append(d.bodies, string(b))
			d.mu.Unlock()
		}
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(`{"data":[{"id":"ok"}]}`))}, nil
}

func (d *pushTwinDoer) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.bodies)
}

// pushTwinApplets are the twin engines' applets: a coalesced pair (one
// member behind a condition) and two single ones, every action field
// expanding ingredients, and the blocker on a trigger of its own.
func pushTwinApplets() []Applet {
	ref := func(slug string, fields map[string]string) ServiceRef {
		return ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: slug, ServiceKey: "k", UserToken: "tok", Fields: fields}
	}
	room := func(r string) ServiceRef { return ref("fired", map[string]string{"room": r}) }
	act := ref("act", map[string]string{
		"k": "{{k}}", "k2": "{{ k2 }}", "accent": "{{ké}}", "all": "{{k}}|{{n}}|{{obj}}|{{missing}}",
	})
	return []Applet{
		{ID: "blocker", UserID: "u0", Trigger: ref("block", nil), Action: ref("act", map[string]string{"n": "x"})},
		{ID: "a0", UserID: "u1", Trigger: room("0"), Action: act},
		{ID: "b0", UserID: "u1", Trigger: room("0"), Action: act,
			Conditions: []Condition{IngredientContains{Key: "k", Substr: "a"}}},
		{ID: "a1", UserID: "u1", Trigger: room("1"), Action: act},
		{ID: "a2", UserID: "u2", Trigger: room("2"), Action: act},
	}
}

func newPushTwin(t *testing.T) (*Engine, *pushTwinDoer) {
	t.Helper()
	d := &pushTwinDoer{entered: make(chan struct{}), release: make(chan struct{})}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: d,
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1, ShardWorkers: 1,
		Push: true, IngressQueue: 4, Coalesce: true})
	t.Cleanup(e.Stop)
	for _, a := range pushTwinApplets() {
		if err := e.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	return e, d
}

// pushBatchGen writes random push batches over the twin applets'
// identities: escaped keys and values, repeated keys, null, number,
// object and array values, empty IDs, empty, unknown, null and repeated
// identities, and repeated "events" and "data" keys.
type pushBatchGen struct {
	rng    *rand.Rand
	idents []string
}

func (g *pushBatchGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

func (g *pushBatchGen) event() string {
	var parts []string
	id := g.pick(`"e0"`, `"e1"`, `"e\u0032"`, `"e3"`, `""`, `null`, fmt.Sprintf(`"n%d"`, g.rng.Intn(1000)))
	parts = append(parts, fmt.Sprintf(`"meta":{"id":%s,"timestamp":%d}`, id, g.rng.Intn(1e6)))
	for n := g.rng.Intn(5); n > 0; n-- {
		key := g.pick(`"k"`, `"k2"`, `"k\u0032"`, `"n"`, `"obj"`, `"ké"`, `"k\u00e9"`, `"other"`)
		val := g.pick(`"plain"`, `"a\"b\\c\u00e9\n"`, `null`, `12.5`, `-3`, `{"x":[1,null]}`, `[true,false]`,
			`"<&>"`, `""`, `"abc"`, `"\ud83d\ude00 a"`)
		parts = append(parts, key+":"+val)
	}
	g.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return "{" + strings.Join(parts, ",") + "}"
}

func (g *pushBatchGen) events() string {
	evs := make([]string, g.rng.Intn(4))
	for i := range evs {
		evs[i] = g.event()
	}
	return "[" + strings.Join(evs, ",") + "]"
}

func (g *pushBatchGen) delivery() string {
	known := g.idents[g.rng.Intn(len(g.idents))]
	var parts []string
	switch g.rng.Intn(8) {
	case 0: // absent
	case 1:
		parts = append(parts, `"trigger_identity":""`)
	case 2:
		parts = append(parts, `"trigger_identity":"ci-unknown"`)
	case 3:
		parts = append(parts, `"trigger_identity":null`)
	case 4: // the last of two wins; escaped, it is the same identity
		parts = append(parts, `"trigger_identity":"ci-unknown"`, `"trigger_identity":"\u0063`+known[1:]+`"`)
	case 5: // a null leaves the identity as it was
		parts = append(parts, `"trigger_identity":"`+known+`"`, `"trigger_identity":null`)
	default:
		parts = append(parts, `"trigger_identity":"`+known+`"`)
	}
	switch g.rng.Intn(6) {
	case 0: // absent
	case 1:
		parts = append(parts, `"events":null`)
	case 2:
		parts = append(parts, `"events":`+g.events(), `"events":`+g.events())
	default:
		parts = append(parts, `"events":`+g.events())
	}
	if g.rng.Intn(4) == 0 {
		parts = append(parts, `"x":[1,{"y":2}]`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (g *pushBatchGen) batch() string {
	ds := make([]string, 1+g.rng.Intn(9))
	for i := range ds {
		ds[i] = g.delivery()
	}
	data := `"data":[` + strings.Join(ds, ",") + `]`
	switch g.rng.Intn(5) {
	case 0: // the last "data" wins
		return `{"data":[` + g.delivery() + `],` + data + `}`
	case 1:
		return `{"other":{"data":[]},` + data + `}`
	}
	return "{" + data + "}"
}

// TestPushHTTPMatchesTyped holds the push ingress, which scans request
// bodies straight into the mailboxes, to the typed path: the same
// seeded batches go through Handler() on one engine and
// through json.Unmarshal + PushDeliveries on a twin, and both must
// answer with the same status and PushResponse and issue the same
// action bodies in the same order.
func TestPushHTTPMatchesTyped(t *testing.T) {
	httpEng, httpLog := newPushTwin(t)
	typedEng, typedLog := newPushTwin(t)
	h := httpEng.Handler()
	blocker := pushTwinApplets()[0]
	var idents []string
	for _, a := range pushTwinApplets()[1:] {
		idents = append(idents, a.CoalescedTriggerIdentity())
	}
	g := &pushBatchGen{rng: rand.New(rand.NewSource(7)), idents: idents}
	drained := func(e *Engine) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); e.Stats().IngressDepth > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("push executions did not drain")
			}
		}
	}
	var accepted, rejected, unmatched int
	for i := 0; i < 300; i++ {
		body := g.batch()
		// Park each engine's only worker on a blocker execution.
		for _, twin := range []struct {
			e *Engine
			d *pushTwinDoer
		}{{httpEng, httpLog}, {typedEng, typedLog}} {
			twin.e.PushDeliveries([]proto.PushDelivery{{TriggerIdentity: blocker.CoalescedTriggerIdentity(),
				Events: []proto.TriggerEvent{{Meta: proto.EventMeta{ID: fmt.Sprint("block-", i)}}}}})
			<-twin.d.entered
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, proto.PushPath, strings.NewReader(body)))
		var got proto.PushResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: answered %d %q: %v", body, rec.Code, rec.Body, err)
		}
		var batch proto.PushBatch
		if err := json.Unmarshal([]byte(body), &batch); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want := typedEng.PushDeliveries(batch.Data)
		wantCode := http.StatusOK
		if want.Rejected > 0 {
			wantCode = http.StatusTooManyRequests
		}
		if rec.Code != wantCode || got != want {
			t.Fatalf("%s:\nhandler answered %d %+v, typed path %d %+v", body, rec.Code, got, wantCode, want)
		}
		accepted, rejected, unmatched = accepted+got.Accepted, rejected+got.Rejected, unmatched+got.Unmatched

		httpLog.release <- struct{}{}
		typedLog.release <- struct{}{}
		drained(httpEng)
		drained(typedEng)
		if a, b := httpLog.log(), typedLog.log(); !slices.Equal(a, b) {
			t.Fatalf("%s:\nhandler's engine issued %d actions %q\ntyped path's %d %q", body, len(a), a, len(b), b)
		}
	}
	actions := len(httpLog.log())
	t.Logf("300 batches: %d accepted, %d rejected, %d unmatched events; %d actions", accepted, rejected, unmatched, actions)
	if accepted == 0 || rejected == 0 || unmatched == 0 || actions == 0 {
		t.Error("the generated batches left a verdict or the action path unexercised")
	}

	// A batch whose last delivery is malformed accepts nothing.
	before := httpEng.Stats()
	ok := `{"trigger_identity":"` + idents[0] + `","events":[{"k":"v","meta":{"id":"fresh-1"}}]}`
	for _, body := range []string{
		`{"data":[` + ok + `,{"trigger_identity":"` + idents[0] + `","events":[{"k":"v"}]}]}`,
		`{"data":[` + ok + `,{"trigger_identity":5}]}`,
		`{"data":[` + ok + `,` + ok + `]`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, proto.PushPath, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400", body, rec.Code)
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a wrongly started execution
	if st := httpEng.Stats(); st.IngressDepth != 0 || st.IngressAccepted != before.IngressAccepted ||
		len(httpLog.log()) != actions {
		t.Errorf("malformed batches: depth %d, accepted %d → %d, actions %d → %d, want nothing taken",
			st.IngressDepth, before.IngressAccepted, st.IngressAccepted, actions, len(httpLog.log()))
	}

	// A body past httpx.MaxBodyBytes is refused as too large.
	big := `{"data":[],"pad":"` + strings.Repeat("x", httpx.MaxBodyBytes) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, proto.PushPath, strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: answered %d, want 413", len(big), rec.Code)
	}
}

// TestPushRecyclingBounded: a delivery carrying 1 MiB of ingredient
// values runs, and afterwards no free-listed mailbox and no pooled
// decoder keeps buffers past the bounds a pooled decoder may keep, while
// an ordinary delivery's mailbox still goes back on the free list.
func TestPushRecyclingBounded(t *testing.T) {
	e, d := newPushTwin(t)
	close(d.release) // no blocker in this test
	h := e.Handler()
	ident := pushTwinApplets()[1].CoalescedTriggerIdentity()
	post := func(body string) {
		t.Helper()
		// The window holds the worker; Replay runs the execution on
		// this goroutine when it closes.
		e.Replay(func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, proto.PushPath, strings.NewReader(body)))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"accepted":1,`) {
				t.Fatalf("push answered %d %s", rec.Code, rec.Body)
			}
			return nil
		})
	}
	huge := strings.Repeat("v", 1<<20)
	post(`{"data":[{"trigger_identity":"` + ident + `","events":[{"k":"` + huge + `","meta":{"id":"huge"}}]}]}`)
	if n := len(d.log()); n != 1 || !strings.Contains(d.log()[0], huge) {
		t.Fatalf("%d actions, want the huge event's", n)
	}
	sh := e.shards[0]
	sh.mu.Lock()
	if sh.freeMail != nil {
		t.Error("the huge delivery's mailbox went back on the free list")
	}
	sh.mu.Unlock()

	post(`{"data":[{"trigger_identity":"` + ident + `","events":[{"k":"small","meta":{"id":"small"}}]}]}`)
	sh.mu.Lock()
	if sh.freeMail == nil {
		t.Error("an ordinary delivery's mailbox was not recycled")
	}
	for m := sh.freeMail; m != nil; m = m.next {
		if cap(m.push) > maxPooledBuilt || cap(m.events) > maxPooledBuilt || m.outsized() {
			t.Errorf("free-listed mailbox keeps %d deliveries, %d events, %d ingredients, %d value bytes",
				cap(m.push), cap(m.events), cap(m.ings), cap(m.vals))
		}
	}
	sh.mu.Unlock()
	for i := 0; i < 8; i++ {
		dec := e.decoders.Get().(*pollDecoder)
		if cap(dec.push) > maxPooledBuilt || dec.outsized() {
			t.Errorf("pooled decoder keeps %d events, %d ingredients, %d value bytes", cap(dec.push), cap(dec.ings), cap(dec.vals))
		}
	}
}
