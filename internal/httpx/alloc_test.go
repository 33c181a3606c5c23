package httpx

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/simtime"
)

// memDoer answers every request from memory, so allocation tests
// measure the client alone rather than a real transport.
type memDoer struct{ body string }

func (d memDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(d.body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// Allocation regression guards for the poll hot path. The bounds are
// deliberately loose — they catch a reintroduced per-call marshal
// buffer, URL re-parse, or io.ReadAll (each worth several allocations
// and visible growth), not single-allocation jitter across Go versions.
// End-to-end allocation counts are measured by bench/ (allocs_per_op,
// httpx.do_prepared_allocs.ev1).

func TestDoJSONAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	c := NewClient(memDoer{body: `{"name":"x","count":1}`}, simtime.NewReal(), 0)
	in := payload{Name: "x", Count: 1}
	var out payload
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.DoJSON("POST", "http://svc.sim/v1/t", in, &out); err != nil {
			t.Fatal(err)
		}
	})
	// Pre-pooling this path cost ~40 allocs/op (marshal buffer, request
	// construction, ReadAll growth); pooled it sits near 19.
	if allocs > 30 {
		t.Errorf("DoJSON allocs/op = %.1f, want ≤ 30 (pooled buffers regressed?)", allocs)
	}
}

// rawTarget is a BodyDecoder that only looks at the body, like the
// engine's poll and action targets.
type rawTarget struct{ n int }

func (r *rawTarget) DecodeBody(_ int, body []byte) error {
	r.n = len(body)
	return nil
}

func TestDoPreparedAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	p, err := NewPrepared("POST", "http://svc.sim/v1/t", payload{Name: "x", Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(memDoer{body: `{"data":[]}`}, simtime.NewReal(), 0)
	var out rawTarget
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.DoPrepared(p, &out); err != nil || out.n == 0 {
			t.Fatal(err, out.n)
		}
	})
	// The prototype path assembles the request in pooled scratch — request
	// struct, header map and body reader are reused once an exchange has
	// run to its end — and hands the pooled read buffer to the
	// BodyDecoder: nothing is allocated on the client's side, memDoer's
	// canned response accounts for all 4. Marshal, URL parse and header
	// canonicalization are paid once at NewPrepared, and nothing is
	// decoded through reflection. Measured 4, bound +2.
	t.Logf("DoPrepared: %.1f allocs/op", allocs)
	if allocs > 6 {
		t.Errorf("DoPrepared allocs/op = %.1f, want ≤ 6 (prototype path regressed?)", allocs)
	}
}

// reusedDoer answers every request with the one response, reset, so a
// test counts the client's allocations and none of the Doer's.
type reusedDoer struct {
	resp http.Response
	body reusedBody
	data []byte
}

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

func (d *reusedDoer) Do(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	d.body.Reset(d.data)
	d.resp = http.Response{StatusCode: http.StatusOK, Body: &d.body}
	return &d.resp, nil
}

// TestDoEndpointAllocs: a request with a credential and a body rendered
// into a reused caller buffer, the way the engine sends an action, is
// assembled in the attempt's pooled scratch and sent without an
// allocation on the client's side once the pools are warm.
func TestDoEndpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	c := NewClient(&reusedDoer{data: []byte(`{"data":[{"id":"ok"}]}`)}, simtime.NewReal(), 0)
	ep := testEndpoint()
	auth, body := "Bearer tok", []byte(`{"actionFields":{"k":"v"}}`)
	var out rawTarget
	send := func() {
		if status, err := c.DoEndpoint(ep, "", auth, body, &out); err != nil || status != 200 || out.n == 0 {
			t.Fatal(status, err, out.n)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("DoEndpoint allocates %.1f/op on the client's side, want 0", allocs)
	}
}
