package httpx

import (
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
// Companion -benchmem numbers live in the root bench suite
// (BenchmarkEngineScaleCoalesced and friends).

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
