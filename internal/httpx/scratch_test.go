package httpx

import (
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// TestRequestScratchMatchesFresh: one scratch assembles a seeded random
// sequence of requests — endpoints, path suffixes, credential or none,
// body or none — recycled after each as DoEndpoint recycles it after a
// completed exchange, and every request equals, field by field, the one
// a new scratch assembles from the same arguments.
func TestRequestScratchMatchesFresh(t *testing.T) {
	eps := []*Endpoint{
		testEndpoint(),
		NewEndpoint("GET", "http://other.sim/", http.Header{"Accept": {"*/*"}}),
		NewEndpoint("DELETE", "http://svc.sim/v1/a%2Fb/identity/", nil), // a RawPath the suffix extends too
	}
	suffixes := []string{"", "", "k1", "k2"}
	auths := []string{"", "Bearer a", "Bearer bb"}
	bodies := []string{"", `{"n":1}`, `{"n":22,"more":true}`}
	rng := rand.New(rand.NewPCG(1, 2))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	sc := newReqScratch().(*reqScratch)
	for i := range 2000 {
		ep, suffix, auth, body := eps[rng.IntN(len(eps))], pick(suffixes), pick(auths), pick(bodies)
		got := sc.request(ep, suffix, auth, []byte(body))
		want := newReqScratch().(*reqScratch).request(ep, suffix, auth, []byte(body))
		if !sameRequest(t, got, want) {
			t.Fatalf("request %d (%s %q %q %q) differs from a fresh one", i, ep.target, suffix, auth, body)
		}
		sc.recycle()
	}
}

// sameRequest compares two requests field by field: the body by its
// bytes, read once and again through GetBody, everything else as is.
func sameRequest(t *testing.T, got, want *http.Request) bool {
	t.Helper()
	if (got.Body == nil) != (want.Body == nil) || (got.GetBody == nil) != (want.GetBody == nil) {
		t.Errorf("body %v, GetBody set %v; want body %v, GetBody set %v",
			got.Body != nil, got.GetBody != nil, want.Body != nil, want.GetBody != nil)
		return false
	}
	if got.Body != nil {
		g, _ := io.ReadAll(got.Body)
		w, _ := io.ReadAll(want.Body)
		rg, _ := got.GetBody()
		again, _ := io.ReadAll(rg)
		if string(g) != string(w) || string(again) != string(w) {
			t.Errorf("body %q, replayed %q; want %q", g, again, w)
			return false
		}
	}
	a, b := *got, *want
	a.Body, a.GetBody, b.Body, b.GetBody = nil, nil, nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("got  %+v\nwant %+v (URL %v, want %v)", a, b, a.URL, b.URL)
		return false
	}
	return true
}

// BenchmarkDoEndpointSameEndpoint is the engine's steady state through
// the client: request after request to one endpoint with a credential
// and a body, each assembled in the pooled scratch the previous one left.
func BenchmarkDoEndpointSameEndpoint(b *testing.B) {
	c := NewClient(&reusedDoer{data: []byte(`{"data":[]}`)}, simtime.NewReal(), 0)
	ep := testEndpoint()
	auth, body := "Bearer tok", []byte(`{"trigger_identity":"ci-0123456789abcdef","triggerFields":{},"user":{"id":"u1"}}`)
	var out rawTarget
	b.ReportAllocs()
	for range b.N {
		if status, err := c.DoEndpoint(ep, "", auth, body, &out); err != nil || status != 200 {
			b.Fatal(status, err)
		}
	}
}
