package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRegistryScalars(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("polls_total", "Polls issued.")
	g := r.Gauge("applets", "Installed applets.")
	c.Add(3)
	c.Inc()
	g.Set(7.5)
	g.Add(-0.5)
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if g.Value() != 7 {
		t.Errorf("gauge = %g, want 7", g.Value())
	}
	r.CounterFunc("derived_total", "Derived.", func() int64 { return 42 })
	r.GaugeFunc("depth", "Depth.", func() float64 { return 1.25 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP polls_total Polls issued.",
		"# TYPE polls_total counter",
		"polls_total 4",
		"# TYPE applets gauge",
		"applets 7",
		"derived_total 42",
		"depth 1.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name should panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryHistogramPrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t2a_seconds", "Trigger-to-action latency.", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE t2a_seconds histogram",
		`t2a_seconds_bucket{le="1"} 1`,
		`t2a_seconds_bucket{le="2"} 1`,
		`t2a_seconds_bucket{le="4"} 2`,
		`t2a_seconds_bucket{le="+Inf"} 3`,
		"t2a_seconds_sum 103.5",
		"t2a_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if got := r.LookupHistogram("t2a_seconds"); got != h {
		t.Error("LookupHistogram did not return the registered histogram")
	}
	if got := r.LookupHistogram("nope"); got != nil {
		t.Error("LookupHistogram on unknown name should be nil")
	}
}

func TestRegistryHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total", "Events.").Add(9)
	h := r.Histogram("lat_seconds", "Latency.", []float64{1})
	h.Observe(0.2)

	// Default: Prometheus text.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "events_total 9") {
		t.Errorf("text body missing counter:\n%s", rec.Body.String())
	}

	// JSON snapshot.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type %q", ct)
	}
	var snap []MetricSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json decode: %v\n%s", err, rec.Body.String())
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	ev, ok := byName["events_total"]
	if !ok || ev.Value == nil || *ev.Value != 9 {
		t.Errorf("snapshot events_total = %+v", ev)
	}
	lat, ok := byName["lat_seconds"]
	if !ok || lat.Histogram == nil || lat.Histogram.Count != 1 {
		t.Errorf("snapshot lat_seconds = %+v", lat)
	}
}

func TestMountHealthz(t *testing.T) {
	r := NewRegistry()
	mux := newTestMux(t, r)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Errorf("healthz: code=%d body=%s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("metrics: code=%d", rec.Code)
	}
}

// A parent renders each name its children carry once: counters and
// gauges summed, histograms merged, names registered after the fold
// included, and a parent's own series beside them.
func TestRegistryAddChildRollsUp(t *testing.T) {
	parent := NewRegistry()
	parent.Gauge("nodes", "Nodes.").Set(2)
	a, b := NewRegistry(), NewRegistry()
	a.Counter("polls_total", "Polls.").Add(3)
	b.Counter("polls_total", "Polls.").Add(4)
	a.GaugeFunc("depth", "Depth.", func() float64 { return 1.5 })
	b.GaugeFunc("depth", "Depth.", func() float64 { return 2 })
	ha := a.Histogram("t2a_seconds", "T2A.", []float64{1, 2, 4})
	ha.Observe(0.5)
	parent.AddChild(a)
	parent.AddChild(b)
	// Registered after the fold: still rolled up.
	hb := b.Histogram("t2a_seconds", "T2A.", []float64{1, 2, 4})
	hb.Observe(3)
	hb.Observe(100)
	b.Counter("only_b_total", "Only on b.").Inc()

	var sb strings.Builder
	if err := parent.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"nodes 2\n",
		"# HELP polls_total Polls.\n# TYPE polls_total counter\npolls_total 7\n",
		"depth 3.5\n",
		"# TYPE t2a_seconds histogram\n",
		`t2a_seconds_bucket{le="1"} 1`,
		`t2a_seconds_bucket{le="4"} 2`,
		`t2a_seconds_bucket{le="+Inf"} 3`,
		"t2a_seconds_sum 103.5\nt2a_seconds_count 3\n",
		"only_b_total 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE polls_total"); n != 1 {
		t.Errorf("polls_total rendered %d times", n)
	}

	snap := map[string]MetricSnapshot{}
	for _, m := range parent.Snapshot() {
		snap[m.Name] = m
	}
	if v := snap["polls_total"].Value; v == nil || *v != 7 {
		t.Errorf("snapshot polls_total = %v", v)
	}
	if v := snap["depth"].Value; v == nil || *v != 3.5 {
		t.Errorf("snapshot depth = %v", v)
	}
	if h := snap["t2a_seconds"].Histogram; h == nil || h.Count != 3 || h.Sum != 103.5 {
		t.Errorf("snapshot t2a_seconds = %+v", h)
	}
	if h := parent.LookupHistogram("t2a_seconds"); h == nil || h.Count() != 3 {
		t.Errorf("LookupHistogram on a roll-up = %v", h)
	}
	// The children render only their own values.
	if h := b.LookupHistogram("t2a_seconds"); h != hb || h.Count() != 2 {
		t.Error("child histogram changed by the roll-up")
	}
}

func TestRegistryAddChildClashPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("child carries a parent name", func() {
		parent, child := NewRegistry(), NewRegistry()
		parent.Counter("x_total", "")
		child.Counter("x_total", "")
		parent.AddChild(child)
	})
	mustPanic("child registers a parent name later", func() {
		parent, child := NewRegistry(), NewRegistry()
		parent.AddChild(child)
		parent.Gauge("x", "")
		child.Gauge("x", "")
	})
	mustPanic("parent registers a child name later", func() {
		parent, child := NewRegistry(), NewRegistry()
		child.Gauge("x", "")
		parent.AddChild(child)
		parent.Gauge("x", "")
	})
	mustPanic("children disagree on the type", func() {
		parent, a, b := NewRegistry(), NewRegistry(), NewRegistry()
		a.Gauge("x", "")
		b.Counter("x", "")
		parent.AddChild(a)
		parent.AddChild(b)
	})
	mustPanic("children disagree on the bounds", func() {
		parent, a, b := NewRegistry(), NewRegistry(), NewRegistry()
		a.Histogram("x_seconds", "", []float64{1, 2})
		b.Histogram("x_seconds", "", []float64{1, 3})
		parent.AddChild(a)
		parent.AddChild(b)
	})
	mustPanic("second parent", func() {
		child := NewRegistry()
		NewRegistry().AddChild(child)
		NewRegistry().AddChild(child)
	})
}

// Children fold in and register while the parent is scraped (run under
// -race).
func TestRegistryAddChildConcurrentScrape(t *testing.T) {
	parent := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := NewRegistry()
			parent.AddChild(child)
			child.Counter("polls_total", "Polls.").Inc()
			child.Histogram("t2a_seconds", "T2A.", nil).Observe(1)
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			parent.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	for _, m := range parent.Snapshot() {
		if m.Name == "polls_total" && *m.Value != 4 || m.Name == "t2a_seconds" && m.Histogram.Count != 4 {
			t.Errorf("%s = %+v", m.Name, m)
		}
	}
}
