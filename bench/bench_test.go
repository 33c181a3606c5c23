package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The smoke test runs every workload at 1/100 size with a fixed number
// of segments, so it checks the benchmark's own plumbing — metric names,
// reproducibility, the audit — not the engine's speed.

func smokeOptions(t *testing.T, workload string, seed uint64, trace bool) options {
	t.Helper()
	probeRound = 2 * time.Millisecond
	return options{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		scale: 100, segments: 6, outDir: t.TempDir(),
	}
}

type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadManifest(t *testing.T) (m manifest) {
	t.Helper()
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// lastLineMetrics parses the result object a run prints last.
func lastLineMetrics(t *testing.T, res *result, o options) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf, o)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d %v", res.workload, out.Correct, out.Attempted, out.Failed, res.failures)
	}
	return out.Metrics
}

// TestManifestMetrics: every workload emits exactly the metrics
// BENCHMARK.json names, each once, with the unit it names: the
// end-to-end set untraced, the per-layer set traced.
func TestManifestMetrics(t *testing.T) {
	m := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, the bench has none", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			o := smokeOptions(t, w.Name, 1, trace)
			got := lastLineMetrics(t, run(o), o)
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, d := range want {
				g, ok := got[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case g.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, g.Unit, d.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, g.Value)
				case !trace && g.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, g.Value)
				}
			}
			if trace {
				checkTraceFile(t, o, w.Name)
			}
		}
	}
}

// traceSpans are the span names each workload's trace file must hold:
// every boundary the workload crosses, the driver's one-off phases
// included.
var traceSpans = map[string][]string{
	"poll_idle":  {"engine.exec", "partner.poll"},
	"poll_hot":   {"engine.exec", "partner.poll", "partner.action"},
	"push_storm": {"engine.exec", "partner.action", "push.handler"},
	"churn_recover": {"engine.exec", "partner.poll", "partner.action", "engine.install", "engine.remove",
		"journal.install", "journal.remove", "journal.checkpoint", "journal.attach",
		"durable.snapshot", "durable.open", "durable.restore"},
	"cluster_failover": {"engine.exec", "partner.poll", "partner.action", "cluster.sweep", "cluster.addnode"},
}

func checkTraceFile(t *testing.T, o options, workload string) {
	t.Helper()
	var trace struct {
		Aggregates map[string]struct {
			Count   int64 `json:"count"`
			TotalNs int64 `json:"total_ns"`
			SelfNs  int64 `json:"self_ns"`
		} `json:"aggregates"`
		Spans []struct{ Name string } `json:"spans"`
	}
	if err := readJSON(filepath.Join(o.outDir, "trace-"+workload+".json"), &trace); err != nil {
		t.Errorf("%s: traced run left no readable trace file: %v", workload, err)
		return
	}
	for _, name := range traceSpans[workload] {
		a, ok := trace.Aggregates[name]
		if !ok || a.Count == 0 {
			t.Errorf("%s: trace file has no %s span", workload, name)
		} else if a.SelfNs < 0 || a.SelfNs > a.TotalNs {
			t.Errorf("%s: span %s has self time %d of %d ns", workload, name, a.SelfNs, a.TotalNs)
		}
	}
	if len(trace.Spans) == 0 {
		t.Errorf("%s: trace file holds no sampled span", workload)
	}
}

func layerValue(res *result, name string) float64 {
	for _, m := range res.layer {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func within(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// TestSeedReproduces: the same seed gives the same polls, executions
// and allocations per op (to 1 %); another seed gives other inputs.
func TestSeedReproduces(t *testing.T) {
	for _, w := range []string{"poll_idle", "poll_hot"} {
		a := workloads[w](smokeOptions(t, w, 7, true))
		b := workloads[w](smokeOptions(t, w, 7, true))
		if pa, pb := layerValue(a, "engine.polls"), layerValue(b, "engine.polls"); !within(pa, pb, 0.01) {
			t.Errorf("%s: engine.polls %v then %v with one seed", w, pa, pb)
		}
		if !within(float64(a.attempted), float64(b.attempted), 0.01) {
			t.Errorf("%s: %d operations then %d with one seed", w, a.attempted, b.attempted)
		}
		for i, m := range a.e2e {
			if m.Name == "allocs_per_op" && !within(m.Value, b.e2e[i].Value, 0.01) {
				t.Errorf("%s: allocs_per_op %v then %v with one seed", w, m.Value, b.e2e[i].Value)
			}
		}
	}
	p, q := newPopulation(1, 1000, 100, time.Second), newPopulation(2, 1000, 100, time.Second)
	sameID, sameHot, samePhase := 0, 0, 0
	for i := range p.applets {
		if p.applets[i].ID == q.applets[i].ID {
			sameID++
		}
		if (p.hotSlot[i] < 0) == (q.hotSlot[i] < 0) {
			sameHot++
		}
	}
	for s := range p.phase {
		if p.phase[s] == q.phase[s] {
			samePhase++
		}
	}
	if sameID > 10 || sameHot == len(p.applets) || samePhase > 10 {
		t.Errorf("seeds 1 and 2 share %d IDs, %d hot flags, %d phases", sameID, sameHot, samePhase)
	}
	if r := newPopulation(1, 1000, 100, time.Second); r.applets[17].ID != p.applets[17].ID || r.phase[3] != p.phase[3] {
		t.Error("seed 1 did not reproduce its own population")
	}
}

// TestAuditTrips: a stub that hides an execution from the audit, or
// counts one twice, fails the run.
func TestAuditTrips(t *testing.T) {
	for mode, want := range map[string]string{"drop": "never executed", "replay": "more than once"} {
		for _, w := range []string{"poll_hot", "push_storm", "churn_recover", "cluster_failover"} {
			o := smokeOptions(t, w, 1, false)
			o.corrupt = mode
			res := workloads[w](o)
			if res.failed == 0 || !strings.Contains(strings.Join(res.failures, "\n"), want) {
				t.Errorf("%s with a stub that %ss executions: failed=%d %v, want a %q failure", w, mode, res.failed, res.failures, want)
			}
		}
	}
}

// TestCompare: the repeatability check does not depend on the order of
// the sets and fails on a metric that is missing, zero or not a number.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return filepath.Dir(path)
	}
	manifest := filepath.Join(write("BENCHMARK.json", `{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1}]}`), "BENCHMARK.json")
	set := func(name, value string) string {
		return write(name+"/w.trace0.json", `{"correct":true,"metrics":{"ops_per_s":{"value":`+value+`}}}`)
	}
	a, b, c, zero := set("a", "100"), set("b", "105"), set("c", "140"), set("zero", "0")
	empty := write("empty/w.trace0.json", `{"correct":true,"metrics":{}}`)
	for _, tc := range []struct {
		sets []string
		want bool
	}{
		{[]string{a, b}, true}, {[]string{b, a}, true},
		{[]string{a, c}, false}, {[]string{c, a}, false}, // 40 % better is as unrepeatable as 40 % worse
		{[]string{a, b, c}, false},
		{[]string{zero, a}, false}, {[]string{a, zero}, false}, {[]string{a, empty}, false},
	} {
		var out bytes.Buffer
		got, err := compare(&out, manifest, tc.sets)
		if err != nil || got != tc.want {
			t.Errorf("compare(%v) = %v, %v; want %v\n%s", tc.sets, got, err, tc.want, out.String())
		}
	}
}
