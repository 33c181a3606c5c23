package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind is a registry entry's type, as rendered.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered entry. Exactly one of the value sources is
// set, depending on kind and whether the metric is function-backed; a
// roll-up has none and reads its parts.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	counterFn  func() int64
	gauge      *Gauge
	gaugeFn    func() float64
	hist       *Histogram
	// parts, on a roll-up, holds the metric of this name in each child
	// registry (AddChild). It is copied on write, so a scrape reads it
	// without a lock.
	parts atomic.Pointer[[]*metric]
}

func (m *metric) scalar() float64 {
	switch ps := m.parts.Load(); {
	case ps != nil:
		var v float64
		for _, p := range *ps {
			v += p.scalar()
		}
		return v
	case m.counterFn != nil:
		return float64(m.counterFn())
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.gaugeFn != nil:
		return m.gaugeFn()
	default:
		return m.gauge.Value()
	}
}

// histogram returns the histogram m renders: a roll-up merges its parts
// into a fresh one.
func (m *metric) histogram() *Histogram {
	ps := m.parts.Load()
	if ps == nil {
		return m.hist
	}
	h := NewHistogram((*ps)[0].histogram().bounds)
	for _, p := range *ps {
		if err := h.Merge(p.histogram()); err != nil {
			panic(err) // add admits only parts with equal bounds
		}
	}
	return h
}

// Registry holds named metrics and renders them as Prometheus text or a
// JSON snapshot. Registration is cheap and normally happens once at
// wiring time; reads (scrapes) take the registry lock but observations
// on the returned Counter/Gauge/Histogram handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
	parent  *Registry // set by the parent's AddChild
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// add files m under its name. A metric from a child registry (fromChild)
// joins the roll-up of its name, which add creates on the name's first
// sight; any other clash panics: metric names are a process-wide
// contract and a duplicate is always a wiring bug. What r files its
// parent receives in turn.
func (r *Registry) add(m *metric, fromChild bool) {
	r.mu.Lock()
	if up := r.byName[m.name]; up != nil {
		ps := up.parts.Load()
		if !fromChild || ps == nil || up.kind != m.kind ||
			(m.kind == kindHistogram && !slices.Equal(up.histogram().bounds, m.histogram().bounds)) {
			r.mu.Unlock()
			panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
		}
		next := append(slices.Clip(*ps), m)
		up.parts.Store(&next)
		r.mu.Unlock()
		return
	}
	if fromChild {
		up := &metric{name: m.name, help: m.help, kind: m.kind}
		up.parts.Store(&[]*metric{m})
		m = up
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
	parent := r.parent
	r.mu.Unlock()
	if parent != nil {
		parent.add(m, true)
	}
}

// AddChild folds child into r. For every name child carries, now or
// later, r renders one metric: counters and gauges summed over the
// children that carry it, histograms merged as Histogram.Merge does.
// It is how one registry serves the series of many engines. A name
// registered on r itself and on a child panics, as a duplicate does,
// and so do children that disagree on a name's type or bucket bounds.
// A registry folds into one parent at most.
func (r *Registry) AddChild(child *Registry) {
	child.mu.Lock()
	if child.parent != nil {
		child.mu.Unlock()
		panic("obs: registry folded into two parents")
	}
	child.parent = r
	list := slices.Clone(child.metrics)
	child.mu.Unlock()
	for _, m := range list {
		r.add(m, true)
	}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, counter: c}, false)
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters that already live elsewhere as
// atomics (the engine's shard counters).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(&metric{name: name, help: help, kind: kindCounter, counterFn: fn}, false)
}

// Gauge registers and returns a new settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, kind: kindGauge, gauge: g}, false)
	return g
}

// GaugeFunc registers a gauge computed by fn at scrape time (scheduler
// heap depth, worker occupancy, population size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&metric{name: name, help: help, kind: kindGauge, gaugeFn: fn}, false)
}

// Histogram registers and returns a new histogram with the given bucket
// bounds (nil = DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(&metric{name: name, help: help, kind: kindHistogram, hist: h}, false)
	return h
}

// LookupHistogram returns a registered histogram by name, or nil. For
// a roll-up it is a merged copy of the children's.
func (r *Registry) LookupHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byName[name]; m != nil && m.kind == kindHistogram {
		return m.histogram()
	}
	return nil
}

// metricList copies the metric list so rendering can run without
// holding the lock across value reads (GaugeFuncs may take other locks).
func (r *Registry) metricList() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.metricList() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		if m.kind != kindHistogram {
			if _, err := fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.scalar())); err != nil {
				return err
			}
			continue
		}
		s := m.histogram().Snapshot()
		for _, b := range s.Buckets {
			// Breaching buckets carry an OpenMetrics exemplar suffix:
			//   name_bucket{le="x"} N # {trace_id="42"} 612.3 1500000000.000
			// linking the bucket to the most recent execution that landed
			// in it (Prometheus text parsers ignore everything after #).
			if ex := b.Exemplar; ex != nil {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d # {trace_id=%q} %s %s\n",
					m.name, formatFloat(b.UpperBound), b.Count,
					ex.TraceID, formatFloat(ex.Value), strconv.FormatFloat(ex.Unix, 'f', 3, 64)); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b.UpperBound), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", m.name, formatFloat(s.Sum), m.name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// MetricSnapshot is one metric in a JSON snapshot.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Help      string             `json:"help,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot captures every metric's current value, sorted by name, for
// the JSON endpoint and programmatic consumers.
func (r *Registry) Snapshot() []MetricSnapshot {
	list := r.metricList()
	out := make([]MetricSnapshot, 0, len(list))
	for _, m := range list {
		ms := MetricSnapshot{Name: m.name, Type: string(m.kind), Help: m.help}
		if m.kind == kindHistogram {
			hs := m.histogram().Snapshot()
			ms.Histogram = &hs
		} else {
			v := m.scalar()
			ms.Value = &v
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
