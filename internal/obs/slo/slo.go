// Package slo layers service-level objectives on the obs span
// pipeline: a sliding multi-window burn-rate tracker in the style of
// the SRE workbook's multiwindow multi-burn-rate alerts, evaluated
// online against the stream of ExecSpans the engine's executions
// complete. The objective is the paper's headline metric —
// trigger-to-action latency — phrased as "Ratio of executions complete
// within Threshold" (e.g. 99% under 120 s, bracketing the paper's
// 58/84/122 s polling-gap quartiles, Fig 4). An execution is *bad*
// when it fails or its T2A exceeds the threshold; the burn rate is
// the bad fraction divided by the error budget (1-Ratio), so burn 1.0
// exactly spends the budget and burn 10 exhausts a 30-day budget in
// 3 days. Paging requires BOTH the fast and the slow window to burn
// hot — the fast window gives reaction time, the slow window stops a
// single bad minute from paging — and clearing is hysteretic: a page
// only clears once the fast burn drops below PageBurn*ClearFraction.
//
// The tracker keeps one global series plus one per trigger service
// (Rahmati et al. show per-service latency behavior drifts
// independently), using fixed-width time buckets in a ring so memory
// is O(services * slowWindow/bucketWidth) regardless of event rate.
//
// The companion TailStore keeps the full ExecSpan for executions that
// breach the objective or fail — tail-based retention, so the spans
// worth debugging are exactly the ones that survive.
package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Clock is the narrow time source the tracker needs; satisfied by
// simtime.Clock so SLO windows slide under simulated time.
type Clock interface {
	Now() time.Time
}

// Objective is a latency SLO: Ratio of executions must complete
// (successfully) within Threshold.
type Objective struct {
	Threshold time.Duration `json:"threshold"`
	Ratio     float64       `json:"ratio"`
}

// Defaults. The 5m/1h window pair is the SRE-workbook fast/slow page
// combination scaled to simtime-friendly horizons; PageBurn 10 /
// WarnBurn 2 match its page/ticket burn thresholds.
const (
	DefaultThreshold        = 120 * time.Second
	DefaultRatio            = 0.99
	DefaultFastWindow       = 5 * time.Minute
	DefaultSlowWindowFactor = 12 // slow = 12x fast (5m -> 1h)
	DefaultPageBurn         = 10.0
	DefaultWarnBurn         = 2.0
	DefaultClearFraction    = 0.5
	DefaultRetainSpans      = 256
)

// bucketsPerFastWindow sets the ring resolution: the fast window is
// split into this many buckets, so window edges are quantized to
// fast/5 (1m at the default 5m fast window).
const bucketsPerFastWindow = 5

// State is the alert state of one SLO series.
type State uint8

const (
	StateOK State = iota
	StateWarn
	StatePage
)

func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return "ok"
	}
}

// Transition is one alert state change, delivered to OnTransition.
type Transition struct {
	// Service is the trigger service the series tracks; "" is the
	// global series.
	Service  string
	From, To State
	// FastBurn/SlowBurn are the burn rates that drove the transition.
	FastBurn, SlowBurn float64
	At                 time.Time
}

// Config parameterizes a Tracker. The zero value of every field except
// Clock is usable: defaults above are applied by NewTracker.
type Config struct {
	// Clock provides time for window sliding (required).
	Clock Clock
	// Objective is the T2A SLO; zero fields default to 120s / 0.99.
	Objective Objective
	// FastWindow and SlowWindow are the burn-rate windows. Defaults:
	// 5m fast, 12x fast slow. SlowWindow is clamped to >= FastWindow.
	FastWindow, SlowWindow time.Duration
	// PageBurn and WarnBurn are the burn-rate thresholds for the page
	// and warn states (both windows must exceed them).
	PageBurn, WarnBurn float64
	// ClearFraction is the hysteresis factor: a state clears only once
	// the fast burn drops below enterThreshold*ClearFraction.
	ClearFraction float64
	// RetainSpans bounds the companion TailStore the engine builds
	// (default 256 spans).
	RetainSpans int
	// Metrics, when set, registers the global series' burn rates,
	// alert state, and totals as ifttt_slo_* metrics.
	Metrics *obs.Registry
	// OnTransition, when set, is invoked (outside the tracker lock)
	// for every alert state change, global and per-service.
	OnTransition func(Transition)
}

// winBucket is one fixed-width time slice of a series.
type winBucket struct {
	total, bad int64
}

// series is one tracked population: the global stream or one service.
type series struct {
	state     State
	buckets   []winBucket // ring; head covers [headStart, headStart+width)
	head      int
	headStart time.Time
	// lifetime totals, for status reporting.
	executions, breaches int64
}

// Tracker evaluates the objective over sliding windows and runs the
// ok -> warn -> page state machine per series. Safe for concurrent
// use: Observe runs on the engine's execution goroutines while
// scrapes read burn rates from HTTP handlers.
type Tracker struct {
	clock        Clock
	obj          Objective
	fast, slow   time.Duration
	width        time.Duration
	nFast, nSlow int
	pageBurn     float64
	warnBurn     float64
	clearFrac    float64
	onTransition func(Transition)

	mu       sync.Mutex
	global   *series
	services map[string]*series

	executions  *obs.Counter
	breachesCtr *obs.Counter
	transitions *obs.Counter
}

// NewTracker builds a tracker, applying defaults for zero Config
// fields, and registers global metrics when cfg.Metrics is set. It
// panics on a nil Clock — there is no sane fallback under simtime.
func NewTracker(cfg Config) *Tracker {
	if cfg.Clock == nil {
		panic("slo: Config.Clock is required")
	}
	if cfg.Objective.Threshold <= 0 {
		cfg.Objective.Threshold = DefaultThreshold
	}
	if cfg.Objective.Ratio <= 0 || cfg.Objective.Ratio >= 1 {
		cfg.Objective.Ratio = DefaultRatio
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultFastWindow
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = cfg.FastWindow * DefaultSlowWindowFactor
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	if cfg.PageBurn <= 0 {
		cfg.PageBurn = DefaultPageBurn
	}
	if cfg.WarnBurn <= 0 {
		cfg.WarnBurn = DefaultWarnBurn
	}
	if cfg.WarnBurn > cfg.PageBurn {
		cfg.WarnBurn = cfg.PageBurn
	}
	if cfg.ClearFraction <= 0 || cfg.ClearFraction > 1 {
		cfg.ClearFraction = DefaultClearFraction
	}
	t := &Tracker{
		clock:        cfg.Clock,
		obj:          cfg.Objective,
		fast:         cfg.FastWindow,
		slow:         cfg.SlowWindow,
		width:        cfg.FastWindow / bucketsPerFastWindow,
		nFast:        bucketsPerFastWindow,
		pageBurn:     cfg.PageBurn,
		warnBurn:     cfg.WarnBurn,
		clearFrac:    cfg.ClearFraction,
		onTransition: cfg.OnTransition,
		services:     make(map[string]*series),
	}
	if t.width <= 0 {
		t.width = time.Second
	}
	// Ring length covers the slow window, rounded up to whole buckets.
	t.nSlow = int((t.slow + t.width - 1) / t.width)
	if t.nSlow < t.nFast {
		t.nSlow = t.nFast
	}
	t.global = t.newSeries()
	if reg := cfg.Metrics; reg != nil {
		t.executions = reg.Counter("ifttt_slo_executions_total", "Executions evaluated against the T2A objective.")
		t.breachesCtr = reg.Counter("ifttt_slo_breaches_total", "Executions that failed or exceeded the T2A objective threshold.")
		t.transitions = reg.Counter("ifttt_slo_transitions_total", "SLO alert state transitions across all series.")
		reg.GaugeFunc("ifttt_slo_fast_burn_ratio", "Global error-budget burn rate over the fast window.", func() float64 {
			fastBurn, _, _ := t.globalBurns()
			return fastBurn
		})
		reg.GaugeFunc("ifttt_slo_slow_burn_ratio", "Global error-budget burn rate over the slow window.", func() float64 {
			_, slowBurn, _ := t.globalBurns()
			return slowBurn
		})
		reg.GaugeFunc("ifttt_slo_alert_state", "Global alert state: 0 ok, 1 warn, 2 page.", func() float64 {
			_, _, st := t.globalBurns()
			return float64(st)
		})
		reg.GaugeFunc("ifttt_slo_objective_threshold_seconds", "Configured T2A objective threshold.", func() float64 {
			return t.obj.Threshold.Seconds()
		})
		reg.GaugeFunc("ifttt_slo_objective_ratio", "Configured objective success ratio.", func() float64 {
			return t.obj.Ratio
		})
		reg.GaugeFunc("ifttt_slo_tracked_services", "Trigger services with an SLO series.", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(len(t.services))
		})
	}
	return t
}

// Objective returns the resolved (post-default) objective.
func (t *Tracker) Objective() Objective { return t.obj }

// RetainSpansOrDefault resolves a Config.RetainSpans value.
func RetainSpansOrDefault(n int) int {
	if n <= 0 {
		return DefaultRetainSpans
	}
	return n
}

func (t *Tracker) newSeries() *series {
	return &series{buckets: make([]winBucket, t.nSlow)}
}

// advanceLocked slides s's ring head forward to cover now, zeroing
// buckets the head passes over.
func (t *Tracker) advanceLocked(s *series, now time.Time) {
	if s.headStart.IsZero() {
		s.headStart = now
		return
	}
	steps := int(now.Sub(s.headStart) / t.width)
	if steps <= 0 {
		return
	}
	if steps >= len(s.buckets) {
		for i := range s.buckets {
			s.buckets[i] = winBucket{}
		}
	} else {
		for i := 0; i < steps; i++ {
			s.head = (s.head + 1) % len(s.buckets)
			s.buckets[s.head] = winBucket{}
		}
	}
	s.headStart = s.headStart.Add(time.Duration(steps) * t.width)
}

// window sums the most recent n buckets of s.
func (s *series) window(n int) (bad, total int64) {
	for i := 0; i < n; i++ {
		b := s.buckets[(s.head-i+len(s.buckets))%len(s.buckets)]
		bad += b.bad
		total += b.total
	}
	return bad, total
}

// burn converts a window's bad fraction into an error-budget burn
// rate. An empty window burns nothing.
func (t *Tracker) burn(bad, total int64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - t.obj.Ratio)
}

// evaluateLocked re-derives s's alert state from its current burns and
// returns the transition if the state changed (nil otherwise).
func (t *Tracker) evaluateLocked(s *series, service string, now time.Time) *Transition {
	fb, ft := s.window(t.nFast)
	sb, st := s.window(t.nSlow)
	fastBurn, slowBurn := t.burn(fb, ft), t.burn(sb, st)
	next := s.state
	switch s.state {
	case StatePage:
		// Hysteresis: hold the page until the fast burn falls well
		// below the page threshold, then re-derive warn vs ok.
		if fastBurn < t.pageBurn*t.clearFrac {
			if fastBurn >= t.warnBurn && slowBurn >= t.warnBurn {
				next = StateWarn
			} else {
				next = StateOK
			}
		}
	case StateWarn:
		if fastBurn >= t.pageBurn && slowBurn >= t.pageBurn {
			next = StatePage
		} else if fastBurn < t.warnBurn*t.clearFrac {
			next = StateOK
		}
	default: // StateOK
		if fastBurn >= t.pageBurn && slowBurn >= t.pageBurn {
			next = StatePage
		} else if fastBurn >= t.warnBurn && slowBurn >= t.warnBurn {
			next = StateWarn
		}
	}
	if next == s.state {
		return nil
	}
	tr := &Transition{
		Service:  service,
		From:     s.state,
		To:       next,
		FastBurn: fastBurn,
		SlowBurn: slowBurn,
		At:       now,
	}
	s.state = next
	if t.transitions != nil {
		t.transitions.Inc()
	}
	return tr
}

// observeLocked records one outcome into s and re-evaluates its state.
func (t *Tracker) observeLocked(s *series, service string, bad bool, now time.Time) *Transition {
	t.advanceLocked(s, now)
	s.buckets[s.head].total++
	s.executions++
	if bad {
		s.buckets[s.head].bad++
		s.breaches++
	}
	return t.evaluateLocked(s, service, now)
}

// Bad reports whether span breaches the objective: failed, or T2A
// above the threshold.
func (t *Tracker) Bad(span obs.ExecSpan) bool {
	return span.Failed || span.T2A() > t.obj.Threshold
}

// Observe feeds one completed execution span into the global series
// and the span's trigger-service series, firing OnTransition for any
// resulting state changes. Intended as a span sink (engine.Config.SLO
// wires it).
func (t *Tracker) Observe(span obs.ExecSpan) {
	bad := t.Bad(span)
	now := t.clock.Now()
	var fired []Transition
	t.mu.Lock()
	if tr := t.observeLocked(t.global, "", bad, now); tr != nil {
		fired = append(fired, *tr)
	}
	if svc := span.TriggerService; svc != "" {
		s := t.services[svc]
		if s == nil {
			s = t.newSeries()
			t.services[svc] = s
		}
		if tr := t.observeLocked(s, svc, bad, now); tr != nil {
			fired = append(fired, *tr)
		}
	}
	t.mu.Unlock()
	if t.executions != nil {
		t.executions.Inc()
		if bad {
			t.breachesCtr.Inc()
		}
	}
	t.fire(fired)
}

func (t *Tracker) fire(trs []Transition) {
	if t.onTransition == nil {
		return
	}
	for _, tr := range trs {
		t.onTransition(tr)
	}
}

// globalBurns slides the global series to now and returns its burns
// and state, firing any time-driven transition (e.g. a page clearing
// because the window emptied).
func (t *Tracker) globalBurns() (fastBurn, slowBurn float64, st State) {
	now := t.clock.Now()
	var fired []Transition
	t.mu.Lock()
	t.advanceLocked(t.global, now)
	if tr := t.evaluateLocked(t.global, "", now); tr != nil {
		fired = append(fired, *tr)
	}
	fb, ft := t.global.window(t.nFast)
	sb, stot := t.global.window(t.nSlow)
	fastBurn, slowBurn = t.burn(fb, ft), t.burn(sb, stot)
	st = t.global.state
	t.mu.Unlock()
	t.fire(fired)
	return fastBurn, slowBurn, st
}

// State returns the global alert state as of now.
func (t *Tracker) State() State {
	_, _, st := t.globalBurns()
	return st
}

// SeriesStatus is one series in a Status report.
type SeriesStatus struct {
	Service    string  `json:"service,omitempty"`
	State      string  `json:"state"`
	FastBurn   float64 `json:"fast_burn"`
	SlowBurn   float64 `json:"slow_burn"`
	FastBad    int64   `json:"fast_bad"`
	FastTotal  int64   `json:"fast_total"`
	SlowBad    int64   `json:"slow_bad"`
	SlowTotal  int64   `json:"slow_total"`
	Breaches   int64   `json:"breaches_total"`
	Executions int64   `json:"executions_total"`
}

// Status is the tracker's full state, served at /debug/slo.
type Status struct {
	ThresholdSeconds  float64        `json:"threshold_s"`
	Ratio             float64        `json:"ratio"`
	FastWindowSeconds float64        `json:"fast_window_s"`
	SlowWindowSeconds float64        `json:"slow_window_s"`
	Global            SeriesStatus   `json:"global"`
	Services          []SeriesStatus `json:"services,omitempty"`
}

func (t *Tracker) seriesStatusLocked(s *series, service string) SeriesStatus {
	fb, ft := s.window(t.nFast)
	sb, st := s.window(t.nSlow)
	return SeriesStatus{
		Service:    service,
		State:      s.state.String(),
		FastBurn:   t.burn(fb, ft),
		SlowBurn:   t.burn(sb, st),
		FastBad:    fb,
		FastTotal:  ft,
		SlowBad:    sb,
		SlowTotal:  st,
		Breaches:   s.breaches,
		Executions: s.executions,
	}
}

// Status slides every series to now, fires any time-driven
// transitions, and returns the full report (services sorted by name).
func (t *Tracker) Status() Status {
	now := t.clock.Now()
	var fired []Transition
	t.mu.Lock()
	st := Status{
		ThresholdSeconds:  t.obj.Threshold.Seconds(),
		Ratio:             t.obj.Ratio,
		FastWindowSeconds: t.fast.Seconds(),
		SlowWindowSeconds: t.slow.Seconds(),
	}
	t.advanceLocked(t.global, now)
	if tr := t.evaluateLocked(t.global, "", now); tr != nil {
		fired = append(fired, *tr)
	}
	st.Global = t.seriesStatusLocked(t.global, "")
	names := make([]string, 0, len(t.services))
	for name := range t.services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.services[name]
		t.advanceLocked(s, now)
		if tr := t.evaluateLocked(s, name, now); tr != nil {
			fired = append(fired, *tr)
		}
		st.Services = append(st.Services, t.seriesStatusLocked(s, name))
	}
	t.mu.Unlock()
	t.fire(fired)
	return st
}

// ServeHTTP serves the Status report as JSON, for /debug/slo.
func (t *Tracker) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(t.Status()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Describe renders the objective for logs and consoles: "99% < 2m0s".
func (o Objective) String() string {
	return fmt.Sprintf("%g%% < %s", o.Ratio*100, o.Threshold)
}
