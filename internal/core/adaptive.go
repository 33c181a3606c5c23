// Adaptive-polling Pareto study: the quantitative case for promoting
// §6's "poll smartly" proposal into the engine. Both arms poll the same
// skewed population — a tiny hot set producing most events over a long
// cold tail, the shape the paper measured in Fig 3 — under the same
// per-service QPS budget. The uniform arm spends the budget evenly
// (interval = subscriptions/QPS); the adaptive arm lets the EWMA
// feedback loop concentrate it. Each point on the curve is (poll cost
// actually spent, T2A actually delivered), so the study answers the
// operational question directly: how much latency does a unit of
// upstream QPS buy under each policy?
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// SkewedLoad is an httpx.Doer serving a two-tier periodic event
// population: trigger polls whose identity marker (the "n" trigger
// field) starts with "h" see one event per HotPeriod, all others one
// per ColdPeriod. Responses follow the trigger protocol — newest
// events first, capped at 50 — with IDs and timestamps (whole-second
// plus the nanosecond "timestamp_ns" extension) derived from the
// schedule, and each identity is served exactly the events that
// accrued since its previous poll. Each marker's schedule carries a
// deterministic sub-period phase offset (an fnv hash of the marker),
// so occurrences spread across real instants instead of all landing on
// shared whole-second ticks — without the phase, every sub-second
// latency in a sim collapses to exactly zero. Non-trigger requests
// (action dispatches) are acknowledged with an empty body.
//
// The per-identity cursors live in striped maps so a sharded engine's
// concurrent polls do not serialize on one lock.
type SkewedLoad struct {
	clock      simtime.Clock
	start      time.Time
	hotPeriod  time.Duration
	coldPeriod time.Duration

	stripes [64]loadStripe
}

type loadStripe struct {
	mu     sync.Mutex
	served map[string]int
}

// NewSkewedLoad builds a doer whose event schedules start at the
// clock's current instant.
func NewSkewedLoad(clock simtime.Clock, hotPeriod, coldPeriod time.Duration) *SkewedLoad {
	d := &SkewedLoad{
		clock: clock, start: clock.Now(),
		hotPeriod: hotPeriod, coldPeriod: coldPeriod,
	}
	for i := range d.stripes {
		d.stripes[i].served = make(map[string]int)
	}
	return d
}

func (d *SkewedLoad) Do(req *http.Request) (*http.Response, error) {
	if !strings.Contains(req.URL.Path, "/triggers/") || req.Body == nil {
		return reply(req, `{}`)
	}
	raw, _ := io.ReadAll(req.Body)
	marker := fieldN(string(raw))
	if marker == "" {
		return reply(req, `{"data":[]}`)
	}
	avail := d.EventsOccurred(marker, d.clock.Now())

	h := fnv.New32a()
	io.WriteString(h, marker)
	st := &d.stripes[h.Sum32()%uint32(len(d.stripes))]
	st.mu.Lock()
	lo := st.served[marker]
	st.served[marker] = avail
	st.mu.Unlock()
	if avail-lo > 50 {
		lo = avail - 50
	}
	var b strings.Builder
	b.WriteString(`{"data":[`)
	for i := avail - 1; i >= lo; i-- {
		if i < avail-1 {
			b.WriteByte(',')
		}
		ts := d.EventTime(marker, i)
		fmt.Fprintf(&b, `{"meta":{"id":"%s-%06d","timestamp":%d,"timestamp_ns":%d}}`,
			marker, i, ts.Unix(), ts.UnixNano())
	}
	b.WriteString(`]}`)
	return reply(req, b.String())
}

// periodOf resolves a marker's event cadence.
func (d *SkewedLoad) periodOf(marker string) time.Duration {
	if strings.HasPrefix(marker, "h") {
		return d.hotPeriod
	}
	return d.coldPeriod
}

// phaseOf is marker's deterministic schedule offset in [0, period): an
// fnv-64a hash of the marker folded into the period.
func (d *SkewedLoad) phaseOf(marker string, period time.Duration) time.Duration {
	h := fnv.New64a()
	io.WriteString(h, marker)
	return time.Duration(h.Sum64() % uint64(period))
}

// EventTime is the occurrence instant of marker's i-th event (0-based):
// start + phase + (i+1)·period. Push drivers use it to stamp the exact
// times SkewedLoad serves to polls, so dedup reconciles the paths.
func (d *SkewedLoad) EventTime(marker string, i int) time.Time {
	period := d.periodOf(marker)
	return d.start.Add(d.phaseOf(marker, period) + time.Duration(i+1)*period)
}

// EventsOccurred is how many of marker's events have occurred by now —
// equivalently, the first not-yet-occurred event index.
func (d *SkewedLoad) EventsOccurred(marker string, now time.Time) int {
	period := d.periodOf(marker)
	elapsed := now.Sub(d.start) - d.phaseOf(marker, period)
	if elapsed < period {
		return 0
	}
	return int(elapsed / period)
}

// fieldN pulls the "n" trigger-field value out of a serialized poll
// request body without a full JSON decode (the doer sits on the poll
// hot path of 100K-subscription runs).
func fieldN(body string) string {
	i := strings.Index(body, `"n":"`)
	if i < 0 {
		return ""
	}
	rest := body[i+len(`"n":"`):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// ParetoConfig tunes RunAdaptivePareto. Zero fields select the
// defaults noted on each.
type ParetoConfig struct {
	Seed uint64
	// Subs and Hot size the population: Subs subscriptions of which the
	// first Hot are hot. Defaults 2000 and 20 (the paper's Fig 3 skew:
	// ~1% of applets carry most of the traffic).
	Subs, Hot int
	// HotPeriod and ColdPeriod are the event cadences. Defaults 30s and
	// 4h.
	HotPeriod, ColdPeriod time.Duration
	// Budgets are the per-service QPS points of the curve. Default
	// {4, 8, 16, 32}.
	Budgets []float64
	// Horizon is each arm's simulated run length; spans from its first
	// quarter (EWMA warm-up and initial-gap spreading) are discarded.
	// Default 2h.
	Horizon time.Duration
	// FastFloor, SlowCeiling, and HalfLife forward to the adaptive
	// arm's engine.AdaptiveConfig (zeros = engine defaults). Exposed so
	// tests can shrink the timescales.
	FastFloor, SlowCeiling time.Duration
	HalfLife               time.Duration
	// Target forwards to AdaptiveConfig.TargetEventsPerPoll. The study
	// defaults to 0.3 rather than the engine's 1: at 1 the cadence
	// converges to the event period itself (efficiency-optimal, zero
	// latency win), while sub-1 targets trade budget for freshness —
	// the trade the Pareto curve is measuring.
	Target float64
}

// QuickParetoConfig is the study at cmd/report -quick's size: 200
// subscriptions of which 4 are hot, budgets of 1 and 4 QPS, one hour.
func QuickParetoConfig(seed uint64) ParetoConfig {
	return ParetoConfig{Seed: seed, Subs: 200, Hot: 4, Budgets: []float64{1, 4}, Horizon: time.Hour}
}

// ParetoPoint is one (policy, budget) measurement.
type ParetoPoint struct {
	BudgetQPS float64
	Adaptive  bool
	// P50 and P90 are trigger-to-action latency percentiles in seconds
	// over all events delivered after warm-up.
	P50, P90 float64
	// Events is the number of measured deliveries behind the
	// percentiles.
	Events int
	// MeasuredQPS is the poll rate actually spent (polls/horizon); with
	// Utilization = MeasuredQPS/BudgetQPS it verifies both arms paid
	// comparable cost wherever demand saturates the budget.
	MeasuredQPS float64
	// Deferred counts polls the admission controller pushed to a later
	// token slot.
	Deferred int64
	Polls    int64
}

// Utilization is the share of the budget actually spent.
func (p ParetoPoint) Utilization() float64 { return p.MeasuredQPS / p.BudgetQPS }

// ParetoResults carries the full curve, uniform and adaptive arms at
// each budget.
type ParetoResults struct {
	Cfg    ParetoConfig
	Points []ParetoPoint
}

// RunAdaptivePareto sweeps the QPS budgets, running a uniform arm
// (FixedInterval sized to spend exactly the budget) and an adaptive arm
// (EWMA cadence shaped by the same admission controller) at each.
func RunAdaptivePareto(cfg ParetoConfig) (*ParetoResults, error) {
	orDefault(&cfg.Subs, 2000)
	orDefault(&cfg.Hot, 20)
	orDefault(&cfg.HotPeriod, 30*time.Second)
	orDefault(&cfg.ColdPeriod, 4*time.Hour)
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []float64{4, 8, 16, 32}
	}
	orDefault(&cfg.Horizon, 2*time.Hour)
	orDefault(&cfg.Target, 0.3)
	res := &ParetoResults{Cfg: cfg}
	for i, qps := range cfg.Budgets {
		for _, adaptive := range []bool{false, true} {
			pt, err := runParetoArm(cfg, cfg.Seed+uint64(i*2), adaptive, qps)
			if err != nil {
				return nil, fmt.Errorf("budget %g adaptive=%v: %w", qps, adaptive, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

func runParetoArm(cfg ParetoConfig, seed uint64, adaptive bool, qps float64) (ParetoPoint, error) {
	rig := newSimRig()
	doer := NewSkewedLoad(rig.clock, cfg.HotPeriod, cfg.ColdPeriod)
	rig.cutoff = rig.clock.Now().Add(cfg.Horizon / 4)
	ecfg := engine.Config{
		Clock: rig.clock, RNG: stats.NewRNG(seed), Doer: doer,
		DispatchDelay: -1, Shards: 8, ShardWorkers: 8,
		PollBudgetQPS: qps,
		OnSpan:        rig.onSpan,
	}
	if adaptive {
		ecfg.Adaptive = &engine.AdaptiveConfig{
			HalfLife:            cfg.HalfLife,
			FastFloor:           cfg.FastFloor,
			SlowCeiling:         cfg.SlowCeiling,
			TargetEventsPerPoll: cfg.Target,
		}
	} else {
		interval := time.Duration(float64(cfg.Subs) / qps * float64(time.Second))
		ecfg.Poll = engine.FixedInterval{Interval: interval}
	}
	eng := engine.New(ecfg)
	if err := rig.run(func() error {
		defer eng.Stop()
		if err := installN(eng.Install, cfg.Subs, func(j int) engine.Applet { return paretoApplet(j, cfg.Hot) }); err != nil {
			return err
		}
		rig.clock.Sleep(cfg.Horizon)
		return nil
	}); err != nil {
		return ParetoPoint{}, err
	}
	st, t2a := eng.Stats(), summary(rig.t2a)
	return ParetoPoint{
		BudgetQPS:   qps,
		Adaptive:    adaptive,
		P50:         t2a.P50,
		P90:         t2a.P90,
		Events:      t2a.N,
		MeasuredQPS: float64(st.Polls) / cfg.Horizon.Seconds(),
		Deferred:    st.PollsDeferred,
		Polls:       st.Polls,
	}, nil
}

// paretoApplet builds subscription j: the first hot applets carry an
// "h"-prefixed identity marker (SkewedLoad's hot schedule), the rest a
// cold one. One applet per identity — coalescing is exercised
// elsewhere; here every subscription is its own budget consumer.
func paretoApplet(j, hot int) engine.Applet {
	marker := fmt.Sprintf("c%05d", j)
	if j < hot {
		marker = fmt.Sprintf("h%05d", j)
	}
	return engine.Applet{
		ID:     fmt.Sprintf("a%05d", j),
		UserID: fmt.Sprintf("u%04d", j%1000),
		Trigger: engine.ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": marker},
		},
		Action: engine.ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "act",
		},
	}
}

// FormatAdaptivePareto renders the T2A-vs-poll-cost section of
// EXPERIMENTS.md.
func FormatAdaptivePareto(r *ParetoResults) string {
	var b strings.Builder
	b.WriteString("## Adaptive polling: T2A vs poll cost (Pareto study)\n\n")
	fmt.Fprintf(&b,
		"%d subscriptions (%d hot at one event/%s, %d cold at one event/%s) polled under a per-service QPS budget. "+
			"The uniform arm spreads the budget evenly (interval = subs/QPS); the adaptive arm concentrates it by observed event rate, "+
			"shaped by the same deferring admission controller. Latencies are event T2A percentiles after warm-up.\n\n",
		r.Cfg.Subs, r.Cfg.Hot, r.Cfg.HotPeriod, r.Cfg.Subs-r.Cfg.Hot, r.Cfg.ColdPeriod)
	b.WriteString("| Budget (QPS) | Policy | T2A p50 | T2A p90 | Spent (QPS) | Utilization | Deferred polls |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, p := range r.Points {
		policy := "uniform"
		if p.Adaptive {
			policy = "adaptive"
		}
		fmt.Fprintf(&b, "| %g | %s | %.1f s | %.1f s | %.2f | %.0f%% | %d |\n",
			p.BudgetQPS, policy, p.P50, p.P90, p.MeasuredQPS, 100*p.Utilization(), p.Deferred)
	}
	b.WriteString("\nReading the curve: wherever hot demand saturates the budget both arms spend the same QPS, ")
	b.WriteString("so the p50 gap is pure scheduling skill; once the budget exceeds adaptive demand, the adaptive arm ")
	b.WriteString("stops spending (utilization falls) while uniform keeps burning its whole allowance for worse latency — ")
	b.WriteString("the adaptive points dominate on both axes.\n")
	return b.String()
}
