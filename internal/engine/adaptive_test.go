package engine

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func TestEWMARateHalfLife(t *testing.T) {
	const hl = time.Minute
	// Exactly one half-life of silence halves the estimate, regardless
	// of how the silence is sliced (time-aware decay).
	if got := ewmaRate(0.8, 0, hl, hl); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("one half-life of silence: rate = %g, want 0.4", got)
	}
	r := 0.8
	for i := 0; i < 4; i++ {
		r = ewmaRate(r, 0, hl/4, hl)
	}
	if math.Abs(r-0.4) > 1e-12 {
		t.Errorf("four quarter-half-lives of silence: rate = %g, want 0.4", r)
	}
	// Sustained observation converges to the true rate: n events per
	// dt pulls the estimate toward n/dt from either side.
	up, down := 0.0, 10.0
	for i := 0; i < 200; i++ {
		up = ewmaRate(up, 5, 10*time.Second, hl)
		down = ewmaRate(down, 5, 10*time.Second, hl)
	}
	if math.Abs(up-0.5) > 1e-6 || math.Abs(down-0.5) > 1e-6 {
		t.Errorf("converged rates = %g, %g, want 0.5", up, down)
	}
	// Non-positive dt is a no-op, not a division by zero.
	if got := ewmaRate(0.7, 3, 0, hl); got != 0.7 {
		t.Errorf("zero-dt update: rate = %g, want unchanged 0.7", got)
	}
	// A zero prior moves immediately on first observation.
	if got := ewmaRate(0, 6, time.Minute, hl); got <= 0 {
		t.Errorf("first observation left rate at %g", got)
	}
}

func TestAdaptiveGapMapping(t *testing.T) {
	p := resolveAdaptive(&AdaptiveConfig{
		FastFloor:           10 * time.Second,
		SlowCeiling:         10 * time.Minute,
		TargetEventsPerPoll: 2,
	})
	cases := []struct {
		rate float64
		want time.Duration
	}{
		{0, 10 * time.Minute},      // never seen an event → ceiling
		{-1, 10 * time.Minute},     // defensive: negative → ceiling
		{0.0001, 10 * time.Minute}, // 2/0.0001 = 20000s, clamped
		{0.01, 200 * time.Second},  // inside the band: target/rate
		{100, 10 * time.Second},    // hot, clamped at the floor
	}
	for _, tc := range cases {
		if got := p.gap(tc.rate); got != tc.want {
			t.Errorf("gap(%g) = %v, want %v", tc.rate, got, tc.want)
		}
	}

	// Defaults resolve, the hint boost pins the floor, and the initial
	// gap lands in [fast, slow).
	d := resolveAdaptive(&AdaptiveConfig{})
	if d.halfLife != DefaultEWMAHalfLife || d.fast != DefaultFastFloor || d.slow != DefaultSlowCeiling {
		t.Errorf("defaults = %v/%v/%v", d.halfLife, d.fast, d.slow)
	}
	if got := d.gap(d.boost); got != d.fast {
		t.Errorf("gap(boost) = %v, want the fast floor %v", got, d.fast)
	}
	g := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		ig := d.initialGap(g)
		if ig < d.fast || ig >= d.slow {
			t.Fatalf("initial gap = %v, want [%v, %v)", ig, d.fast, d.slow)
		}
	}
	if resolveAdaptive(nil) != nil {
		t.Error("nil config must resolve to nil (adaptive off)")
	}
	if nb := resolveAdaptive(&AdaptiveConfig{HintBoost: -1}); nb.boost != 0 {
		t.Errorf("negative HintBoost: boost = %g, want 0 (disabled)", nb.boost)
	}
}

func TestAdmissionReserve(t *testing.T) {
	t0 := time.Unix(1000, 0)
	a := newAdmission(1, 2) // 1 token/sec, burst 2
	// The burst admits back-to-back polls, then reservations space out
	// at exactly 1/qps.
	if w := a.reserve("svc", t0); w != 0 {
		t.Errorf("first reserve deferred by %v", w)
	}
	if w := a.reserve("svc", t0); w != 0 {
		t.Errorf("second reserve (burst) deferred by %v", w)
	}
	waits := []time.Duration{
		a.reserve("svc", t0),
		a.reserve("svc", t0),
		a.reserve("svc", t0),
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if waits[i] != want {
			t.Errorf("reservation %d wait = %v, want %v (distinct future slots)", i, waits[i], want)
		}
	}
	if g := a.grants(); g != 2 {
		t.Errorf("grants = %d, want 2", g)
	}
	if bal := a.tokenBalance(); math.Abs(bal-(-3)) > 1e-9 {
		t.Errorf("token balance = %g, want -3 (outstanding reservations)", bal)
	}
	// Refill is capped at burst, and services have independent buckets.
	if w := a.reserve("other", t0.Add(time.Hour)); w != 0 {
		t.Errorf("independent service deferred by %v", w)
	}
	if w := a.reserve("svc", t0.Add(time.Hour)); w != 0 {
		t.Errorf("after refill: deferred by %v", w)
	}
	if bal := a.tokenBalance(); bal > 3 {
		t.Errorf("token balance = %g, burst cap (2+1 services) exceeded", bal)
	}
}

// periodicDoer serves a deterministic periodic event schedule for polls
// whose request body carries the "hot" marker field, and empty results
// for everything else: the newest pending events since the previous
// poll (capped at 50, the protocol default), with IDs and unix-second
// timestamps derived from the schedule.
type periodicDoer struct {
	clock  simtime.Clock
	start  time.Time
	period time.Duration

	mu     sync.Mutex
	served int
}

func (d *periodicDoer) Do(req *http.Request) (*http.Response, error) {
	ok := func(body string) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader(body)),
			Header:     make(http.Header),
			Request:    req,
		}, nil
	}
	if req.Body == nil {
		return ok(`{}`)
	}
	raw, _ := io.ReadAll(req.Body)
	if !strings.Contains(string(raw), `"n":"hot"`) {
		return ok(`{"data":[]}`)
	}
	d.mu.Lock()
	avail := int(d.clock.Now().Sub(d.start) / d.period)
	lo := d.served
	if avail-lo > 50 {
		lo = avail - 50
	}
	var b strings.Builder
	b.WriteString(`{"data":[`)
	for i := avail - 1; i >= lo; i-- {
		if i < avail-1 {
			b.WriteByte(',')
		}
		ts := d.start.Add(time.Duration(i+1) * d.period).Unix()
		fmt.Fprintf(&b, `{"meta":{"id":"e%06d","timestamp":%d}}`, i, ts)
	}
	b.WriteString(`]}`)
	d.served = avail
	d.mu.Unlock()
	return ok(b.String())
}

// TestEngineAdaptiveConvergence checks the feedback loop end to end: a
// subscription whose trigger produces events converges to the fast
// floor within a few polls, while a silent subscription decays to (and
// stays at) the slow ceiling. Coalescing is on, so the hot
// subscription is also a two-member coalesced one — adaptive state
// lives per subscription, not per applet.
func TestEngineAdaptiveConvergence(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &periodicDoer{clock: clock, start: clock.Now(), period: 5 * time.Second}
	eng := New(Config{
		Clock:         clock,
		RNG:           stats.NewRNG(17),
		Doer:          doer,
		DispatchDelay: -1,
		Coalesce:      true,
		Adaptive: &AdaptiveConfig{
			HalfLife:    time.Minute,
			FastFloor:   10 * time.Second,
			SlowCeiling: 10 * time.Minute,
		},
	})
	hot := func(id string) Applet {
		return Applet{
			ID: id, UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": "hot"}},
			Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
		}
	}
	cold := Applet{
		ID: "cold", UserID: "u1",
		Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": "cold"}},
		Action: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
	}

	var midHot, midCold, endHot, endCold int64
	countPolls := func(marker string) int64 { return pollsByMarker(eng, marker) }

	clock.Run(func() {
		for _, a := range []Applet{hot("h1"), hot("h2"), cold} {
			if err := eng.Install(a); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
		// Initial gaps land in [10s, 10m); by +30m the hot subscription
		// has seen its first backlog and converged.
		clock.Sleep(30 * time.Minute)
		midHot, midCold = countPolls("hot"), countPolls("cold")
		clock.Sleep(10 * time.Minute)
		endHot, endCold = countPolls("hot"), countPolls("cold")
		eng.Stop()
	})

	// Coalescing: two hot applets share one subscription — exactly one
	// upstream poll stream.
	st := eng.Stats()
	if st.Subscriptions != 2 {
		t.Fatalf("subscriptions = %d, want 2 (h1+h2 coalesced, cold)", st.Subscriptions)
	}
	// Converged hot cadence ≈ the 10s floor (±10% jitter): the last
	// 10 minutes hold ~55-66 polls. Allow slack for the dispatch time
	// of 50-event backlog polls.
	hotWindow := endHot - midHot
	if hotWindow < 40 {
		t.Errorf("hot polls in final 10m = %d, want ≥ 40 (≈ fast-floor cadence)", hotWindow)
	}
	// The cold subscription never leaves the ceiling: its first poll
	// lands in [10s, 10m) and later ones every ~10m, so 40 minutes hold
	// at most ~5.
	if endCold > 6 {
		t.Errorf("cold polls over 40m = %d, want ≤ 6 (slow-ceiling cadence)", endCold)
	}
	if midCold == 0 {
		t.Error("cold subscription never polled — ceiling must still poll")
	}
	t.Logf("hot polls: 30m=%d final10m=%d; cold polls 40m=%d", midHot, hotWindow, endCold)
}

// pollsByMarker counts poll_sent-equivalent polls per subscription by
// reading the per-subscription state under the shard locks. Polls are
// tracked via the trigger's marker field.
func pollsByMarker(e *Engine, marker string) int64 {
	var n int64
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, sub := range sh.subs {
			if sub.members[0].triggerFields["n"] == marker {
				n += sub.pollCount
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestEngineAdaptiveHintSpikeAndDecay: an honoured realtime hint spikes
// a cold subscription's EWMA to the fast floor, and with no events
// behind it the estimate decays back to the slow ceiling within a few
// half-lives — half-life correctness under simtime, observed through
// the engine's own scheduling.
func TestEngineAdaptiveHintSpikeAndDecay(t *testing.T) {
	r := newRigCfg(t, nil, map[string]bool{"testsvc": true}, func(cfg *Config) {
		cfg.Adaptive = &AdaptiveConfig{
			HalfLife:    time.Minute,
			FastFloor:   10 * time.Second,
			SlowCeiling: 10 * time.Minute,
		}
		cfg.DispatchDelay = -1
	})
	pollsAt := func() int { return len(r.tracesOf(TracePollSent)) }

	var atHint, fastWindow, decayStart, decayEnd int
	r.clock.Run(func() {
		if err := r.engine.Install(r.applet("a1")); err != nil {
			t.Fatalf("install: %v", err)
		}
		// Past the initial [10s, 10m) gap: the subscription is cold.
		r.clock.Sleep(12 * time.Minute)
		atHint = pollsAt()
		hintEngineUser(r, "u1")
		// The spike pins the cadence at the 10s floor, stretching as
		// the boost decays (half-life 1m): ~9 polls land in the next
		// three minutes, versus zero at the 10m ceiling cadence.
		r.clock.Sleep(3 * time.Minute)
		fastWindow = pollsAt() - atHint
		// boost = 0.1 ev/s decays below target/slow = 1/600 in
		// ln(60)/ln2 ≈ 5.9 half-lives ≈ 6 minutes; by +20m the
		// subscription is back at the ceiling.
		r.clock.Sleep(17 * time.Minute)
		decayStart = pollsAt()
		r.clock.Sleep(30 * time.Minute)
		decayEnd = pollsAt()
		r.engine.Stop()
	})

	if atHint < 1 || atHint > 3 {
		t.Errorf("pre-hint polls = %d, want 1-3 (cold cadence)", atHint)
	}
	if fastWindow < 7 {
		t.Errorf("polls in 3m after hint = %d, want ≥ 10 — hint did not spike the EWMA", fastWindow)
	}
	decayed := decayEnd - decayStart
	if decayed > 4 {
		t.Errorf("polls in 30m decay window = %d, want ≤ 4 — EWMA did not decay to the ceiling", decayed)
	}
	t.Logf("polls: pre-hint=%d fast-3m=%d decayed-30m=%d", atHint, fastWindow, decayed)
}

// TestEngineAdmissionDefersNotDrops: thirty subscriptions wanting a
// poll per minute against a 0.1 QPS budget. The admission controller
// must (a) hold the measured rate at the budget, (b) defer — not drop —
// every excess poll, and (c) keep every subscription polling.
func TestEngineAdmissionDefersNotDrops(t *testing.T) {
	clock := simtime.NewSimDefault()
	eng := New(Config{
		Clock:         clock,
		RNG:           stats.NewRNG(23),
		Doer:          stubDoer{},
		Poll:          FixedInterval{Interval: time.Minute},
		DispatchDelay: -1,
		PollBudgetQPS: 0.1,
		Shards:        4,
	})
	const n = 30
	const runFor = 30 * time.Minute
	clock.Run(func() {
		for i := 0; i < n; i++ {
			if err := eng.Install(scaleApplet(i)); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
		clock.Sleep(runFor)
		eng.Stop()
	})
	st := eng.Stats()
	want := 0.1 * runFor.Seconds() // 180
	if float64(st.Polls) > want*1.1+1 {
		t.Errorf("polls = %d, want ≤ ~%.0f — budget exceeded", st.Polls, want)
	}
	if float64(st.Polls) < want*0.8 {
		t.Errorf("polls = %d, want ≥ %.0f — budget underused under saturation", st.Polls, 0.8*want)
	}
	if st.PollsDeferred == 0 {
		t.Error("PollsDeferred = 0, want > 0 — saturation must be visible")
	}
	if st.BudgetGrants+st.PollsDeferred < st.Polls {
		t.Errorf("grants(%d) + deferrals(%d) < polls(%d)", st.BudgetGrants, st.PollsDeferred, st.Polls)
	}
	// Defer, not drop: every subscription keeps polling. 180 polls over
	// 30 subs leaves no room for a starved one at FIFO fairness; check
	// via the per-subscription counters.
	starved := 0
	for _, sh := range eng.shards {
		sh.mu.Lock()
		for _, sub := range sh.subs {
			if sub.pollCount == 0 {
				starved++
			}
		}
		sh.mu.Unlock()
	}
	if starved > 0 {
		t.Errorf("%d subscriptions never polled — deferral must not starve", starved)
	}
	t.Logf("polls=%d deferred=%d grants=%d", st.Polls, st.PollsDeferred, st.BudgetGrants)
}

// TestEngineAdaptiveChaosZeroBudget is the adaptive-mode chaos soak
// (run under -race via scripts/verify.sh): adaptive cadence + admission
// + coalescing through a long blackout. Its core acceptance assertion
// is that breaker-open subscriptions consume zero budget — once the
// whole population has tripped, the admission grant counter must not
// move while probe polls keep running.
func TestEngineAdaptiveChaosZeroBudget(t *testing.T) {
	n := 5_000
	if testing.Short() {
		n = 1_000
	}
	const shards, workers = 8, 8
	const (
		blackoutStart = 4 * time.Minute
		blackoutEnd   = 60 * time.Minute
	)

	clock := simtime.NewSimDefault()
	rng := stats.NewRNG(41)
	inj := faults.New(clock, rng.Split("faults"))
	inj.AddRule(faults.Rule{
		Blackouts: []faults.Window{{Start: blackoutStart, End: blackoutEnd}},
	})
	eng := New(Config{
		Clock:         clock,
		RNG:           rng.Split("engine"),
		Doer:          inj.Wrap(stubDoer{}),
		DispatchDelay: -1,
		Shards:        shards,
		ShardWorkers:  workers,
		Coalesce:      true,
		Adaptive: &AdaptiveConfig{
			HalfLife:    2 * time.Minute,
			FastFloor:   30 * time.Second,
			SlowCeiling: 10 * time.Minute,
		},
		PollBudgetQPS: 50,
		Resilience: ResilienceConfig{
			BackoffBase:      time.Minute,
			BackoffMax:       4 * time.Minute,
			BreakerThreshold: 3,
			ProbeInterval:    2 * time.Minute,
		},
	})

	// Pairs of applets share a user and trigger fields, so coalescing
	// folds them into two-member subscriptions.
	pairApplet := func(i int) Applet {
		pair := fmt.Sprintf("p%05d", i/2)
		return Applet{
			ID:     fmt.Sprintf("a%05d", i),
			UserID: "u-" + pair,
			Trigger: ServiceRef{
				Service: "chaossvc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": pair},
			},
			Action: ServiceRef{Service: "chaossvc", BaseURL: "http://svc.sim", Slug: "act"},
		}
	}

	baseline := runtime.NumGoroutine()
	var peak int
	sample := func() {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}

	var allOpen, stillOpen, recovered Stats
	clock.Run(func() {
		for i := 0; i < n; i++ {
			if err := eng.Install(pairApplet(i)); err != nil {
				t.Fatalf("install %d: %v", i, err)
			}
		}
		sample()
		// Initial polls land in [30s, 10m) — the earliest before the
		// blackout starts, but even a successful first poll reschedules
		// at the ceiling into the blackout; the ladder (1m, 2m backoffs,
		// threshold 3) plus deferral spread has every breaker open well
		// before +25m.
		clock.Sleep(25 * time.Minute)
		sample()
		allOpen = eng.Stats()
		// The zero-budget window: only probes run between these
		// snapshots.
		clock.Sleep(20 * time.Minute)
		sample()
		stillOpen = eng.Stats()
		// Blackout ends at +60m; probes every ~2m close everything.
		clock.Sleep(25 * time.Minute)
		sample()
		recovered = eng.Stats()
		eng.Stop()
	})

	subs := int64(n / 2)
	if allOpen.BreakersOpen != subs {
		t.Fatalf("BreakersOpen = %d at +25m, want all %d — population did not fully trip",
			allOpen.BreakersOpen, subs)
	}
	// The acceptance criterion: with every breaker open, probe polls
	// keep running but admission grants are frozen — breaker-open
	// subscriptions consume zero budget.
	if probes := stillOpen.BreakerProbes - allOpen.BreakerProbes; probes == 0 {
		t.Error("no probes ran during the all-open window")
	}
	if got := stillOpen.BudgetGrants - allOpen.BudgetGrants; got != 0 {
		t.Errorf("budget grants moved by %d during the all-open window, want 0", got)
	}
	if stillOpen.Polls == stillOpen.BudgetGrants+stillOpen.PollsDeferred {
		// Not an equality invariant (probes poll without grants), but
		// grants alone must undercount polls once probes ran.
		t.Logf("note: polls=%d grants=%d deferred=%d", stillOpen.Polls, stillOpen.BudgetGrants, stillOpen.PollsDeferred)
	}
	if recovered.BreakersOpen != 0 {
		t.Errorf("BreakersOpen = %d after recovery, want 0", recovered.BreakersOpen)
	}
	if recovered.BudgetGrants <= stillOpen.BudgetGrants {
		t.Error("budget grants did not resume after recovery")
	}
	if recovered.BreakerCloses != recovered.BreakerOpens {
		t.Errorf("BreakerOpens/Closes = %d/%d, want equal", recovered.BreakerOpens, recovered.BreakerCloses)
	}
	bound := baseline + shards*(workers+1) + 100
	if peak > bound {
		t.Errorf("peak goroutines = %d (baseline %d), want ≤ %d", peak, baseline, bound)
	}
	t.Logf("subs=%d polls=%d deferred=%d grants=%d probes=%d peak goroutines=%d",
		subs, recovered.Polls, recovered.PollsDeferred, recovered.BudgetGrants,
		recovered.BreakerProbes, peak)
}
