// Adaptive polling: the engine's first closed feedback loop, promoting
// the §6 "poll smartly" proposal from an offline ablation
// (SmartPolicy with a hand-picked hot set) to a live subsystem that
// *measures* heat. Two layers compose:
//
//   - Per-subscription cadence. Every subscription keeps an EWMA of its
//     observed event rate, updated on each poll result (and spiked by
//     honoured realtime hints, so push-assisted identities stay hot
//     even when hints deliver the events before a scheduled poll
//     would). The cadence is TargetEventsPerPoll/rate clamped into
//     [FastFloor, SlowCeiling] and jittered, so hot subscriptions
//     converge to the fast floor, cold ones decay to the slow ceiling,
//     and neither herds on simtime tick boundaries. With the paper's
//     Zipf install skew (Fig 3: the top 1% of applets earn 83% of the
//     adds) the hot set is tiny, so most of a fixed poll budget shifts
//     to the subscriptions that carry the traffic — exactly the uneven
//     spend §6 argues for.
//
//   - Global admission. Adaptive cadence alone is open-loop on total
//     upstream load: if many subscriptions go hot at once, demand can
//     exceed what partner services were provisioned for. The admission
//     controller bounds it with one token bucket per upstream service,
//     refilled at PollBudgetQPS. Reservation semantics (tokens may go
//     negative) mean an empty bucket *defers* a poll to the exact
//     instant its token accrues rather than dropping it or letting
//     deferred polls herd on the next refill: each deferral reserves a
//     distinct future slot, so a saturated service is polled at
//     precisely the configured QPS. Deferrals are counted and visible
//     in metrics (ifttt_engine_polls_deferred_total).
//
// Resilience interplay: a subscription whose circuit breaker is open
// consumes no budget — its half-open probes bypass admission, so a
// blacked-out service's budget is not burned on an endpoint presumed
// dead, and recovery probes are never starved by healthy traffic.
//
// The two layers are independent: adaptive cadence without a budget is
// pure smart polling, a budget without adaptive cadence rate-limits any
// policy (and self-staggers fixed-interval herds), and together the
// bucket shapes greedy adaptive demand to the configured ceiling.
package engine

import (
	"math"
	"sync"
	"time"

	"repro/internal/stats"
)

// AdaptiveConfig tunes per-subscription adaptive poll cadence
// (Config.Adaptive). The zero value of each field selects the default
// below.
type AdaptiveConfig struct {
	// HalfLife is the EWMA memory: an idle subscription's rate estimate
	// halves per half-life elapsed. Default DefaultEWMAHalfLife.
	HalfLife time.Duration
	// FastFloor is the shortest cadence a hot subscription can reach.
	// Default DefaultFastFloor.
	FastFloor time.Duration
	// SlowCeiling is the longest cadence a cold subscription decays to.
	// Default DefaultSlowCeiling.
	SlowCeiling time.Duration
	// TargetEventsPerPoll sets the operating point: the next gap is the
	// time the EWMA predicts this many events take to accrue (then
	// clamped). Default 1.
	TargetEventsPerPoll float64
	// HintBoost is the rate (events/sec) an honoured realtime hint
	// spikes the EWMA to. Zero means enough to pin the cadence at
	// FastFloor; negative disables hint spiking.
	HintBoost float64
	// JitterFrac spreads each gap uniformly into [1-f, 1+f)× nominal so
	// subscriptions with equal rates do not poll in lockstep. Zero
	// means DefaultAdaptiveJitter; negative disables jitter.
	JitterFrac float64
}

// Adaptive cadence defaults. The floor is well under the paper's
// 58-second 25th-percentile polling gap (Fig 4); the ceiling matches
// the 15-minute worst case the paper measured, so a cold subscription
// costs no more than production IFTTT's slowest observed cadence.
const (
	DefaultEWMAHalfLife   = 5 * time.Minute
	DefaultFastFloor      = 10 * time.Second
	DefaultSlowCeiling    = 15 * time.Minute
	DefaultAdaptiveJitter = 0.1
)

// adaptiveParams is AdaptiveConfig with defaults resolved, immutable
// after New.
type adaptiveParams struct {
	halfLife time.Duration
	fast     time.Duration
	slow     time.Duration
	target   float64
	boost    float64 // hint spike rate; 0 = disabled
	jitter   float64
}

func resolveAdaptive(cfg *AdaptiveConfig) *adaptiveParams {
	if cfg == nil {
		return nil
	}
	p := &adaptiveParams{
		halfLife: cfg.HalfLife,
		fast:     cfg.FastFloor,
		slow:     cfg.SlowCeiling,
		target:   cfg.TargetEventsPerPoll,
		jitter:   cfg.JitterFrac,
	}
	if p.halfLife <= 0 {
		p.halfLife = DefaultEWMAHalfLife
	}
	if p.fast <= 0 {
		p.fast = DefaultFastFloor
	}
	if p.slow <= 0 {
		p.slow = DefaultSlowCeiling
	}
	if p.slow < p.fast {
		p.slow = p.fast
	}
	if p.target <= 0 {
		p.target = 1
	}
	switch {
	case cfg.HintBoost > 0:
		p.boost = cfg.HintBoost
	case cfg.HintBoost == 0:
		// Default spike: the rate at which the gap mapping bottoms out
		// at the fast floor, so a hinted subscription polls as fast as
		// the engine allows until the estimate decays.
		p.boost = p.target / p.fast.Seconds()
	}
	if p.jitter == 0 {
		p.jitter = DefaultAdaptiveJitter
	}
	if p.jitter < 0 {
		p.jitter = 0
	}
	return p
}

// ewmaRate folds one observation — n events over the dt since the
// previous update — into a time-aware exponential moving average of the
// event rate (events/sec). The decay weight is exp(-dt·ln2/halfLife),
// so the estimate of a subscription that stops producing events halves
// per half-life of silence regardless of how irregular the poll
// spacing is.
func ewmaRate(rate float64, n int, dt, halfLife time.Duration) float64 {
	if dt <= 0 {
		return rate
	}
	s := dt.Seconds()
	w := math.Exp(-s * math.Ln2 / halfLife.Seconds())
	return w*rate + (1-w)*float64(n)/s
}

// gap maps an event-rate estimate to the nominal cadence: the time
// target events take to accrue at the estimated rate, clamped into
// [fast, slow]. A zero (never-seen-an-event) rate maps to the ceiling.
// The ceiling comparison happens in float seconds: a deeply decayed
// rate yields a nominal gap beyond time.Duration's range, and the
// overflowed negative value must clamp to the ceiling, not the floor.
func (p *adaptiveParams) gap(rate float64) time.Duration {
	if rate <= 0 {
		return p.slow
	}
	secs := p.target / rate
	if secs >= p.slow.Seconds() {
		return p.slow
	}
	g := time.Duration(secs * float64(time.Second))
	if g < p.fast {
		return p.fast
	}
	return g
}

// initialGap spreads a new subscription's first poll uniformly across
// the whole [fast, slow) band. Until the engine has observed anything
// the subscription is presumed cold — it settles on the slow ceiling
// after its first empty poll — so a mass install costs at most one
// poll per subscription per ceiling, and the full-band spread drops
// that install directly into the steady-state phase distribution. (A
// narrower spread, say [slow/2, slow), looks more conservative but
// concentrates the first cycle into a poll wave twice the steady rate;
// an admission budget then defers the wave, and the bunching takes
// many jittered cycles to mix out, idling the budget between waves.)
// Hot subscriptions converge within one poll — the first result
// carries up to a full buffer of backlogged events — and honoured
// hints pull the pending poll forward regardless of the gap drawn
// here.
func (p *adaptiveParams) initialGap(rng *stats.RNG) time.Duration {
	return p.fast + time.Duration(rng.Float64()*float64(p.slow-p.fast))
}

// nextGapLocked draws sub's next adaptive cadence from its current rate
// estimate. Caller holds the owning shard's mutex (the rate fields are
// scheduling state).
func (p *adaptiveParams) nextGapLocked(sub *subscription) time.Duration {
	g := p.gap(sub.rate)
	if p.jitter > 0 {
		g = jitterDur(g, p.jitter, sub.rng)
	}
	return g
}

// admission is the global upstream-QPS budget: one reservation-style
// token bucket per upstream service, refilled at qps and capped at
// burst. reserve never rejects — when the bucket is empty it hands
// back the wait until the caller's token accrues, letting tokens go
// negative to remember the outstanding reservations. The scheduler
// turns that wait into a deferral, so under saturation each service is
// polled at exactly qps with no retry herding.
//
// Lock ordering: admission.mu is a leaf — it is taken with a shard's
// mutex held and never takes any other lock.
type admission struct {
	qps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*serviceBucket
	granted int64 // polls admitted without deferral
	// Stall detection for readiness: deferStart marks the beginning of
	// the current unbroken deferral streak (zeroed by any grant),
	// lastDefer its most recent deferral.
	deferStart time.Time
	lastDefer  time.Time
}

// serviceBucket is one service's token state. tokens < 0 encodes
// reservations already handed out beyond the refill horizon.
type serviceBucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(qps, burst float64) *admission {
	if burst <= 0 {
		// Default burst: one second of refill, at least one poll.
		burst = math.Max(qps, 1)
	}
	return &admission{qps: qps, burst: burst, buckets: make(map[string]*serviceBucket)}
}

// reserve takes one token for service at now. A zero return admits the
// poll immediately; a positive return is the deferral delay after which
// the reserved token will have accrued.
func (a *admission) reserve(service string, now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[service]
	if b == nil {
		b = &serviceBucket{tokens: a.burst, last: now}
		a.buckets[service] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.qps
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	b.tokens--
	if b.tokens >= 0 {
		a.granted++
		a.deferStart = time.Time{}
		return 0
	}
	if a.deferStart.IsZero() {
		a.deferStart = now
	}
	a.lastDefer = now
	return time.Duration(-b.tokens / a.qps * float64(time.Second))
}

// refund returns the token of a reservation whose poll will never
// start (the subscription was retired after admission). The grant and
// deferral counters keep the admission they recorded.
func (a *admission) refund(service string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b := a.buckets[service]; b != nil {
		b.tokens = math.Min(b.tokens+1, a.burst)
	}
}

// stalled reports whether the budget has been fully deferring for at
// least window: an unbroken deferral streak of that length that is
// still live (a deferral within the last window). The duration is how
// long the streak has run.
func (a *admission) stalled(now time.Time, window time.Duration) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.deferStart.IsZero() {
		return false, 0
	}
	streak := now.Sub(a.deferStart)
	if streak < window || now.Sub(a.lastDefer) > window {
		return false, 0
	}
	return true, streak
}

// grants reports how many polls were admitted without deferral.
func (a *admission) grants() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.granted
}

// tokenBalance sums token balances across services; negative values
// measure the outstanding reservation backlog.
func (a *admission) tokenBalance() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t float64
	for _, b := range a.buckets {
		t += b.tokens
	}
	return t
}
