// Per-subscription failure handling: capped exponential backoff and a
// circuit breaker, both driven by the same per-subscription RNG stream
// that draws polling gaps, so resilient schedules stay deterministic
// under the simulated clock.
//
// The paper's engine re-polls failing triggers at full cadence — a dead
// partner service keeps consuming a poll slot per applet per gap
// forever. At ROADMAP scale that is millions of wasted polls per hour
// against a blacked-out endpoint, so the engine layers a standard
// failure ladder on top of the poll policy:
//
//   - Consecutive failures back the subscription off exponentially:
//     BackoffBase after the first failure, doubling per streak,
//     saturating at BackoffMax, each delay jittered into
//     [0.5, 1.5)×nominal so subscriptions that died together do not
//     retry together.
//   - At BreakerThreshold consecutive failures the subscription's
//     circuit breaker opens: the service is presumed down and only a
//     probe poll every ProbeInterval (±10% jitter) reaches it.
//   - A probe poll runs with the breaker half-open. Success closes the
//     breaker and returns the subscription to its policy schedule;
//     failure re-opens it for another probe interval.
//
// State lives on the subscription and is guarded by the owning shard's
// mutex, like the rest of its scheduling fields; transitions happen in
// nextPollDueLocked on the worker that just finished the poll.
package engine

import (
	"time"

	"repro/internal/stats"
)

// ResilienceConfig tunes the engine's reaction to poll failures. The
// zero value enables resilience with the defaults below; set Disable
// for the paper-faithful behaviour of re-polling failures at full
// cadence.
type ResilienceConfig struct {
	// Disable turns failure handling off entirely: failed polls
	// reschedule by the poll policy, exactly as the production engine
	// the paper measured appears to.
	Disable bool
	// BackoffBase is the delay after a subscription's first consecutive
	// failure; it doubles per streak. Zero means DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Zero means
	// DefaultBackoffMax.
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker. Zero means DefaultBreakerThreshold; negative
	// disables the breaker (backoff still applies, capped at
	// BackoffMax).
	BreakerThreshold int
	// ProbeInterval spaces half-open probe polls while the breaker is
	// open. Zero means DefaultProbeInterval.
	ProbeInterval time.Duration
}

// Resilience defaults. The base sits below the paper's median polling
// gap (~84s) so a transient failure is retried sooner than the next
// scheduled poll would have run, while the cap and probe interval keep
// a dead endpoint down to a few requests per subscription per interval.
const (
	DefaultBackoffBase      = 30 * time.Second
	DefaultBackoffMax       = 10 * time.Minute
	DefaultBreakerThreshold = 5
	DefaultProbeInterval    = 5 * time.Minute
)

// breakerState is a subscription's circuit-breaker position.
type breakerState uint8

const (
	brClosed   breakerState = iota // healthy: schedule by poll policy
	brOpen                         // tripped: only spaced probes run
	brHalfOpen                     // probe in flight; its outcome decides
)

// backoffDelay is the capped exponential ladder: base after the first
// failure, doubling per consecutive failure, saturating at max. The
// shift is clamped so long streaks cannot overflow.
func backoffDelay(base, max time.Duration, streak int) time.Duration {
	if streak <= 1 {
		return base
	}
	shift := uint(streak - 1)
	if shift > 31 {
		return max
	}
	d := base << shift
	if d <= 0 || d > max {
		return max
	}
	return d
}

// jitterDur scales d by a uniform factor in [1-frac, 1+frac) drawn from
// rng, de-synchronizing subscriptions that failed at the same instant.
func jitterDur(d time.Duration, frac float64, rng *stats.RNG) time.Duration {
	f := 1 - frac + 2*frac*rng.Float64()
	return time.Duration(f * float64(d))
}

// policyGapLocked draws sub's next scheduled (non-failure) gap: the
// adaptive EWMA cadence when adaptive mode is on, otherwise the
// configured poll policy. Caller holds s.mu.
func (s *shard) policyGapLocked(sub *subscription) time.Duration {
	e := s.e
	var gap time.Duration
	if ap := e.adaptive; ap != nil {
		gap = ap.nextGapLocked(sub)
	} else {
		gap = e.poll.NextGap(sub.members[0].id, sub.ep.ref.Service, sub.rng)
	}
	if e.cadenceHist != nil {
		e.cadenceHist.Observe(gap.Seconds())
	}
	return gap
}

// nextPollDueLocked decides when sub polls next given the outcome of
// the poll that just finished (and, on success, how many fresh events
// it surfaced — the adaptive EWMA's observation), advancing the
// backoff/breaker state machine. Caller holds s.mu. The returned trace
// event, when non-zero, must be emitted after the lock is released —
// trace observers may call back into the engine.
func (s *shard) nextPollDueLocked(sub *subscription, ok bool, events int) (time.Time, TraceEvent) {
	e := s.e
	now := e.clock.Now()
	if sub.removed {
		// leaveLocked already retired the subscription (and settled the
		// breaker gauge) while this poll was in flight; scheduleLocked
		// will drop it, so the state machine must not run again.
		return now, TraceEvent{}
	}
	if ap := e.adaptive; ap != nil && ok {
		// Failures carry no rate information, so the estimate is only
		// folded on success; an idle-through-outage subscription decays
		// on its first healthy poll because dt spans the outage.
		at := e.sinceEpoch(now)
		sub.rate = ewmaRate(sub.rate, events, time.Duration(at-sub.rateAt), ap.halfLife)
		sub.rateAt = at
	}
	if !e.resilient {
		return now.Add(s.policyGapLocked(sub)), TraceEvent{}
	}
	if ok {
		sub.failStreak = 0
		gap := s.policyGapLocked(sub)
		if sub.brState != brClosed {
			sub.brState = brClosed
			e.breakerOpen.Add(-1)
			s.counters.breakerCloses.Add(1)
			return now.Add(gap), TraceEvent{Kind: TraceBreakerClose, AppletID: sub.members[0].id}
		}
		return now.Add(gap), TraceEvent{}
	}

	sub.failStreak++
	var ev TraceEvent
	switch {
	case sub.brState == brHalfOpen:
		// Failed probe: stay open, wait another probe interval.
		sub.brState = brOpen
	case sub.brState == brClosed && e.brThreshold > 0 && int(sub.failStreak) >= e.brThreshold:
		sub.brState = brOpen
		e.breakerOpen.Add(1)
		s.counters.breakerOpens.Add(1)
		ev = TraceEvent{Kind: TraceBreakerOpen, AppletID: sub.members[0].id, N: int(sub.failStreak)}
	}
	var delay time.Duration
	if sub.brState == brOpen {
		delay = jitterDur(e.probeIvl, 0.1, sub.rng)
	} else {
		delay = jitterDur(backoffDelay(e.backoffBase, e.backoffMax, int(sub.failStreak)), 0.5, sub.rng)
	}
	if e.backoffHist != nil {
		e.backoffHist.Observe(delay.Seconds())
	}
	return now.Add(delay), ev
}
