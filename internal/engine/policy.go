package engine

import (
	"time"

	"repro/internal/stats"
)

// PollPolicy schedules the gap until a subscription's next trigger
// poll, drawing from the subscription's own RNG stream. The service
// name is available so a policy can treat services differently (as
// IFTTT evidently does for Alexa-class services).
type PollPolicy interface {
	NextGap(service string, g *stats.RNG) time.Duration
}

// FixedInterval polls every Interval, deterministically. The paper's E3
// scenario ("our own engine … performs frequent polling, every 1
// second") is FixedInterval{Interval: time.Second}.
type FixedInterval struct {
	Interval time.Duration
}

// NextGap returns the fixed interval.
func (f FixedInterval) NextGap(_ string, _ *stats.RNG) time.Duration { return f.Interval }

// PaperPollModel reproduces the polling behaviour the paper measured on
// the production IFTTT engine: a long nominal gap with lognormal jitter,
// occasionally inflated several-fold — presumably when the engine is
// under high workload — producing the 14–15 minute tail of Fig 4 and
// Fig 6. NewPaperPollModel holds the calibrated values.
type PaperPollModel struct {
	// Base is the nominal (median) gap.
	Base time.Duration
	// Sigma is the lognormal jitter of the gap.
	Sigma float64
	// InflateProb is the chance a gap lands in the inflated regime.
	InflateProb float64
	// Inflate samples the inflation multiplier.
	Inflate stats.Dist
	// Min and Max clamp the final gap.
	Min, Max time.Duration
}

// NewPaperPollModel returns the calibrated model: a 140 s median gap
// with lognormal σ 0.25, inflated 4–6× (uniform) with probability 2 %,
// clamped to [30 s, 15 min]. A trigger fires uniformly inside the
// (size-biased) current gap, so the measured T2A latency lands near the
// paper's 58/84/122 s quartiles with a worst case around 15 minutes;
// DESIGN.md §4 and EXPERIMENTS.md record the calibration.
func NewPaperPollModel() *PaperPollModel {
	return &PaperPollModel{
		Base:        140 * time.Second,
		Sigma:       0.25,
		InflateProb: 0.02,
		Inflate:     stats.Uniform{Lo: 4, Hi: 6},
		Min:         30 * time.Second,
		Max:         15 * time.Minute,
	}
}

// NextGap draws one polling gap.
func (m *PaperPollModel) NextGap(_ string, g *stats.RNG) time.Duration {
	gap := stats.Lognormal{Median: m.Base.Seconds(), Sigma: m.Sigma}.Sample(g)
	if m.InflateProb > 0 && g.Float64() < m.InflateProb {
		gap *= m.Inflate.Sample(g)
	}
	d := stats.Duration(gap)
	if d < m.Min {
		d = m.Min
	}
	if d > m.Max {
		d = m.Max
	}
	return d
}

// PerService dispatches to a per-service policy with a fallback. It
// models "IFTTT customizes the polling frequency … for some services
// (such as Alexa) with timing requirements" (§4).
type PerService struct {
	// Overrides maps service name → policy.
	Overrides map[string]PollPolicy
	// Default applies to everything else.
	Default PollPolicy
}

// NextGap picks the override for the service, else the default.
func (p PerService) NextGap(service string, g *stats.RNG) time.Duration {
	if pol, ok := p.Overrides[service]; ok {
		return pol.NextGap(service, g)
	}
	return p.Default.NextGap(service, g)
}
