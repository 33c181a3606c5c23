package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ChaosConfig sizes the fault-injection study.
type ChaosConfig struct {
	Seed uint64
	// Trials per fault-rate scenario of the T2A tail measurement.
	// Zero means 20.
	Trials int
	// Applets in the blackout study's population. Zero means 100.
	Applets int
}

// QuickChaosConfig is the study at cmd/report -quick's size: five trials
// per fault rate, 40 applets in the blackout.
func QuickChaosConfig(seed uint64) ChaosConfig {
	return ChaosConfig{Seed: seed, Trials: 5, Applets: 40}
}

// chaos timeline constants. The blackout study runs a fixed three-hour
// schedule: warm-up, a one-hour blackout, recovery, steady state.
const (
	chaosBlackoutStart = 1 * time.Hour
	chaosBlackoutEnd   = 2 * time.Hour
	chaosRunEnd        = 3 * time.Hour
	// chaosProbeIvl spaces half-open probes well above the ~140s paper
	// polling cadence, so an open breaker visibly caps the blackout's
	// wasted-poll cost.
	chaosProbeIvl = 15 * time.Minute
)

// ChaosTailRow is the measured T2A distribution of the A2 applet under
// one injected fault rate.
type ChaosTailRow struct {
	// Rate is the per-attempt fault probability, split evenly between
	// transport errors and injected 503s (both retryable).
	Rate float64
	T2A  stats.Summary // seconds
	// Polls / PollFailures over the whole scenario run.
	Polls, PollFailures int64
	// BreakerOpens counts breaker trips (expected 0 at these rates:
	// the retry layer absorbs independent per-attempt faults).
	BreakerOpens int64
}

// BlackoutRow is one arm of the blackout comparison.
type BlackoutRow struct {
	// WastedPolls is the number of failed polls during the blackout —
	// requests burned against a service known to be dark.
	WastedPolls int64
	// FirstHalf and SecondHalf split WastedPolls across the blackout's
	// two half-hours: a resilient engine throttles itself, so the
	// second half must be materially cheaper than the first.
	FirstHalf, SecondHalf int64
	// BreakerOpens and BreakerProbes over the whole run.
	BreakerOpens, BreakerProbes int64
	// SteadyPolls counts polls in the final post-recovery hour.
	SteadyPolls int64
}

// BlackoutComparison contrasts the resilient engine against the
// paper-faithful fixed-cadence engine through the same blackout.
type BlackoutComparison struct {
	Applets   int
	Window    time.Duration
	Resilient BlackoutRow
	Disabled  BlackoutRow
	// RecoveryLag is how long after the blackout lifted the resilient
	// engine took to close its last breaker. The half-open probe cycle
	// bounds it by one probe interval plus jitter.
	RecoveryLag   time.Duration
	ProbeInterval time.Duration
}

// ChaosResults carries the fault-injection study.
type ChaosResults struct {
	Tails    []ChaosTailRow
	Blackout BlackoutComparison
}

// RunChaos runs the resilience study on the simulated testbed:
//
//  1. The paper's core T2A measurement (A2: WeMo → Hue) repeated under
//     injected per-attempt fault rates of 0%, 1%, and 10%, re-deriving
//     the latency tail when partner services misbehave. The httpx retry
//     layer absorbs independent faults (a poll fails only when every
//     attempt fails), and the resilience backoff retries a failed poll
//     after ~30 s — well under the policy gap — so the measured tail
//     stays close to the fault-free distribution.
//
//  2. A blackout study: a population of polled applets against a
//     service that goes dark for an hour, run twice from the same seed —
//     once with resilient polling (backoff + breaker) and once with
//     ResilienceConfig{Disable: true} (the paper-faithful fixed
//     cadence). The comparison shows the breaker capping wasted polls
//     while the service is dark and recovery within one half-open probe
//     interval of the service healing.
//
// Every testbed here is pinned to one shard and one worker: the fault
// injector draws from a single shared RNG stream, so serialized polls
// make whole-run results bit-reproducible from the seed (see package
// faults).
func RunChaos(cfg ChaosConfig) (*ChaosResults, error) {
	orDefault(&cfg.Trials, 20)
	orDefault(&cfg.Applets, 100)
	res := &ChaosResults{}
	for i, rate := range []float64{0, 0.01, 0.10} {
		row, err := chaosTail(cfg.Seed+900+uint64(i), rate, cfg.Trials)
		if err != nil {
			return nil, err
		}
		res.Tails = append(res.Tails, row)
	}
	var err error
	res.Blackout, err = chaosBlackout(cfg.Seed, cfg.Applets)
	return res, err
}

// chaosTail measures A2's T2A distribution with every request to the
// trigger service subject to rate (half transport errors, half 503s).
func chaosTail(seed uint64, rate float64, trials int) (ChaosTailRow, error) {
	var rules []faults.Rule
	if rate > 0 {
		rules = []faults.Rule{{
			Host:      testbed.HostWemo,
			ErrorRate: rate / 2,
			Rate5xx:   rate / 2,
		}}
	}
	var xs []float64
	tb, err := onTestbed(testbed.Config{
		Seed:         seed,
		Shards:       1,
		ShardWorkers: 1,
		FaultRules:   rules,
	}, func(tb *testbed.Testbed) (err error) {
		xs, err = t2a(tb, testbed.A2(), trials)
		return err
	})
	if err != nil {
		return ChaosTailRow{}, fmt.Errorf("chaos tail at rate %.2f: %w", rate, err)
	}
	st := tb.Engine.Stats()
	return ChaosTailRow{
		Rate:         rate,
		T2A:          stats.Summarize(xs),
		Polls:        st.Polls,
		PollFailures: st.PollFailures,
		BreakerOpens: st.BreakerOpens,
	}, nil
}

// chaosBlackout runs the one-hour blackout over a population of A2
// clones, once resilient and once disabled, and measures what each arm
// burned while the service was dark.
func chaosBlackout(seed uint64, applets int) (BlackoutComparison, error) {
	bc := BlackoutComparison{
		Applets:       applets,
		Window:        chaosBlackoutEnd - chaosBlackoutStart,
		ProbeInterval: chaosProbeIvl,
	}
	for _, resilient := range []bool{true, false} {
		rc := engine.ResilienceConfig{ProbeInterval: chaosProbeIvl}
		if !resilient {
			rc = engine.ResilienceConfig{Disable: true}
		}
		var row BlackoutRow
		var recovery time.Duration
		_, err := onTestbed(testbed.Config{
			// Same seed for both arms: identical applets, identical
			// poll-gap draws, identical fault schedule.
			Seed:         seed,
			Shards:       1,
			ShardWorkers: 1,
			Resilience:   rc,
			FaultRules: []faults.Rule{{
				Host:      testbed.HostWemo,
				Blackouts: []faults.Window{{Start: chaosBlackoutStart, End: chaosBlackoutEnd}},
			}},
		}, func(tb *testbed.Testbed) error {
			start := tb.Clock.Now()
			spec := testbed.A2()
			if err := installN(tb.Engine.Install, applets, func(i int) engine.Applet {
				a := spec.Applet(tb)
				a.ID = fmt.Sprintf("A2-chaos-%d", i)
				return a
			}); err != nil {
				return fmt.Errorf("chaos blackout: %w", err)
			}
			sleepUntil := func(off time.Duration) {
				if dt := start.Add(off).Sub(tb.Clock.Now()); dt > 0 {
					tb.Clock.Sleep(dt)
				}
			}

			sleepUntil(chaosBlackoutStart)
			atStart := tb.Engine.Stats()
			sleepUntil(chaosBlackoutStart + bc.Window/2)
			atMid := tb.Engine.Stats()
			sleepUntil(chaosBlackoutEnd)
			atEnd := tb.Engine.Stats()

			// Step until the last breaker closes to time recovery.
			for tb.Engine.Stats().BreakersOpen > 0 {
				tb.Clock.Sleep(15 * time.Second)
				if tb.Clock.Now().Sub(start) > chaosRunEnd {
					break
				}
			}
			recovery = tb.Clock.Now().Sub(start.Add(chaosBlackoutEnd))
			afterRecovery := tb.Engine.Stats()
			sleepUntil(chaosRunEnd)
			final := tb.Engine.Stats()

			row = BlackoutRow{
				WastedPolls:   atEnd.PollFailures - atStart.PollFailures,
				FirstHalf:     atMid.PollFailures - atStart.PollFailures,
				SecondHalf:    atEnd.PollFailures - atMid.PollFailures,
				BreakerOpens:  final.BreakerOpens,
				BreakerProbes: final.BreakerProbes,
				SteadyPolls:   final.Polls - afterRecovery.Polls,
			}
			return nil
		})
		if err != nil {
			return bc, err
		}
		if resilient {
			bc.Resilient = row
			bc.RecoveryLag = recovery
		} else {
			bc.Disabled = row
		}
	}
	return bc, nil
}

// FormatChaos renders the fault-injection section.
func FormatChaos(r *ChaosResults) string {
	var b strings.Builder
	b.WriteString("## Chaos: T2A and polling cost under injected faults\n\n")
	b.WriteString("The fault injector (package faults) sits between the engine and the\n")
	b.WriteString("simulated WAN, failing a seeded fraction of requests to the trigger\n")
	b.WriteString("service. Faults are split evenly between transport errors and 503s;\n")
	b.WriteString("both are retryable, so a poll only fails when every attempt fails.\n\n")

	b.WriteString("### T2A tail vs. injected fault rate (A2, WeMo → Hue)\n\n")
	b.WriteString("| fault rate | p50 | p75 | p90 | p99 | max | polls | failed polls |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, row := range r.Tails {
		fmt.Fprintf(&b, "| %.0f%% | %.0fs | %.0fs | %.0fs | %.0fs | %.0fs | %d | %d |\n",
			100*row.Rate, row.T2A.P50, row.T2A.P75, row.T2A.P90, row.T2A.P99, row.T2A.Max,
			row.Polls, row.PollFailures)
	}
	if n := len(r.Tails); n >= 2 {
		base, worst := r.Tails[0], r.Tails[n-1]
		fmt.Fprintf(&b, "\nThe retry layer absorbs independent per-attempt faults — a poll fails\n")
		fmt.Fprintf(&b, "only when every attempt fails (≈1%% of polls at the %.0f%% rate) — so the\n",
			100*worst.Rate)
		fmt.Fprintf(&b, "median barely moves (%.0fs fault-free vs. %.0fs at %.0f%%). The tail is\n",
			base.T2A.P50, worst.T2A.P50, 100*worst.Rate)
		fmt.Fprintf(&b, "where faults show: a poll that fails while an event is buffered delays\n")
		fmt.Fprintf(&b, "it by the failure backoff (30s, 60s, … capped), stretching the p99 from\n")
		fmt.Fprintf(&b, "%.0fs to %.0fs — inflated but bounded by the backoff ladder, where a\n",
			base.T2A.P99, worst.T2A.P99)
		b.WriteString("fixed-cadence engine would re-expose the full polling gap per failure.\n")
	}

	bc := r.Blackout
	fmt.Fprintf(&b, "\n### One-hour blackout over %d polled applets\n\n", bc.Applets)
	b.WriteString("Same seed, same fault schedule, two engines: resilient (backoff +\n")
	b.WriteString("circuit breaker) vs. the paper-faithful fixed cadence.\n\n")
	b.WriteString("| arm | wasted polls | 1st half | 2nd half | breaker opens | probes | steady-state polls/h |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	arm := func(name string, row BlackoutRow) {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d |\n",
			name, row.WastedPolls, row.FirstHalf, row.SecondHalf,
			row.BreakerOpens, row.BreakerProbes, row.SteadyPolls)
	}
	arm("resilient", bc.Resilient)
	arm("disabled", bc.Disabled)
	if bc.Disabled.WastedPolls > 0 {
		fmt.Fprintf(&b, "\n- wasted polls capped at %.0f%% of the fixed-cadence cost; the second\n",
			100*float64(bc.Resilient.WastedPolls)/float64(bc.Disabled.WastedPolls))
		fmt.Fprintf(&b, "  half-hour of the blackout costs %d polls vs. %d in the first as the\n",
			bc.Resilient.SecondHalf, bc.Resilient.FirstHalf)
		b.WriteString("  backoff ladder saturates and breakers hold (poll_errors plateaus)\n")
	}
	fmt.Fprintf(&b, "- every breaker closed %s after the blackout lifted (probe interval %s)\n",
		bc.RecoveryLag.Round(time.Second), bc.ProbeInterval)
	b.WriteString("- steady-state polling resumes at the policy cadence in both arms\n")
	return b.String()
}
