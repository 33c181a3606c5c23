package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/devices"
	"repro/internal/engine"
	"repro/internal/localengine"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// AblationConfig tunes RunAblations.
type AblationConfig struct {
	Seed   uint64
	Trials int // per measurement point; zero = 10
}

// AblationResults carries the §6 design-space studies.
type AblationResults struct {
	// SmartPolling compares the hot applet's T2A under a uniform
	// interval and under the hot interval of the same budget spent
	// unevenly (SmartFast for the hot applet, SmartSlow for the tail).
	SmartUniform, SmartHot []float64
	SmartFast, SmartSlow   time.Duration
	SmartBudgetInterval    time.Duration
	// PollSweep maps polling interval → T2A p50, the latency/cost
	// trade-off curve.
	PollSweep map[time.Duration]float64
	// LocalT2A and CloudT2A compare the §6 local engine against the
	// centralized engine for the same IoT→IoT applet.
	LocalT2A []float64
	CloudT2A []float64
	// FailoverTransitions counts placement changes in the hybrid
	// supervisor scenario (local → cloud → local).
	FailoverTransitions int
	// FailoverWorked reports that the applet executed in all three
	// phases.
	FailoverWorked bool
}

// QuickAblationConfig is the study at cmd/report -quick's size: four
// trials per measurement point.
func QuickAblationConfig(seed uint64) AblationConfig {
	return AblationConfig{Seed: seed, Trials: 4}
}

// RunAblations executes the §6 design-space studies.
func RunAblations(cfg AblationConfig) (*AblationResults, error) {
	orDefault(&cfg.Trials, 10)
	res := &AblationResults{PollSweep: make(map[time.Duration]float64)}
	var err error

	// Smart polling: one hot applet among 20 under the budget of a
	// uniform 200 s interval, 30 % of it spent on the hot applet and the
	// rest on the tail. A2 is the only applet in the smart arm's
	// testbed, so that arm polls at the hot interval.
	const nApplets, hotShare = 20, 0.3
	uniform := 200 * time.Second
	budget := nApplets / uniform.Seconds() // polls/s
	hotBudget := budget * hotShare
	res.SmartFast = time.Duration(1 / hotBudget * float64(time.Second))
	res.SmartSlow = time.Duration((nApplets - 1) / (budget - hotBudget) * float64(time.Second))
	res.SmartBudgetInterval = uniform
	if res.SmartUniform, err = measureT2A(testbed.Config{Seed: cfg.Seed, Poll: engine.FixedInterval{Interval: uniform}}, testbed.A2(), cfg.Trials); err != nil {
		return nil, fmt.Errorf("smart baseline: %w", err)
	}
	if res.SmartHot, err = measureT2A(testbed.Config{Seed: cfg.Seed + 1, Poll: engine.FixedInterval{Interval: res.SmartFast}}, testbed.A2(), cfg.Trials); err != nil {
		return nil, fmt.Errorf("smart hot: %w", err)
	}

	// Poll interval sweep.
	for i, iv := range []time.Duration{time.Second, 15 * time.Second, time.Minute, 4 * time.Minute} {
		xs, err := measureT2A(testbed.Config{Seed: cfg.Seed + 10 + uint64(i), Poll: engine.FixedInterval{Interval: iv}}, testbed.A2E2(), cfg.Trials)
		if err != nil {
			return nil, fmt.Errorf("poll sweep %v: %w", iv, err)
		}
		res.PollSweep[iv] = stats.Percentile(xs, 50)
	}

	// Cloud baseline for the local comparison.
	if res.CloudT2A, err = measureT2A(testbed.Config{Seed: cfg.Seed + 20}, testbed.A2(), cfg.Trials); err != nil {
		return nil, fmt.Errorf("cloud baseline: %w", err)
	}

	// Local engine: event-driven, LAN-only.
	if _, err = onTestbed(testbed.Config{Seed: cfg.Seed + 21}, func(tb *testbed.Testbed) error {
		le := localengine.New(tb.Clock, stats.Constant(0.002), tb.RNG.Split("ablation-local"))
		le.Attach(&tb.Wemo.Bus)
		if err := le.Install(localRuleA2(tb)); err != nil {
			return err
		}
		w := tb.NewWatcher()
		tb.Hue.Subscribe(func(ev devices.Event) {
			if ev.Type == "light_on" && ev.Attrs["lamp"] == "1" {
				w.Bump()
			}
		})
		for i := 0; i < cfg.Trials; i++ {
			off := false
			tb.Hue.SetLampState("1", devices.StateChange{On: &off})
			tb.Wemo.SetState(false, "controller")
			tb.Clock.Sleep(time.Minute)
			target := w.Count() + 1
			start := tb.Clock.Now()
			tb.Wemo.Press()
			ta := w.WaitFor(target)
			res.LocalT2A = append(res.LocalT2A, ta.Sub(start).Seconds())
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Hybrid failover scenario.
	_, err = onTestbed(testbed.Config{
		Seed: cfg.Seed + 22, Poll: engine.FixedInterval{Interval: 20 * time.Second},
	}, func(tb *testbed.Testbed) error {
		le := localengine.New(tb.Clock, stats.Constant(0.002), tb.RNG.Split("ablation-hybrid"))
		le.Attach(&tb.Wemo.Bus)
		sup := localengine.NewSupervisor(tb.Clock, le, tb.Engine, 10*time.Second,
			testbed.A2().Applet(tb), localRuleA2(tb))
		if err := sup.Start(); err != nil {
			return fmt.Errorf("hybrid failover: %w", err)
		}
		check := func() bool {
			off := false
			tb.Hue.SetLampState("1", devices.StateChange{On: &off})
			tb.Wemo.SetState(false, "controller")
			tb.Clock.Sleep(time.Minute)
			tb.Wemo.Press()
			tb.Clock.Sleep(2 * time.Minute)
			s, _ := tb.Hue.LampState("1")
			return s.On
		}
		worked := check() // local
		le.SetDown(true)
		tb.Clock.Sleep(30 * time.Second)
		worked = worked && check() // cloud failover
		le.SetDown(false)
		tb.Clock.Sleep(30 * time.Second)
		worked = worked && check() // back local
		sup.Stop()
		res.FailoverTransitions = sup.Transitions()
		res.FailoverWorked = worked
		return nil
	})
	return res, err
}

func localRuleA2(tb *testbed.Testbed) localengine.Rule {
	return localengine.Rule{
		ID:    "A2",
		Match: func(ev devices.Event) bool { return ev.Type == "switched_on" },
		Execute: func(devices.Event) error {
			on := true
			return tb.Hue.SetLampState("1", devices.StateChange{On: &on})
		},
	}
}

// FormatAblations renders the §6 section of EXPERIMENTS.md.
func FormatAblations(r *AblationResults) string {
	var b strings.Builder
	b.WriteString("## §6 design-space ablations\n\n")

	b.WriteString("### Smart polling for top applets (same total poll budget)\n\n")
	fmt.Fprintf(&b, "- uniform: every applet polled each %s\n", r.SmartBudgetInterval)
	fmt.Fprintf(&b, "- smart: hot applet each %s, tail each %s (budget conserved)\n",
		r.SmartFast.Round(time.Second), r.SmartSlow.Round(time.Second))
	if len(r.SmartUniform) > 0 && len(r.SmartHot) > 0 {
		fmt.Fprintf(&b, "- hot applet T2A p50: uniform %.0f s → smart %.0f s\n",
			stats.Percentile(r.SmartUniform, 50), stats.Percentile(r.SmartHot, 50))
	}

	b.WriteString("\n### Polling interval sweep (latency vs poll cost)\n\n")
	b.WriteString("| Interval | polls/applet/hour | T2A p50 |\n|---|---|---|\n")
	for _, iv := range []time.Duration{time.Second, 15 * time.Second, time.Minute, 4 * time.Minute} {
		fmt.Fprintf(&b, "| %s | %.0f | %.1f s |\n", iv, 3600/iv.Seconds(), r.PollSweep[iv])
	}

	b.WriteString("\n### Local vs centralized execution\n\n")
	if len(r.CloudT2A) > 0 && len(r.LocalT2A) > 0 {
		fmt.Fprintf(&b, "- cloud engine T2A p50: %.0f s; local engine: %.3f s (event-driven, no polling)\n",
			stats.Percentile(r.CloudT2A, 50), stats.Percentile(r.LocalT2A, 50))
	}
	fmt.Fprintf(&b, "- hybrid failover: %d placement transitions (local → cloud → local), applet executed in every phase: %v\n",
		r.FailoverTransitions, r.FailoverWorked)
	return b.String()
}
