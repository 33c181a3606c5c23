// Package core is the library's front door: it orchestrates the full
// reproduction of the paper's measurements on top of the underlying
// packages. RunPerformance executes the §4 controlled experiments
// (Fig 4, Fig 5, Table 5, Fig 6, Fig 7, the realtime-API study, and the
// infinite loops) on fresh simulated testbeds; RunEcosystem generates a
// calibrated dataset and computes the §3 tables and figures; and
// RunCrawlStudy exercises the crawling methodology end to end against
// the mock site. Format helpers render results for EXPERIMENTS.md.
package core

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/devices"
	"repro/internal/engine"
	"repro/internal/perm"
	"repro/internal/testbed"
)

// PerfConfig tunes RunPerformance. Zero values give the paper's trial
// counts.
type PerfConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Fig4Trials is the per-applet trial count (paper: 50).
	Fig4Trials int
	// Fig5Trials is the per-scenario trial count (paper: 20).
	Fig5Trials int
	// Fig7Trials is the concurrent-pair trial count (paper: 20).
	Fig7Trials int
	// SeqTriggers is the number of sequential activations for Fig 6.
	SeqTriggers int
	// LoopWindow is the observation window for the infinite loops.
	LoopWindow time.Duration
}

func (c *PerfConfig) fill() {
	orDefault(&c.Fig4Trials, 50)
	orDefault(&c.Fig5Trials, 20)
	orDefault(&c.Fig7Trials, 20)
	orDefault(&c.SeqTriggers, 60)
	orDefault(&c.LoopWindow, time.Hour)
}

// QuickPerfConfig is the suite at cmd/report -quick's size: five trials
// per figure, 20 sequential activations, 20-minute loop windows.
func QuickPerfConfig(seed uint64) PerfConfig {
	return PerfConfig{Seed: seed, Fig4Trials: 5, Fig5Trials: 5, Fig7Trials: 5,
		SeqTriggers: 20, LoopWindow: 20 * time.Minute}
}

// PerfResults carries every §4 experiment outcome.
type PerfResults struct {
	// Fig4 maps applet ID (A1..A7) to its T2A latency samples in
	// seconds.
	Fig4 map[string][]float64
	// Fig5 maps scenario (E1, E2, E3) to A2's T2A samples in seconds.
	Fig5 map[string][]float64
	// Table5 is the instrumented A2-under-E2 execution timeline.
	Table5 []testbed.TimelineRow
	// Fig6 is the sequential-activation clustering result.
	Fig6 testbed.SequentialResult
	// Fig7 is the concurrent-applet divergence result.
	Fig7 testbed.ConcurrentResult
	// RealtimeHinted and RealtimeUnhinted are A2-under-E2 samples with
	// and without the service sending realtime hints; the paper found
	// no difference because the engine ignores non-allow-listed hints.
	RealtimeHinted, RealtimeUnhinted []float64
	// ExplicitLoop and ImplicitLoop count runaway executions in
	// LoopWindow.
	ExplicitLoop, ImplicitLoop testbed.LoopResult
}

// RunPerformance executes the §4 experiment suite. Each experiment gets
// a fresh testbed so state cannot leak between them.
func RunPerformance(cfg PerfConfig) (*PerfResults, error) {
	cfg.fill()
	res := &PerfResults{
		Fig4: make(map[string][]float64),
		Fig5: make(map[string][]float64),
	}

	// Fig 4: A1–A7 against official services under the paper's poll
	// model.
	for i, spec := range append(testbed.Group14(), testbed.Group57()...) {
		var err error
		if res.Fig4[spec.ID], err = measureT2A(testbed.Config{Seed: cfg.Seed + uint64(i)}, spec, cfg.Fig4Trials); err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", spec.ID, err)
		}
	}

	// Fig 5: E1/E2 swap in the self-implemented service; E3 also swaps
	// the engine's polling for a 1-second interval.
	scenarios := []struct {
		name string
		spec testbed.AppletSpec
		poll engine.PollPolicy
	}{
		{"E1", testbed.A2E1(), nil},
		{"E2", testbed.A2E2(), nil},
		{"E3", testbed.A2E2(), engine.FixedInterval{Interval: time.Second}},
	}
	for i, sc := range scenarios {
		var err error
		if res.Fig5[sc.name], err = measureT2A(testbed.Config{Seed: cfg.Seed + 100 + uint64(i), Poll: sc.poll}, sc.spec, cfg.Fig5Trials); err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", sc.name, err)
		}
	}

	// The infinite loops run on a fast-polling engine so the window
	// bounds the experiment rather than the polling gap.
	loopPoll := engine.FixedInterval{Interval: 15 * time.Second}
	for _, run := range []struct {
		name string
		cfg  testbed.Config
		body func(tb *testbed.Testbed) error
	}{
		// Table 5: one instrumented execution of A2 under E2.
		{"table5", testbed.Config{Seed: cfg.Seed + 200}, func(tb *testbed.Testbed) (err error) {
			res.Table5, err = tb.RunTimeline()
			return err
		}},
		// Fig 6: sequential activations every 5 s.
		{"fig6", testbed.Config{Seed: cfg.Seed + 300}, func(tb *testbed.Testbed) (err error) {
			res.Fig6, err = tb.RunSequential(testbed.A2(), cfg.SeqTriggers, 5*time.Second)
			return err
		}},
		// Fig 7: two applets sharing the Gmail trigger.
		{"fig7", testbed.Config{Seed: cfg.Seed + 400}, func(tb *testbed.Testbed) (err error) {
			res.Fig7, err = tb.RunConcurrent(testbed.A3(), concurrentPartner(tb), fireSharedEmail, cfg.Fig7Trials)
			return err
		}},
		// Realtime API study: hints from a non-allow-listed service
		// change nothing.
		{"realtime study", testbed.Config{Seed: cfg.Seed + 500}, func(tb *testbed.Testbed) (err error) {
			res.RealtimeUnhinted, err = t2a(tb, testbed.A2E2(), cfg.Fig5Trials)
			return err
		}},
		{"realtime study", testbed.Config{Seed: cfg.Seed + 500, OurServiceRealtime: true}, func(tb *testbed.Testbed) (err error) {
			res.RealtimeHinted, err = t2a(tb, testbed.A2E2(), cfg.Fig5Trials)
			return err
		}},
		{"explicit loop", testbed.Config{Seed: cfg.Seed + 600, Poll: loopPoll}, func(tb *testbed.Testbed) (err error) {
			res.ExplicitLoop, err = tb.RunExplicitLoop(cfg.LoopWindow)
			return err
		}},
		{"implicit loop", testbed.Config{Seed: cfg.Seed + 700, Poll: loopPoll}, func(tb *testbed.Testbed) (err error) {
			res.ImplicitLoop, err = tb.RunImplicitLoop(cfg.LoopWindow)
			return err
		}},
	} {
		if _, err := onTestbed(run.cfg, run.body); err != nil {
			return nil, fmt.Errorf("%s: %w", run.name, err)
		}
	}
	return res, nil
}

// concurrentPartner is the second applet of the Fig 7 pair: same Gmail
// trigger, WeMo action.
func concurrentPartner(tb *testbed.Testbed) testbed.AppletSpec {
	return testbed.AppletSpec{
		ID: "A3b", Name: "new gmail → activate wemo",
		Applet: func(tb *testbed.Testbed) engine.Applet {
			return engine.Applet{
				ID: "A3b", UserID: testbed.UserID, Name: "A3b",
				Trigger: engine.ServiceRef{
					Service: "gmail", BaseURL: "http://" + testbed.HostGmail,
					Slug: "new_email", ServiceKey: testbed.ServiceKey,
					UserToken: tb.GmailToken,
				},
				Action: engine.ServiceRef{
					Service: "wemo", BaseURL: "http://" + testbed.HostWemo,
					Slug: "turn_on", ServiceKey: testbed.ServiceKey,
				},
			}
		},
		Prepare: func(tb *testbed.Testbed) { tb.Wemo.SetState(false, "controller") },
		Watch: func(tb *testbed.Testbed, w *testbed.Watcher) {
			tb.Wemo.Subscribe(func(ev devices.Event) {
				if ev.Type == "switched_on" && ev.Attrs["via"] != "physical" {
					w.Bump()
				}
			})
		},
	}
}

func fireSharedEmail(tb *testbed.Testbed) {
	tb.Mail.Deliver("s@ext.sim", testbed.UserEmail, "shared trigger", "")
}

// EcoResults carries every §3 analysis outcome.
type EcoResults struct {
	Eco *dataset.Ecosystem

	Table1   []analysis.Table1Row
	Table2   analysis.Table2
	Table3   analysis.Table3
	IoTSvc   float64 // % of services that are IoT (paper: 52%)
	IoTUsage float64 // % of adds involving IoT (paper: 16%)
	Fig2     analysis.Heatmap
	Fig3     analysis.Fig3
	Users    analysis.UserContribution
	Growth   []analysis.GrowthPoint
	// GrowthPct holds (services, triggers, actions, adds) growth
	// between the paper's comparison weeks.
	GrowthPct [4]float64
	// Perm is the §6 permission over-privilege analysis.
	Perm perm.Report
}

// RunEcosystem generates a calibrated dataset at the given scale (1.0 =
// paper size) and computes the §3 tables and figures.
func RunEcosystem(seed uint64, scale float64) *EcoResults {
	eco := dataset.Generate(dataset.GenConfig{Seed: seed, Scale: scale})
	snap := eco.At(dataset.RefWeekIndex)
	res := &EcoResults{
		Eco:    eco,
		Table1: analysis.Table1(snap),
		Table2: analysis.Table2Summary(snap, dataset.NumWeeks),
		Table3: analysis.Table3TopIoT(snap, 7),
		Fig2:   analysis.Fig2Heatmap(snap),
		Fig3:   analysis.Fig3Distribution(snap),
		Users:  analysis.UserContributionStats(snap),
		Growth: analysis.GrowthTimeline(eco),
		Perm:   perm.Analyze(snap),
	}
	res.IoTSvc, res.IoTUsage = analysis.IoTShares(snap)
	s, t, a, ad := analysis.GrowthRates(res.Growth, 3, 21)
	res.GrowthPct = [4]float64{s, t, a, ad}
	return res
}
