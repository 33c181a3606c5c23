package testbed

import (
	"testing"
	"time"

	"repro/internal/devices"
	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// fast returns a config with a deterministic short polling gap so
// correctness tests do not need statistical assertions.
func fast(seed uint64) Config {
	return Config{Seed: seed, Poll: engine.FixedInterval{Interval: 30 * time.Second}}
}

func TestT2ASingleTrialEveryApplet(t *testing.T) {
	// One trial per applet on a fast-polling engine: checks the whole
	// pipeline (device → service → engine → service → device) for all
	// seven Table 4 applets.
	specs := append(Group14(), Group57()...)
	for _, spec := range specs {
		t.Run(spec.ID, func(t *testing.T) {
			tb := New(fast(100))
			tb.Run(func() {
				lats, err := tb.MeasureT2A(spec, T2AOptions{Trials: 2, Settle: time.Minute,
					Spacing: stats.Constant(60)})
				if err != nil {
					t.Errorf("measure: %v", err)
					return
				}
				for _, l := range lats {
					if l <= 0 || l > 2*time.Minute {
						t.Errorf("%s latency %v outside (0, 2m]", spec.ID, l)
					}
				}
			})
		})
	}
}

func TestT2AActionsActuallyExecute(t *testing.T) {
	tb := New(fast(7))
	tb.Run(func() {
		if _, err := tb.MeasureT2A(A1(), T2AOptions{Trials: 3, Settle: time.Minute,
			Spacing: stats.Constant(60)}); err != nil {
			t.Errorf("measure: %v", err)
		}
	})
	rows := tb.Sheets.Rows(UserID, "switch-log")
	if len(rows) != 3 {
		t.Fatalf("spreadsheet rows = %d, want 3", len(rows))
	}
	// Ingredient substitution: the row carries the device name.
	if rows[0][0] != "switch wemo-1 on" {
		t.Fatalf("row content = %q", rows[0][0])
	}
}

func TestT2AAlexaFasterThanPolling(t *testing.T) {
	// The core Fig 4 contrast: A5 (Alexa trigger, realtime honoured)
	// versus A2 (WeMo trigger, polled) under the paper's poll model.
	tb := New(Config{Seed: 42})
	var a2, a5 []time.Duration
	tb.Run(func() {
		var err error
		a5, err = tb.MeasureT2A(A5(), T2AOptions{Trials: 10})
		if err != nil {
			t.Errorf("A5: %v", err)
			return
		}
		a2, err = tb.MeasureT2A(A2(), T2AOptions{Trials: 10})
		if err != nil {
			t.Errorf("A2: %v", err)
		}
	})
	a5p50 := stats.Percentile(stats.Durations(a5), 50)
	a2p50 := stats.Percentile(stats.Durations(a2), 50)
	if a5p50 > 15 {
		t.Errorf("A5 median = %.1fs, want seconds (realtime hint honoured)", a5p50)
	}
	if a2p50 < 15 {
		t.Errorf("A2 median = %.1fs, want polling-dominated latency", a2p50)
	}
	if a5p50*2 > a2p50 {
		t.Errorf("A5 (%.1fs) not clearly faster than A2 (%.1fs)", a5p50, a2p50)
	}
}

func TestFig5ScenarioOrdering(t *testing.T) {
	// E1 and E2 stay slow (the bottleneck is the engine), E3 is fast.
	measure := func(cfg Config, spec AppletSpec, trials int) []time.Duration {
		tb := New(cfg)
		var out []time.Duration
		tb.Run(func() {
			var err error
			out, err = tb.MeasureT2A(spec, T2AOptions{Trials: trials})
			if err != nil {
				t.Errorf("%s: %v", spec.ID, err)
			}
		})
		return out
	}
	e1 := measure(Config{Seed: 1}, A2E1(), 10)
	e2 := measure(Config{Seed: 2}, A2E2(), 10)
	e3 := measure(Config{Seed: 3, Poll: engine.FixedInterval{Interval: time.Second}}, A2E2(), 10)

	p50 := func(ds []time.Duration) float64 { return stats.Percentile(stats.Durations(ds), 50) }
	if p50(e3) > 5 {
		t.Errorf("E3 median = %.2fs, want a couple of seconds", p50(e3))
	}
	if p50(e1) < 15 || p50(e2) < 15 {
		t.Errorf("E1/E2 medians = %.1fs/%.1fs, want polling-dominated", p50(e1), p50(e2))
	}
}

func TestFig6SequentialClustering(t *testing.T) {
	tb := New(Config{Seed: 11})
	var res SequentialResult
	tb.Run(func() {
		var err error
		res, err = tb.RunSequential(A2(), 40, 5*time.Second)
		if err != nil {
			t.Errorf("sequential: %v", err)
		}
	})
	if len(res.ActionTimes) != 40 {
		t.Fatalf("actions = %d, want 40", len(res.ActionTimes))
	}
	if len(res.Clusters) < 2 {
		t.Fatalf("clusters = %d, want >= 2 (batched polling)", len(res.Clusters))
	}
	// At least one cluster must batch several actions together.
	max := 0
	for _, c := range res.Clusters {
		if len(c) > max {
			max = len(c)
		}
	}
	if max < 5 {
		t.Fatalf("largest cluster = %d actions, want >= 5", max)
	}
}

func TestFig7ConcurrentDivergence(t *testing.T) {
	tb := New(Config{Seed: 13})
	var res ConcurrentResult
	fire := func(tb *Testbed) {
		tb.Mail.Deliver("s@ext.sim", UserEmail, "shared trigger", "")
	}
	// Two applets on the same gmail trigger: blink hue / activate wemo.
	a := A3()
	b := AppletSpec{
		ID: "A3b", Name: "new gmail → activate wemo",
		Applet: func(tb *Testbed) engine.Applet {
			ap := engine.Applet{
				ID: "A3b", UserID: UserID, Name: "A3b",
				Trigger: ref("gmail", HostGmail, "new_email", nil),
				Action:  ref("wemo", HostWemo, "turn_on", nil),
			}
			ap.Trigger.UserToken = tb.GmailToken
			return ap
		},
		Prepare: func(tb *Testbed) { tb.Wemo.SetState(false, "controller") },
		Watch: func(tb *Testbed, w *Watcher) {
			tb.Wemo.Subscribe(func(ev devices.Event) {
				if ev.Type == "switched_on" && ev.Attrs["via"] != "physical" {
					w.Bump()
				}
			})
		},
	}
	tb.Run(func() {
		var err error
		res, err = tb.RunConcurrent(a, b, fire, 8)
		if err != nil {
			t.Errorf("concurrent: %v", err)
		}
	})
	if len(res.Diff) != 8 {
		t.Fatalf("trials = %d", len(res.Diff))
	}
	// The differences must actually diverge: same-trigger applets are
	// not executed simultaneously.
	spread := false
	for _, d := range res.Diff {
		if d > 15*time.Second || d < -15*time.Second {
			spread = true
		}
	}
	if !spread {
		t.Fatalf("T2A differences all within ±15s: %v — polling should desynchronize them", res.Diff)
	}
}

func TestTable5Timeline(t *testing.T) {
	tb := New(Config{Seed: 17})
	var rows []TimelineRow
	tb.Run(func() {
		var err error
		rows, err = tb.RunTimeline()
		if err != nil {
			t.Errorf("timeline: %v", err)
		}
	})
	if len(rows) < 5 {
		t.Fatalf("timeline rows = %d, want >= 5", len(rows))
	}
	if rows[0].At != 0 {
		t.Fatalf("first row at %v", rows[0].At)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].At < rows[i-1].At {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	last := rows[len(rows)-1]
	if last.Event != "test controller confirms the action has been executed" {
		t.Fatalf("last row = %q", last.Event)
	}
	if last.At < 5*time.Second {
		t.Fatalf("confirm at %v, too fast for a polled execution", last.At)
	}
}

func TestExplicitInfiniteLoop(t *testing.T) {
	tb := New(fast(19))
	var res LoopResult
	tb.Run(func() {
		var err error
		res, err = tb.RunExplicitLoop(30 * time.Minute)
		if err != nil {
			t.Errorf("loop: %v", err)
		}
	})
	// Each cycle takes ~2 polling gaps (~1 min); 30 min must spin many
	// times — the engine performs no loop check.
	if res.Executions < 10 {
		t.Fatalf("loop executed %d times in 30m, expected a runaway", res.Executions)
	}
}

func TestImplicitInfiniteLoop(t *testing.T) {
	tb := New(fast(23))
	var res LoopResult
	tb.Run(func() {
		var err error
		res, err = tb.RunImplicitLoop(30 * time.Minute)
		if err != nil {
			t.Errorf("loop: %v", err)
		}
	})
	if res.Executions < 10 {
		t.Fatalf("implicit loop executed %d times in 30m, expected a runaway", res.Executions)
	}
	// The notification emails really flowed through the mail system.
	notifications := 0
	for _, em := range tb.Mail.Inbox(UserEmail) {
		if em.From == "notify@sheets.sim" {
			notifications++
		}
	}
	if notifications < 10 {
		t.Fatalf("sheet notifications = %d", notifications)
	}
}

func TestNoLoopWithoutCoupling(t *testing.T) {
	// Control: applet X alone (no notification feature, no applet Y)
	// executes exactly once per kick.
	tb := New(fast(29))
	tb.Run(func() {
		x, _ := ExplicitLoopApplets(tb)
		if err := tb.Engine.Install(x); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		tb.Clock.Sleep(time.Minute)
		tb.Mail.Deliver("kick@ext.sim", UserEmail, "kick", "")
		tb.Clock.Sleep(30 * time.Minute)
		tb.Engine.Remove(x.ID)
	})
	if rows := tb.Sheets.Rows(UserID, "mail-log"); len(rows) != 1 {
		t.Fatalf("rows = %d, want exactly 1", len(rows))
	}
}

func TestT2AUnderLossyWAN(t *testing.T) {
	// 20% message loss on the WAN: polls and actions fail sometimes,
	// but retries and the next polling round keep every trial
	// completing (with inflated latency).
	tb := New(fast(37))
	tb.Net.SetDefaultLink(simnet.Link{
		Latency: stats.Constant(0.03),
		Loss:    0.2,
		Timeout: 5 * time.Second,
	})
	tb.Run(func() {
		lats, err := tb.MeasureT2A(A2(), T2AOptions{Trials: 5, Settle: 2 * time.Minute,
			Spacing: stats.Constant(120)})
		if err != nil {
			t.Errorf("measure: %v", err)
			return
		}
		if len(lats) != 5 {
			t.Errorf("trials completed = %d", len(lats))
		}
		for _, l := range lats {
			if l <= 0 {
				t.Errorf("nonpositive latency %v", l)
			}
		}
	})
	// Failures must actually have happened for the test to mean
	// anything.
	failed := 0
	for _, ev := range tb.Traces() {
		if ev.Kind == engine.TracePollFailed || ev.Kind == engine.TraceActionFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Skip("no losses sampled at this seed; nothing exercised")
	}
}

func TestIntroApplet_RainTurnsLightsBlue(t *testing.T) {
	// The paper's §1 motivating example: "automatically turn your hue
	// lights blue whenever it starts to rain" — weather trigger, Hue
	// action, across the testbed's full path.
	tb := New(fast(41))
	tb.Weather.SetCondition("bloomington", "clear")
	rain := AppletSpec{
		ID: "intro-rain", Name: "rain → hue blue",
		Applet: func(tb *Testbed) engine.Applet {
			return engine.Applet{
				ID: "intro-rain", UserID: UserID,
				Trigger: ref("weather", HostWeather, "condition_changes_to",
					map[string]string{"condition": "rain", "location": "bloomington"}),
				Action: ref("hue", HostHue, "change_color",
					map[string]string{"lamp": "1", "color": "blue"}),
			}
		},
		Prepare: func(tb *Testbed) { tb.Weather.SetCondition("bloomington", "clear") },
		Fire:    func(tb *Testbed) { tb.Weather.SetCondition("bloomington", "rain") },
		Watch: func(tb *Testbed, w *Watcher) {
			tb.Hue.Subscribe(func(ev devices.Event) {
				if ev.Attrs["hue"] == "46920" {
					w.Bump()
				}
			})
		},
	}
	tb.Run(func() {
		lats, err := tb.MeasureT2A(rain, T2AOptions{Trials: 2, Settle: time.Minute,
			Spacing: stats.Constant(120)})
		if err != nil {
			t.Errorf("measure: %v", err)
			return
		}
		if len(lats) != 2 {
			t.Errorf("trials = %d", len(lats))
		}
	})
	if s, _ := tb.Hue.LampState("1"); s.Hue != 46920 {
		t.Fatalf("lamp hue = %d, want blue", s.Hue)
	}
}

func TestNestAppletOnTestbed(t *testing.T) {
	// Table 3's "set temperature (Nest Thermostat)" action driven by a
	// temperature_rises_above trigger: when the house overheats, crank
	// the AC target down.
	tb := New(fast(43))
	spec := AppletSpec{
		ID: "nest-cooldown", Name: "too hot → set temperature",
		Applet: func(tb *Testbed) engine.Applet {
			return engine.Applet{
				ID: "nest-cooldown", UserID: UserID,
				Trigger: ref("nest", HostNest, "temperature_rises_above",
					map[string]string{"threshold": "28"}),
				Action: ref("nest", HostNest, "set_temperature",
					map[string]string{"temperature": "21"}),
			}
		},
		Prepare: func(tb *Testbed) { tb.Nest.SetAmbient(22) },
		Fire:    func(tb *Testbed) { tb.Nest.SetAmbient(31) },
		Watch: func(tb *Testbed, w *Watcher) {
			tb.Nest.Subscribe(func(ev devices.Event) {
				if ev.Type == "target_changed" && ev.Attrs["target"] == "21.0" {
					w.Bump()
				}
			})
		},
	}
	tb.Run(func() {
		if _, err := tb.MeasureT2A(spec, T2AOptions{Trials: 2, Settle: time.Minute,
			Spacing: stats.Constant(120)}); err != nil {
			t.Errorf("measure: %v", err)
		}
	})
	if tb.Nest.Setpoint() != 21 {
		t.Fatalf("setpoint = %.1f", tb.Nest.Setpoint())
	}
	if tb.Nest.Mode() != "cool" {
		t.Fatalf("mode = %q, want cool (ambient 31 > target 21)", tb.Nest.Mode())
	}
}

func TestAlexaViaOurServiceLosesFastPath(t *testing.T) {
	// §4: "When we use our own service to host Alexa, its latency
	// becomes large" — the allow-list keys on the service identity, so
	// the same Echo behind ourservice gets no realtime treatment.
	tb := New(Config{Seed: 47, OurServiceRealtime: true})
	spec := AppletSpec{
		ID: "alexa-ours", Name: "Alexa via our service → hue",
		Applet: func(tb *Testbed) engine.Applet {
			return engine.Applet{
				ID: "alexa-ours", UserID: UserID,
				Trigger: ref("ourservice", HostOurService, "alexa_phrase_said",
					map[string]string{"phrase": "lights"}),
				Action: ref("hue", HostHue, "turn_on_lights", map[string]string{"lamp": "1"}),
			}
		},
		Prepare: func(tb *Testbed) {
			off := false
			tb.Hue.SetLampState("1", devices.StateChange{On: &off})
		},
		Fire: func(tb *Testbed) { tb.Echo.Say("Alexa, trigger lights") },
		Watch: func(tb *Testbed, w *Watcher) {
			tb.Hue.Subscribe(func(ev devices.Event) {
				if ev.Type == "light_on" && ev.Attrs["lamp"] == "1" {
					w.Bump()
				}
			})
		},
	}
	var lats []time.Duration
	tb.Run(func() {
		var err error
		lats, err = tb.MeasureT2A(spec, T2AOptions{Trials: 8})
		if err != nil {
			t.Errorf("measure: %v", err)
		}
	})
	p50 := stats.Percentile(stats.Durations(lats), 50)
	if p50 < 15 {
		t.Fatalf("Alexa-via-ourservice p50 = %.1fs; hints must NOT be honoured for it", p50)
	}
}

func TestSequentialToleratesBatchOverflow(t *testing.T) {
	// Regression: when one polling gap accumulates more events than
	// the batch limit, the oldest are never served; RunSequential must
	// terminate and report the drop rather than waiting forever.
	tb := New(Config{Seed: 53, Poll: engine.FixedInterval{Interval: 10 * time.Minute}})
	var res SequentialResult
	tb.Run(func() {
		var err error
		// 30 activations every 5s all land inside one 10-minute gap;
		// shrink k to force overflow.
		res, err = tb.RunSequential(A2(), 30, 5*time.Second)
		if err != nil {
			t.Errorf("sequential: %v", err)
		}
	})
	_ = res // with default k=50 nothing drops; now the forced variant:

	tb2 := New(Config{Seed: 54, Poll: engine.FixedInterval{Interval: 10 * time.Minute}})
	tb2.Engine.Stop() // replace with a small-k engine
	small := engine.New(engine.Config{
		Clock:     tb2.Clock,
		RNG:       tb2.RNG.Split("smallk"),
		Doer:      tb2.Net.Client(HostEngine),
		Poll:      engine.FixedInterval{Interval: 10 * time.Minute},
		PollLimit: 10,
	})
	tb2.Engine = small
	var res2 SequentialResult
	tb2.Clock.Run(func() {
		defer small.Stop()
		var err error
		res2, err = tb2.RunSequential(A2(), 30, 5*time.Second)
		if err != nil {
			t.Errorf("sequential small-k: %v", err)
		}
	})
	if res2.Dropped != 20 {
		t.Fatalf("dropped = %d, want 20 (30 events, k=10)", res2.Dropped)
	}
	if len(res2.ActionTimes) != 10 {
		t.Fatalf("executed = %d, want 10", len(res2.ActionTimes))
	}
}

func TestClusterModeEndToEnd(t *testing.T) {
	// The full Figure-1 pipeline with the engine replaced by a 3-node
	// cluster: triggers fire on whichever node owns the applet's
	// identity and the T2A path is unchanged from the single-engine
	// testbed.
	cfg := fast(61)
	cfg.ClusterNodes = 3
	tb := New(cfg)
	if tb.Engine != nil || tb.Cluster == nil {
		t.Fatal("cluster mode should set Testbed.Cluster and leave Engine nil")
	}
	tb.Run(func() {
		lats, err := tb.MeasureT2A(A1(), T2AOptions{Trials: 3, Settle: time.Minute,
			Spacing: stats.Constant(60)})
		if err != nil {
			t.Errorf("measure: %v", err)
			return
		}
		for _, l := range lats {
			if l <= 0 || l > 2*time.Minute {
				t.Errorf("latency %v outside (0, 2m]", l)
			}
		}
	})
	st := tb.Cluster.Status()
	if len(st.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(st.Nodes))
	}
	if rows := tb.Sheets.Rows(UserID, "switch-log"); len(rows) != 3 {
		t.Fatalf("spreadsheet rows = %d, want 3", len(rows))
	}
}
