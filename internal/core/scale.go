package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ScaleConfig sizes the engine-scale study: how large a population the
// sharded poll scheduler is driven to, and for how much virtual time.
type ScaleConfig struct {
	Seed uint64
	// Applets is the installed population. Zero means 100,000.
	Applets int
	// Shards/Workers pin the scheduler size (zero = 8/8, the testbed's
	// reproducible defaults).
	Shards, Workers int
	// Virtual is how long the population polls. Zero means 10 minutes.
	Virtual time.Duration
}

// ScaleResults records how the engine behaves at population scale: the
// paper's dataset holds 320K applets (§3), so the engine must schedule
// hundreds of thousands of polling loops without holding a goroutine
// per applet.
type ScaleResults struct {
	Applets        int
	Shards         int
	Workers        int
	Virtual        time.Duration
	InstallWall    time.Duration
	InstallsPerSec float64
	RunWall        time.Duration
	Polls          int64
	PollsPerSec    float64 // real (wall-clock) poll throughput
	// Goroutines is the process's goroutine count as the run's virtual
	// time ends. A sample at every poll reads the same at 20K and at 100K
	// applets: the sim clock runs one poll at a time.
	Goroutines int
	HeapMB     float64 // live heap after the run, applets installed

	// Traced* repeat the run with the observability layer enabled — a
	// metrics registry, which every completed span also feeds — to
	// measure its overhead on the poll hot path.
	TracedRunWall     time.Duration
	TracedPolls       int64
	TracedPollsPerSec float64
	TracedOverheadPct float64 // wall-time regression of the traced pass
}

// QuickScaleConfig is the study at cmd/report -quick's size: 20 000
// applets polling for 6 minutes.
func QuickScaleConfig(seed uint64) ScaleConfig {
	return ScaleConfig{Seed: seed, Applets: 20_000, Virtual: 6 * time.Minute}
}

// runScalePass runs one population through cfg.Virtual of polling and
// fills the run's walls, polls, goroutines and heap; reg non-nil enables
// the observability layer (registry + inline spans). Every trigger poll
// is answered instantly with an empty result, so the study measures the
// scheduler, not a simulated network.
func runScalePass(cfg ScaleConfig, reg *obs.Registry) (ScaleResults, error) {
	// Collect the previous pass's garbage first so each pass starts from
	// the same heap state — the runs are short enough (~1.5s at 100K)
	// that inherited GC debt otherwise dominates the comparison.
	runtime.GC()
	rig := newSimRig()
	eng := engine.New(engine.Config{
		Clock: rig.clock, RNG: stats.NewRNG(cfg.Seed), Doer: cannedPolls(`{"data":[]}`),
		Poll:          engine.FixedInterval{Interval: 5 * time.Minute},
		DispatchDelay: -1, Shards: cfg.Shards, ShardWorkers: cfg.Workers,
		Metrics: reg,
	})

	var r ScaleResults
	err := rig.run(func() error {
		defer eng.Stop()
		start := time.Now()
		if err := installN(eng.Install, cfg.Applets, numberedApplets("a", "scalesvc")); err != nil {
			return fmt.Errorf("scale study: %w", err)
		}
		r.InstallWall = time.Since(start)

		start = time.Now()
		rig.clock.Sleep(cfg.Virtual)
		r.Goroutines = runtime.NumGoroutine()
		r.RunWall = time.Since(start)
		r.Polls = eng.Stats().Polls

		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		r.HeapMB = float64(m.HeapAlloc) / (1 << 20)
		return nil
	})
	return r, err
}

// RunEngineScale installs cfg.Applets applets on a virtual clock, lets
// them poll for cfg.Virtual, and reports throughput and footprint —
// once bare, once with the observability layer enabled, so the tracing
// overhead on the hot path is measured rather than assumed.
func RunEngineScale(cfg ScaleConfig) (*ScaleResults, error) {
	orDefault(&cfg.Applets, 100_000)
	orDefault(&cfg.Shards, 8)
	orDefault(&cfg.Workers, 8)
	orDefault(&cfg.Virtual, 10*time.Minute)

	// Each configuration is run three times and the median-wall pass is
	// reported: one pass is ~1.5s at 100K applets, short enough that GC
	// scheduling noise swamps the few-percent effect being measured.
	medianPass := func(reg func() *obs.Registry) (ScaleResults, error) {
		passes := make([]ScaleResults, 3)
		for i := range passes {
			var err error
			if passes[i], err = runScalePass(cfg, reg()); err != nil {
				return ScaleResults{}, err
			}
		}
		sort.Slice(passes, func(i, j int) bool { return passes[i].RunWall < passes[j].RunWall })
		return passes[1], nil
	}

	r, err := medianPass(func() *obs.Registry { return nil })
	if err != nil {
		return nil, err
	}
	traced, err := medianPass(obs.NewRegistry)
	if err != nil {
		return nil, err
	}
	r.Applets, r.Shards, r.Workers, r.Virtual = cfg.Applets, cfg.Shards, cfg.Workers, cfg.Virtual
	r.InstallsPerSec = float64(cfg.Applets) / r.InstallWall.Seconds()
	r.PollsPerSec = float64(r.Polls) / r.RunWall.Seconds()
	r.TracedRunWall = traced.RunWall
	r.TracedPolls = traced.Polls
	r.TracedPollsPerSec = float64(traced.Polls) / traced.RunWall.Seconds()
	r.TracedOverheadPct = 100 * (traced.RunWall.Seconds() - r.RunWall.Seconds()) / r.RunWall.Seconds()
	return &r, nil
}

// FormatScale renders the engine-scale study. The "seed engine" row is
// the measured baseline of the pre-scheduler design (one goroutine per
// applet, global mutex), recorded at 50K applets on the same workload
// before the sharded scheduler replaced it; it is kept as a fixed
// reference so the speedup stays visible in regenerated reports.
func FormatScale(r *ScaleResults) string {
	var b strings.Builder
	b.WriteString("## Engine scale — sharded poll scheduler\n\n")
	fmt.Fprintf(&b, "Population %d applets, %d shards × %d workers, %s of virtual\n",
		r.Applets, r.Shards, r.Workers, r.Virtual)
	b.WriteString("polling (5-minute fixed gaps), instant stub services: the study\n")
	b.WriteString("isolates scheduler cost. The paper's dataset has 320K applets and\n")
	b.WriteString("~600K installs (§3), which a per-applet-goroutine engine cannot\n")
	b.WriteString("hold comfortably in one process.\n\n")
	b.WriteString("| engine | applets | goroutines at run end | installs/s | polls/s (real) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	b.WriteString("| seed (goroutine per applet, measured pre-refactor) | 50,000 | 50,003 | 39,569 | 21,414 |\n")
	fmt.Fprintf(&b, "| sharded scheduler (this run) | %s | %d | %s | %s |\n\n",
		groupThousands(r.Applets), r.Goroutines,
		groupThousands(int(r.InstallsPerSec)), groupThousands(int(r.PollsPerSec)))
	fmt.Fprintf(&b, "- %d polls completed in %.2fs of wall time; live heap after the run %.1f MB.\n",
		r.Polls, r.RunWall.Seconds(), r.HeapMB)
	b.WriteString("- Goroutines are O(shards + in-flight polls), independent of the\n")
	b.WriteString("  installed population; the seed held one (8 KB+ stack) per applet.\n")
	fmt.Fprintf(&b, "- With metrics on (registry + inline spans): %d polls in %.2fs\n",
		r.TracedPolls, r.TracedRunWall.Seconds())
	fmt.Fprintf(&b, "  (%s polls/s), overhead %+.1f%% vs. the bare run.\n",
		groupThousands(int(r.TracedPollsPerSec)), r.TracedOverheadPct)
	return b.String()
}

// groupThousands renders n with a comma between groups of three digits.
func groupThousands(n int) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
