package core

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/simtime"
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
	PeakGoroutines int
	HeapMB         float64 // live heap after the run, applets installed

	// Traced* repeat the run with the observability layer enabled — a
	// metrics registry, which every completed span also feeds — to
	// measure its overhead on the poll hot path.
	TracedRunWall     time.Duration
	TracedPolls       int64
	TracedPollsPerSec float64
	TracedOverheadPct float64 // wall-time regression of the traced pass
}

// emptyPollDoer answers every request instantly with an empty poll
// result so the study measures the scheduler, not a simulated network.
type emptyPollDoer struct{}

func (emptyPollDoer) Do(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(`{"data":[]}`)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// scalePass runs one population through cfg.Virtual of polling; reg
// non-nil enables the observability layer (registry + inline spans).
type scalePassResult struct {
	installWall    time.Duration
	runWall        time.Duration
	polls          int64
	peakGoroutines int
	heapMB         float64
}

func runScalePass(cfg ScaleConfig, n, shards, workers int, virtual time.Duration, reg *obs.Registry) scalePassResult {
	// Collect the previous pass's garbage first so each pass starts from
	// the same heap state — the runs are short enough (~1.5s at 100K)
	// that inherited GC debt otherwise dominates the comparison.
	runtime.GC()
	clock := simtime.NewSimDefault()
	eng := engine.New(engine.Config{
		Clock: clock, RNG: stats.NewRNG(cfg.Seed), Doer: emptyPollDoer{},
		Poll:          engine.FixedInterval{Interval: 5 * time.Minute},
		DispatchDelay: -1, Shards: shards, ShardWorkers: workers,
		Metrics: reg,
	})

	var r scalePassResult
	clock.Run(func() {
		start := time.Now()
		for i := 0; i < n; i++ {
			a := engine.Applet{
				ID:     fmt.Sprintf("a%06d", i),
				UserID: fmt.Sprintf("u%05d", i%10000),
				Trigger: engine.ServiceRef{
					Service: "scalesvc", BaseURL: "http://svc.sim", Slug: "fired",
					Fields: map[string]string{"n": fmt.Sprint(i)},
				},
				Action: engine.ServiceRef{Service: "scalesvc", BaseURL: "http://svc.sim", Slug: "act"},
			}
			if err := eng.Install(a); err != nil {
				panic("scale study install: " + err.Error())
			}
		}
		r.installWall = time.Since(start)

		start = time.Now()
		clock.Sleep(virtual)
		if g := runtime.NumGoroutine(); g > r.peakGoroutines {
			r.peakGoroutines = g
		}
		r.runWall = time.Since(start)
		r.polls = eng.Stats().Polls

		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		r.heapMB = float64(m.HeapAlloc) / (1 << 20)
		eng.Stop()
	})
	return r
}

// RunEngineScale installs cfg.Applets applets on a virtual clock, lets
// them poll for cfg.Virtual, and reports throughput and footprint —
// once bare, once with the observability layer enabled, so the tracing
// overhead on the hot path is measured rather than assumed.
func RunEngineScale(cfg ScaleConfig) *ScaleResults {
	n := cfg.Applets
	if n == 0 {
		n = 100_000
	}
	shards, workers := cfg.Shards, cfg.Workers
	if shards == 0 {
		shards = 8
	}
	if workers == 0 {
		workers = 8
	}
	virtual := cfg.Virtual
	if virtual == 0 {
		virtual = 10 * time.Minute
	}

	// Each configuration is run three times and the median-wall pass is
	// reported: one pass is ~1.5s at 100K applets, short enough that GC
	// scheduling noise swamps the few-percent effect being measured.
	medianPass := func(reg func() *obs.Registry) scalePassResult {
		passes := make([]scalePassResult, 3)
		for i := range passes {
			passes[i] = runScalePass(cfg, n, shards, workers, virtual, reg())
		}
		sort.Slice(passes, func(i, j int) bool { return passes[i].runWall < passes[j].runWall })
		return passes[1]
	}

	r := &ScaleResults{Applets: n, Shards: shards, Workers: workers, Virtual: virtual}
	plain := medianPass(func() *obs.Registry { return nil })
	r.InstallWall = plain.installWall
	r.InstallsPerSec = float64(n) / plain.installWall.Seconds()
	r.RunWall = plain.runWall
	r.Polls = plain.polls
	r.PollsPerSec = float64(plain.polls) / plain.runWall.Seconds()
	r.PeakGoroutines = plain.peakGoroutines
	r.HeapMB = plain.heapMB

	traced := medianPass(obs.NewRegistry)
	r.TracedRunWall = traced.runWall
	r.TracedPolls = traced.polls
	r.TracedPollsPerSec = float64(traced.polls) / traced.runWall.Seconds()
	r.TracedOverheadPct = 100 * (traced.runWall.Seconds() - plain.runWall.Seconds()) / plain.runWall.Seconds()
	return r
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
	b.WriteString("| engine | applets | goroutines | installs/s | polls/s (real) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	b.WriteString("| seed (goroutine per applet, measured pre-refactor) | 50,000 | 50,003 | 39,569 | 21,414 |\n")
	fmt.Fprintf(&b, "| sharded scheduler (this run) | %s | %d | %s | %s |\n\n",
		groupThousands(r.Applets), r.PeakGoroutines,
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

func groupThousands(n int) string {
	s := fmt.Sprint(n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
