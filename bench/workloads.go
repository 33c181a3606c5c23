package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// Sizes. They are constants, frozen by the change that defines the
// benchmark, so that two runs of the benchmark always measure the same
// work; the only inputs are the seed and how long to measure. Each
// segment is sized to take roughly a second on a two-core box, so a
// 15-second window holds a dozen or more.
const (
	pollIdleApplets = 100_000
	pollIdleGap     = 5 * time.Minute
	pollIdleWarm    = pollIdleGap + pollIdleGap/2 // every subscription polled once; segment edges fall between poll instants
	pollIdleSegment = 30 * time.Minute            // several GC cycles per segment, so their phase averages out
	serialVirtual   = 30 * time.Minute            // the one-shard, one-worker baseline arm of the traced run

	pollHotSubs    = 25_000
	pollHotHot     = 2_500
	pollHotPeriod  = 30 * time.Second // one event per hot subscription per period
	pollHotBuffer  = 20               // events the partner keeps per trigger: 10 min, full when the warm-up ends
	pollHotQPS     = 50
	pollHotWarm    = 10 * time.Minute
	pollHotSegment = 4 * time.Minute
	pollHotSlow    = 15 * time.Minute

	pushSubs       = 20_000
	pushBatch      = 50   // single-event deliveries per POST
	pushQueue      = 4096 // per shard
	pushWarmRate   = 5_000
	pushSegBatches = 1_000 // closed-loop batches per saturation segment
	pushBackoff    = 200 * time.Microsecond

	churnBase    = 40_000 // cold applets installed in set-up
	churnHot     = 10_000
	churnPeriod  = 30 * time.Second
	churnBuffer  = 4 // two polls' worth at the one-minute cadence
	churnGap     = time.Minute
	churnPairs   = 15_000 // install+remove pairs per segment
	churnVirtual = time.Minute
	churnTail    = 10_000 // installs after the snapshot, replayed from the WAL
	churnVerify  = 2 * time.Minute

	clusterNodes   = 4
	clusterApplets = 50_000
	clusterHot     = 5_000
	clusterPeriod  = 30 * time.Second
	clusterBuffer  = 12 // six minutes of events against a five-minute poll
	clusterGap     = 5 * time.Minute
	clusterWarm    = time.Minute
	clusterSegment = clusterGap // one full poll round per segment
	clusterSteady  = 2          // segments before each failure, and after each failure and each join
)

var pushRates = [...]int{5_000, 20_000, 40_000} // open-loop events/s

// minSegments is the number of segments every window has at least: a
// traced run then has three of each kind, and simulated T2A is sampled
// over exactly these, so that it does not depend on the box's speed.
const minSegments = 6

// Simulated trigger-to-action latency is a quality guard, not a speed:
// nobody gets faster by polling less. For a given seed it repeats to the
// last digit, so a run fails when its median exceeds the highest median
// of seeds 1-20, as read when the benchmark was defined, by more than
// 3 %, or its 99th percentile the highest of those by more than 5 %.
var (
	pollHotT2AMax = t2aLimit{p50: 45.7289 * 1.03, p99: 234.861 * 1.05}
	clusterT2AMax = t2aLimit{p50: 0.511891 * 1.03, p99: 0.991442 * 1.05}
)

type t2aLimit struct{ p50, p99 float64 } // simulated seconds

// setupBudget bounds the wall time, in seconds, a run spends repeating
// its set-up: set-up is repeated (and the median reported) up to three
// times while the repeats fit.
const setupBudget = 4.5

// options are the inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale divides every population (1 in real runs, 100 in the smoke
	// test); segments, when positive, fixes the number of window
	// segments so that counts reproduce exactly.
	scale    int
	segments int
	outDir   string
	// corrupt makes the partner stub drop ("drop") or replay ("replay")
	// an execution, to prove the audit notices.
	corrupt string
}

func (o options) n(size int) int {
	n := size / o.scale
	if n < 8 {
		n = 8
	}
	return n
}

// run is the state one workload run threads through its phases.
type run struct {
	o      options
	res    *result
	tr     *tracer // nil in the end-to-end run
	win    window
	setups []float64 // wall seconds of each set-up
	base   uint64    // live heap before the first set-up
	heap   uint64    // live heap after the last set-up
	pop    *population
	layers map[string]float64
	rt0    runtimeSnapshot
	// seconds is how long loop measures: the whole measuring time unless
	// the workload spends part of it outside the loop.
	seconds float64
}

func newRun(o options, pop *population) *run {
	r := &run{o: o, res: &result{workload: o.workload}, pop: pop, layers: map[string]float64{}, seconds: o.seconds}
	if o.trace {
		r.tr = newTracer(pop)
	}
	r.base = heapLive()
	return r
}

// doer returns the Doer an engine is built with: the stub itself, or
// the stub behind the span wrapper in a traced run.
func (r *run) doer(p *partner) httpx.Doer {
	p.corrupt = r.o.corrupt
	if r.tr != nil {
		return r.tr.doer(p)
	}
	return p
}

func (r *run) traceFunc() func(engine.TraceEvent) {
	if r.tr != nil {
		return r.tr.onTrace
	}
	return nil
}

// setupDone records one set-up's wall time and the live heap.
func (r *run) setupDone(t0 time.Time) {
	r.heap = heapLive()
	r.setups = append(r.setups, time.Since(t0).Seconds())
}

// setupAgain reports whether the build just set up should be discarded
// and set up once more. A traced run reports no setup_s and sets up once.
func (r *run) setupAgain() bool {
	last := r.setups[len(r.setups)-1]
	return r.tr == nil && len(r.setups) < 3 && sum(r.setups)+last <= setupBudget
}

// loop runs window segments until the measuring time is used (at least
// six, so that a traced run has three of each kind). In a traced run
// odd segments record spans and even ones pass through, which is what
// trace.overhead_pct compares.
//
// pre, when non-nil, runs before segment i, outside any measurement.
func (r *run) loop(pre func(i int), seg func() int64) {
	start := time.Now()
	r.rt0 = readRuntime()
	r.tr.startProfile(r.o)
	for i := 0; ; i++ {
		if r.o.segments > 0 {
			if i >= r.o.segments {
				break
			}
		} else if i >= 6 && time.Since(start).Seconds() >= r.seconds {
			break
		}
		traced := r.tr != nil && i%2 == 1
		r.tr.setOn(traced)
		if pre != nil {
			pre(i)
		}
		r.win.measure(traced, seg)
		// Sampled at segment edges: the engine's goroutines are its shards
		// and workers, which do not come and go inside a segment.
		if g := float64(runtime.NumGoroutine()); g > r.layers["engine.goroutines_peak"] {
			r.layers["engine.goroutines_peak"] = g
		}
	}
	r.tr.setOn(false)
}

// finish derives the end-to-end metrics every workload reports.
func (r *run) finish() {
	r.tr.stopProfile(r)
	segs := r.win.segs
	ops, opsSpread := opsPerSec(segs)
	cpu, cpuSpread := cpuUsPerOp(segs)
	objs, bytes := allocsPerOp(segs)
	heapPer := 0.0
	if r.heap > r.base {
		heapPer = float64(r.heap-r.base) / float64(len(r.pop.applets))
	}
	r.res.e2e = []metric{
		{Name: "setup_s", Value: median(r.setups), Unit: "s"},
		{Name: "ops_per_s", Value: ops, Unit: "op/s", Spread: opsSpread},
		{Name: "cpu_us_per_op", Value: cpu, Unit: "us/op", Spread: cpuSpread},
		{Name: "allocs_per_op", Value: objs, Unit: "allocs/op"},
		{Name: "alloc_bytes_per_op", Value: bytes, Unit: "B/op"},
		{Name: "heap_bytes_per_applet", Value: heapPer, Unit: "B/applet"},
	}
	if r.tr != nil {
		// Segments alternate untraced, traced, untraced, ...: every adjacent
		// two make a pair, so a slow spell of the box lands on both sides of
		// a pair and a steady drift cancels between consecutive pairs.
		var pairs []float64
		for i := 0; i+1 < len(segs); i++ {
			off, on := segs[i], segs[i+1]
			if off.traced {
				off, on = on, off
			}
			if off.ops > 0 && on.ops > 0 {
				pairs = append(pairs, 100*(1-(float64(on.ops)/on.wall)/(float64(off.ops)/off.wall)))
			}
		}
		r.layers["trace.overhead_pct"] = median(pairs)
		for _, m := range runtimeMetrics(r.rt0, readRuntime(), r.heap) {
			r.layers[m.Name] = m.Value
		}
	}
}

// engineLayers turns a Stats delta over the window into the engine.*
// ratios. served is the number of events the stub put into poll
// responses plus those pushed and accepted.
func (r *run) engineLayers(a, b engine.Stats, served int64) {
	polls := b.Polls - a.Polls
	r.layers["engine.polls"] = float64(polls)
	executed := (b.ActionsOK - a.ActionsOK) + (b.ActionsFailed - a.ActionsFailed)
	if polls > 0 {
		r.layers["engine.events_per_poll"] = float64(b.EventsReceived-a.EventsReceived) / float64(polls)
	}
	if d := (b.PollsDeferred - a.PollsDeferred) + (b.BudgetGrants - a.BudgetGrants); d > 0 {
		r.layers["engine.deferred_ratio"] = float64(b.PollsDeferred-a.PollsDeferred) / float64(d)
	}
	if served > 0 {
		r.layers["engine.dedup_drop_ratio"] = float64(served-executed) / float64(served)
	}
	if pb := b.PushBatches - a.PushBatches; pb > 0 {
		r.layers["engine.push_merge_ratio"] = float64(b.IngressAccepted-a.IngressAccepted) / float64(pb)
	}
	r.layers["engine.actions_failed"] = float64(b.ActionsFailed - a.ActionsFailed)
}

// installAll installs the whole population, counting refusals as
// failures, and returns the median duration of a sampled install in ns.
func (r *run) installAll(install func(engine.Applet) error) float64 {
	ns, refused, err := timeInstalls(r.pop.applets, install)
	r.res.attempted += int64(len(r.pop.applets))
	if refused > 0 {
		r.res.fail(refused, "install: "+err.Error())
	}
	return ns
}

// timeInstalls installs applets one by one and returns the median
// duration of every 16th install in ns, how many were refused, and the
// first refusal.
func timeInstalls(applets []engine.Applet, install func(engine.Applet) error) (ns float64, refused int64, first error) {
	var sampled []float64
	for i := range applets {
		t := time.Now()
		if err := install(applets[i]); err != nil {
			if refused++; first == nil {
				first = err
			}
		}
		if i%16 == 0 {
			sampled = append(sampled, float64(time.Since(t).Nanoseconds()))
		}
	}
	return median(sampled), refused, first
}

// --- poll_idle -----------------------------------------------------------

// runPollIdle: a large population of silent subscriptions on a fixed
// cadence. Scheduler-bound: the shard heaps, the simulated clock's
// timers and the prepared poll round-trip do all the work.
func runPollIdle(o options) *result {
	n := o.n(pollIdleApplets)
	r := newRun(o, newPopulation(o.seed, n, 0, time.Second))
	for done := false; !done; {
		clock := simtime.NewSimDefault()
		stub := newPartner(clock, r.pop, time.Second)
		eng := engine.New(pollIdleConfig(clock, o.seed, r.doer(stub), 8, 8, r.traceFunc()))
		clock.Run(func() {
			defer eng.Stop()
			t0 := time.Now()
			r.installAll(eng.Install)
			clock.Sleep(pollIdleWarm)
			r.setupDone(t0)
			if r.setupAgain() {
				return
			}
			done = true
			before := eng.Stats()
			r.loop(nil, func() int64 {
				p0 := stub.polls.Load()
				clock.Sleep(pollIdleSegment)
				return stub.polls.Load() - p0
			})
			after := eng.Stats()
			r.finish()

			polls := after.Polls - before.Polls
			r.res.attempted += polls
			r.res.fail(after.PollFailures, "poll failed")
			want := int64(len(r.win.segs)) * int64(n) * int64(pollIdleSegment/pollIdleGap)
			if d := polls - want; d > want/100 || d < -want/100 {
				r.res.fail(1, fmt.Sprintf("polled %d times, schedule asks for %d", polls, want))
			}
			if stub.actions.Load() != 0 {
				r.res.fail(stub.actions.Load(), "action without an event")
			}
			r.engineLayers(before, after, 0)
			r.partnerLayers(stub)
		})
	}
	if r.tr != nil {
		r.layers["engine.serial_ops_per_s"] = serialPollIdle(o, r.pop)
	}
	return r.done()
}

func pollIdleConfig(clock simtime.Clock, seed uint64, d httpx.Doer, shards, workers int, tf func(engine.TraceEvent)) engine.Config {
	return engine.Config{
		Clock: clock, RNG: stats.NewRNG(seed), Doer: d,
		Poll:          engine.FixedInterval{Interval: pollIdleGap},
		DispatchDelay: -1, Shards: shards, ShardWorkers: workers, Trace: tf,
	}
}

// serialPollIdle is the single-threaded baseline: the same population
// at one shard and one worker for serialVirtual, polls per second.
func serialPollIdle(o options, pop *population) float64 {
	clock := simtime.NewSimDefault()
	stub := newPartner(clock, pop, time.Second)
	eng := engine.New(pollIdleConfig(clock, o.seed, stub, 1, 1, nil))
	var rate float64
	clock.Run(func() {
		defer eng.Stop()
		for i := range pop.applets {
			if err := eng.Install(pop.applets[i]); err != nil {
				return
			}
		}
		clock.Sleep(pollIdleWarm)
		p0, t0 := stub.polls.Load(), time.Now()
		clock.Sleep(serialVirtual)
		rate = float64(stub.polls.Load()-p0) / time.Since(t0).Seconds()
	})
	return rate
}

// --- poll_hot ------------------------------------------------------------

func pollHotConfig(clock simtime.Clock, seed uint64, d httpx.Doer, qps float64, tf func(engine.TraceEvent)) engine.Config {
	return engine.Config{
		Clock: clock, RNG: stats.NewRNG(seed), Doer: d,
		Adaptive: &engine.AdaptiveConfig{
			HalfLife: 2 * time.Minute, FastFloor: 10 * time.Second,
			SlowCeiling: pollHotSlow, TargetEventsPerPoll: 0.3,
		},
		PollBudgetQPS: qps, DispatchDelay: 10 * time.Millisecond,
		Shards: 8, ShardWorkers: 8, Trace: tf,
	}
}

// runPollHot: a tenth of the subscriptions produce an event every 30 s
// under adaptive cadence and a global poll budget. Event-path-bound
// through poll: admission, event decode, dedup, ingredient expansion,
// action encode and the adaptive update; the budget keeps the scheduler
// nearly idle.
func runPollHot(o options) *result {
	n, hot := o.n(pollHotSubs), o.n(pollHotHot)
	qps := float64(pollHotQPS) / float64(o.scale)
	r := newRun(o, newPopulation(o.seed, n, hot, pollHotPeriod))
	for done := false; !done; {
		clock := simtime.NewSimDefault()
		stub := newPartner(clock, r.pop, pollHotPeriod)
		stub.limit = pollHotBuffer
		eng := engine.New(pollHotConfig(clock, o.seed, r.doer(stub), qps, r.traceFunc()))
		clock.Run(func() {
			defer eng.Stop()
			t0 := time.Now()
			r.installAll(eng.Install)
			clock.Sleep(pollHotWarm)
			r.setupDone(t0)
			if r.setupAgain() {
				return
			}
			done = true
			winStart := clock.Now()
			stub.sampleT2A(winStart, minSegments*pollHotSegment)
			before, served0 := eng.Stats(), stub.eventsServed.Load()
			polls0, hotPolls0 := stub.polls.Load(), stub.hotPolls.Load()
			r.loop(nil, func() int64 {
				a0 := stub.actions.Load()
				clock.Sleep(pollHotSegment)
				return stub.actions.Load() - a0
			})
			after := eng.Stats()
			virtual := clock.Now().Sub(winStart).Seconds()
			r.finish()
			// Stop lets in-flight executions finish their round; a virtual
			// second covers their dispatch delay, so the audit sees every
			// offered event executed.
			eng.Stop()
			clock.Sleep(time.Second)

			stub.audit(clock.Now(), pollHotSlow+5*time.Minute).record(r.res)
			r.res.fail(stub.expiredFresh.Load(), "event left the partner's buffer unseen")
			r.res.fail(after.PollFailures+after.ActionsFailed+stub.malformed.Load(), "poll or action failed")
			if rate := float64(stub.polls.Load()-polls0) / virtual; rate > 1.05*qps {
				r.res.fail(1, fmt.Sprintf("polled at %.1f/s against a budget of %.1f/s", rate, qps))
			}
			r.t2aSim(stub, pollHotT2AMax)
			r.engineLayers(before, after, stub.eventsServed.Load()-served0)
			r.layers["engine.poll_hit_ratio"] = float64(stub.hotPolls.Load()-hotPolls0) / float64(stub.polls.Load()-polls0)
			r.partnerLayers(stub)
		})
	}
	if r.tr != nil {
		r.obsOverhead()
	}
	return r.done()
}

// t2aSim reports simulated trigger-to-action latency as the stub saw it
// and fails the run when it exceeds max. The smoke test's populations
// are too small for the recorded values to apply.
func (r *run) t2aSim(stub *partner, max t2aLimit) {
	s := stub.t2aSamples()
	if len(s) == 0 {
		r.res.fail(1, "no trigger-to-action sample in the window")
		return
	}
	sort.Float64s(s)
	p50, p99 := quantileSorted(s, 0.5), quantileSorted(s, 0.99)
	r.res.extra = append(r.res.extra,
		metric{Name: "t2a_sim_p50_s", Value: p50, Unit: "sim_s"},
		metric{Name: "t2a_sim_p99_s", Value: p99, Unit: "sim_s"},
		metric{Name: "t2a_sim_samples", Value: float64(len(s)), Unit: "count"},
	)
	r.res.attempted++
	if r.o.scale == 1 && (p50 > max.p50 || p99 > max.p99) {
		r.res.fail(1, fmt.Sprintf("simulated T2A p50 %.3f s p99 %.3f s, recorded limits %.3f and %.3f", p50, p99, max.p50, max.p99))
	}
}

// obsOverhead measures what a metrics registry (and the span recorder
// it implies) costs poll_hot: two tenth-size engines, one with and one
// without, advanced in alternating segments; CPU per execution, medians.
func (r *run) obsOverhead() {
	o := r.o
	o.scale *= 10
	n, hot := o.n(pollHotSubs), o.n(pollHotHot)
	pop := newPopulation(o.seed, n, hot, pollHotPeriod)
	// An arm answers each step with the CPU per execution of one more
	// segment; its first answer only says the warm-up is over, its last
	// (after step is closed) is the engine's dropped trace events.
	type arm struct {
		step chan struct{}
		out  chan float64
	}
	start := func(withObs bool) arm {
		a := arm{step: make(chan struct{}), out: make(chan float64)}
		go func() {
			clock := simtime.NewSimDefault()
			stub := newPartner(clock, pop, pollHotPeriod)
			stub.limit = pollHotBuffer
			cfg := pollHotConfig(clock, o.seed, stub, float64(pollHotQPS)/float64(o.scale), nil)
			if withObs {
				cfg.Metrics = obs.NewRegistry()
			}
			eng := engine.New(cfg)
			clock.Run(func() {
				defer eng.Stop()
				for i := range pop.applets {
					if err := eng.Install(pop.applets[i]); err != nil {
						break
					}
				}
				clock.Sleep(pollHotWarm)
				a.out <- 0
				// The driver blocks on a plain channel between segments: the
				// clock sees a runnable actor and holds virtual time still.
				for range a.step {
					a0, c0 := stub.actions.Load(), cpuSeconds()
					clock.Sleep(3 * pollHotSegment)
					a.out <- (cpuSeconds() - c0) * 1e6 / float64(stub.actions.Load()-a0+1)
				}
			})
			a.out <- float64(eng.TraceDrops())
		}()
		return a
	}
	plain, with := start(false), start(true)
	<-plain.out
	<-with.out
	var ratios []float64
	for i := 0; i < 5; i++ {
		plain.step <- struct{}{}
		p := <-plain.out
		with.step <- struct{}{}
		w := <-with.out
		ratios = append(ratios, 100*(w-p)/p)
	}
	close(plain.step)
	close(with.step)
	<-plain.out
	r.layers["obs.trace_drops"] = <-with.out
	r.layers["obs.span_overhead_pct"] = median(ratios)
}
