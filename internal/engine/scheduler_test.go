package engine

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// countingClock counts the workers the scheduler starts through Go and,
// per timer, its firings and moves. Now can be frozen so that
// subscriptions installed one after another come due at exactly the
// same instant on either clock.
type countingClock struct {
	simtime.Clock
	goes   atomic.Int64
	frozen atomic.Pointer[time.Time]
}

func (c *countingClock) Now() time.Time {
	if t := c.frozen.Load(); t != nil {
		return *t
	}
	return c.Clock.Now()
}

func (c *countingClock) Go(f func()) {
	c.goes.Add(1)
	c.Clock.Go(f)
}

func (c *countingClock) NewTimer(f func()) simtime.Timer {
	t := &countingTimer{}
	t.Timer = c.Clock.NewTimer(func() {
		t.fires.Add(1)
		f()
	})
	return t
}

// installFrozen installs the applets at one frozen instant.
func (c *countingClock) installFrozen(t *testing.T, eng *Engine, apps []Applet) {
	t0 := c.Clock.Now()
	c.frozen.Store(&t0)
	for _, a := range apps {
		if err := eng.Install(a); err != nil {
			t.Errorf("install: %v", err)
		}
	}
	c.frozen.Store(nil)
}

type countingTimer struct {
	simtime.Timer
	fires, resets atomic.Int64
}

func (t *countingTimer) Reset(at time.Time) {
	t.resets.Add(1)
	t.Timer.Reset(at)
}

// timerCounts returns the firings and moves of a timer countingClock
// made.
func timerCounts(tm simtime.Timer) (fires, resets int64) {
	ct := tm.(*countingTimer)
	return ct.fires.Load(), ct.resets.Load()
}

// firstThen polls each subscription once after first, then at then. A
// subscription is known by its RNG stream, which is its own.
type firstThen struct {
	first, then time.Duration
	mu          sync.Mutex
	seen        map[*stats.RNG]bool
}

func (p *firstThen) NextGap(_ string, g *stats.RNG) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seen[g] {
		p.seen[g] = true
		return p.first
	}
	return p.then
}

// inflightDoer wraps a Doer and records the most calls it had in flight
// at once and, relative to base, the clock instant each one returned.
type inflightDoer struct {
	httpx.Doer
	clock     simtime.Clock
	base      time.Time
	mu        sync.Mutex
	now, peak int
	done      []time.Duration
}

func (d *inflightDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	d.now++
	d.peak = max(d.peak, d.now)
	d.mu.Unlock()
	resp, err := d.Doer.Do(req)
	d.mu.Lock()
	d.now--
	d.done = append(d.done, d.clock.Now().Sub(d.base))
	d.mu.Unlock()
	return resp, err
}

func (d *inflightDoer) peakInflight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// TestSchedulerActorsPerDuePoll pins the hand-off's cost in actors: a
// timer firing is the worker, a poll the budget defers goes back on the
// heap without starting one, and while a worker runs, further due polls
// arm the shard's spare timer once instead of starting workers. Polls
// that answer at once never block their worker, so on the simulated
// clock the spare, which fires only when every actor is blocked, finds
// the queue drained and starts none: one worker polls them all. On the
// real clock the spare fires at once and may win a slot; each of its
// firings is one move, and it never fires more often than there are
// slots or polls. The shard timer moves once when the first install arms
// it and at most once per firing after that (by the firing itself, or
// by the reschedule that follows a firing which emptied the heap): a
// deferral inside a burst must not point it at the still-due rest of
// the burst, which on the real clock would start a firing for nothing.
func TestSchedulerActorsPerDuePoll(t *testing.T) {
	const workers = 4
	cases := []struct {
		name                       string
		due                        int
		qps                        float64
		fires, polls, defs, resets int64
		spare                      int64 // spare firings (= moves) on the simulated clock
	}{
		{name: "one due", due: 1, fires: 1, polls: 1, resets: 2},
		{name: "two due", due: 2, fires: 1, polls: 2, resets: 2, spare: 1},
		{name: "more due than workers", due: 10, fires: 1, polls: 10, resets: 2, spare: 1},
		// One token at a time, 10 per second: the second subscription is
		// deferred by 100 ms and polls on the timer's second firing.
		{name: "budget-deferred", due: 2, qps: 10, fires: 2, polls: 2, defs: 1, resets: 3},
		// Three due at once: the second is deferred while the third is
		// still on the heap, due. One firing per token, none in between.
		{name: "deferred inside a burst", due: 3, qps: 10, fires: 3, polls: 3, defs: 2, resets: 4},
	}
	for _, tc := range cases {
		for _, real := range []bool{false, true} {
			name := tc.name + "/sim"
			if real {
				name = tc.name + "/real"
			}
			t.Run(name, func(t *testing.T) {
				var sim *simtime.SimClock
				var wall *simtime.RealClock
				cc := &countingClock{}
				if real {
					wall = simtime.NewReal()
					cc.Clock = wall
				} else {
					sim = simtime.NewSimDefault()
					cc.Clock = sim
				}
				doer := &inflightDoer{Doer: stubDoer{}, clock: cc}
				eng := New(Config{
					Clock: cc, RNG: stats.NewRNG(3), Doer: doer,
					Poll:          &firstThen{first: 50 * time.Millisecond, then: time.Hour, seen: map[*stats.RNG]bool{}},
					PollBudgetQPS: tc.qps, PollBudgetBurst: 1,
					DispatchDelay: -1, Shards: 1, ShardWorkers: workers,
				})
				apps := make([]Applet, tc.due)
				for i := range apps {
					apps[i] = scaleApplet(i)
				}
				if real {
					cc.installFrozen(t, eng, apps)
					// Done when every poll has run and is back on the heap
					// for its next turn.
					pending := func() int {
						s := eng.shards[0]
						s.mu.Lock()
						defer s.mu.Unlock()
						return len(s.heap)
					}
					deadline := time.Now().Add(10 * time.Second)
					for (eng.Stats().Polls < tc.polls || pending() < tc.due) && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					// The next polls are an hour away: Stop has to disarm
					// the timers for Wait to return.
					eng.Stop()
					joined := make(chan struct{})
					go func() { wall.Wait(); close(joined) }()
					select {
					case <-joined:
					case <-time.After(10 * time.Second):
						t.Fatal("RealClock.Wait did not return after Stop: a shard timer is still armed")
					}
				} else {
					sim.Run(func() {
						cc.installFrozen(t, eng, apps)
						sim.Sleep(10 * time.Second)
						eng.Stop()
					})
				}
				st := eng.Stats()
				if st.Polls != tc.polls || st.PollsDeferred != tc.defs {
					t.Errorf("polls %d deferred %d, want %d and %d", st.Polls, st.PollsDeferred, tc.polls, tc.defs)
				}
				if g := cc.goes.Load(); g != 0 {
					t.Errorf("%d workers started through Go, want 0: the timers start them all", g)
				}
				if f, r := timerCounts(eng.shards[0].timer); f != tc.fires || r != tc.resets {
					t.Errorf("shard timer fired %d times and moved %d, want %d and %d", f, r, tc.fires, tc.resets)
				}
				sf, sr := timerCounts(eng.shards[0].spare)
				peak := doer.peakInflight()
				if real {
					// The spare fires at once, racing the worker for the
					// queue, and a spare that wins a slot re-arms while
					// more is queued. One due poll never arms it.
					lo, hi := min(tc.spare, 1), int64(min(tc.due, workers))
					if tc.due == 1 {
						hi = 0
					}
					if sf < lo || sf > hi || sr != sf {
						t.Errorf("spare fired %d times and moved %d, want one move per firing, %d to %d of them",
							sf, sr, lo, hi)
					}
					if peak > workers {
						t.Errorf("%d polls in flight at once, cap %d", peak, workers)
					}
					return
				}
				if sf != tc.spare || sr != tc.spare {
					t.Errorf("spare fired %d times and moved %d, want %d and %d", sf, sr, tc.spare, tc.spare)
				}
				if peak != 1 {
					t.Errorf("%d polls in flight at once, want 1: polls that never block need no second worker", peak)
				}
			})
		}
	}
}

// TestSpareWorkersKeepTimeline: workers that block get their helpers at
// the very instant they block, so ten polls due together, each held 1 s
// by its Doer, run four at a time, exactly as if all four workers had
// started with the first firing. A spare armed even a nanosecond later
// than now moves every completion after the first four.
func TestSpareWorkersKeepTimeline(t *testing.T) {
	const workers, due = 4, 10
	sim := simtime.NewSimDefault()
	cc := &countingClock{Clock: sim}
	first := 50 * time.Millisecond
	doer := &inflightDoer{Doer: slowDoer{sim, time.Second}, clock: sim, base: sim.Now().Add(first)}
	eng := New(Config{
		Clock: cc, RNG: stats.NewRNG(3), Doer: doer,
		Poll:          &firstThen{first: first, then: time.Hour, seen: map[*stats.RNG]bool{}},
		DispatchDelay: -1, Shards: 1, ShardWorkers: workers,
	})
	apps := make([]Applet, due)
	for i := range apps {
		apps[i] = scaleApplet(i)
	}
	sim.Run(func() {
		cc.installFrozen(t, eng, apps)
		sim.Sleep(10 * time.Second)
		eng.Stop()
	})
	got := append([]time.Duration(nil), doer.done...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	s := time.Second
	want := []time.Duration{s, s, s, s, 2 * s, 2 * s, 2 * s, 2 * s, 3 * s, 3 * s}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("polls completed at %v after they came due, want %v", got, want)
	}
	if peak := doer.peakInflight(); peak != workers {
		t.Errorf("%d polls in flight at once, want %d", peak, workers)
	}
	if g := cc.goes.Load(); g != 0 {
		t.Errorf("%d workers started through Go, want 0: the spare starts them", g)
	}
}

// TestFireSweepsCoincidingShards: polls due at one instant on every
// shard take one timer firing, which admits them in shard-index order
// and starts a worker on each shard, its own actor being one of them.
// Under a budget that admits only some, the lowest shard indices win
// the tie, run after run.
func TestFireSweepsCoincidingShards(t *testing.T) {
	const shards = 8
	// One applet per shard; apps[k] is shard k's.
	apps := make([]Applet, shards)
	probe := New(Config{Clock: simtime.NewSimDefault(), RNG: stats.NewRNG(1), Doer: stubDoer{}, Shards: shards})
	for i, found := 0, 0; found < shards; i++ {
		a := scaleApplet(i)
		if k := probe.shardFor(a.ID).id; apps[k].ID == "" {
			apps[k] = a
			found++
		}
	}
	probe.Stop()
	shardOf := map[string]int{}
	for k, a := range apps {
		shardOf[a.ID] = k
	}

	// run installs apps in reverse shard order at one instant and
	// returns the shards whose polls ran, in order, the instants they
	// ran at and the engine.
	run := func(burst int) ([]int, []time.Duration, *Engine, *countingClock) {
		sim := simtime.NewSimDefault()
		cc := &countingClock{Clock: sim}
		first := 50 * time.Millisecond
		doer := &inflightDoer{Doer: stubDoer{}, clock: sim, base: sim.Now().Add(first)}
		var mu sync.Mutex
		var polled []int
		cfg := Config{
			Clock: cc, RNG: stats.NewRNG(3), Doer: doer,
			Poll:          &firstThen{first: first, then: time.Hour, seen: map[*stats.RNG]bool{}},
			DispatchDelay: -1, Shards: shards, ShardWorkers: 4,
			Trace: func(ev TraceEvent) {
				if ev.Kind == TracePollSent {
					mu.Lock()
					polled = append(polled, shardOf[ev.AppletID])
					mu.Unlock()
				}
			},
		}
		if burst > 0 {
			cfg.PollBudgetQPS, cfg.PollBudgetBurst = 1e-6, float64(burst)
		}
		eng := New(cfg)
		rev := append([]Applet(nil), apps...)
		slices.Reverse(rev)
		sim.Run(func() {
			cc.installFrozen(t, eng, rev)
			sim.Sleep(10 * time.Second)
			eng.Stop()
		})
		return polled, doer.done, eng, cc
	}

	polled, at, eng, cc := run(0)
	if len(polled) != shards {
		t.Fatalf("%d polls, want one per shard (%d)", len(polled), shards)
	}
	for _, d := range at {
		if d != 0 {
			t.Errorf("polls ran at %v after they came due, want all at once", at)
			break
		}
	}
	var fires int64
	for _, sh := range eng.shards {
		f, _ := timerCounts(sh.timer)
		fires += f
	}
	if fires != 1 {
		t.Errorf("shard timers fired %d times, want 1: one firing sweeps every shard", fires)
	}
	if g := cc.goes.Load(); g != shards-1 {
		t.Errorf("%d workers started through Go, want %d: the firing actor is the eighth", g, shards-1)
	}

	const burst = 3
	for r := 0; r < 20; r++ {
		polled, _, eng, _ := run(burst)
		got := slices.Clone(polled)
		slices.Sort(got)
		if fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("run %d: shards %v polled under a budget of %d, want [0 1 2]", r, polled, burst)
		}
		if st := eng.Stats(); st.PollsDeferred != shards-burst {
			t.Fatalf("run %d: %d polls deferred, want %d", r, st.PollsDeferred, shards-burst)
		}
	}
}

// slowDoer answers like stubDoer after d of clock time.
type slowDoer struct {
	clock simtime.Clock
	d     time.Duration
}

func (sd slowDoer) Do(req *http.Request) (*http.Response, error) {
	sd.clock.Sleep(sd.d)
	return stubDoer{}.Do(req)
}

// Admission charges the budget when a subscription is popped, which can
// be well before a worker takes it. One that is removed in between gives
// the token back instead of leaking it.
func TestRemovedAfterAdmissionRefundsBudget(t *testing.T) {
	sim := simtime.NewSimDefault()
	eng := New(Config{
		Clock: sim, RNG: stats.NewRNG(3), Doer: slowDoer{sim, time.Second},
		Poll:          &firstThen{first: 50 * time.Millisecond, then: time.Hour, seen: map[*stats.RNG]bool{}},
		PollBudgetQPS: 1e-6, PollBudgetBurst: 2,
		DispatchDelay: -1, Shards: 1, ShardWorkers: 1,
	})
	sim.Run(func() {
		for i := 0; i < 2; i++ {
			if err := eng.Install(scaleApplet(i)); err != nil {
				t.Errorf("install: %v", err)
			}
		}
		// Both come due at +50 ms and are admitted on the burst; the one
		// worker is inside the first poll until +1.05 s.
		sim.Sleep(500 * time.Millisecond)
		if got := eng.admission.tokenBalance(); got != 0 {
			t.Errorf("token balance %v with two polls admitted, want 0", got)
		}
		eng.Remove(scaleApplet(1).ID)
		sim.Sleep(2 * time.Second)
		eng.Stop()
	})
	if st := eng.Stats(); st.Polls != 1 {
		t.Errorf("%d polls, want 1: the removed subscription must not poll", st.Polls)
	}
	if got := eng.admission.tokenBalance(); got != 1 {
		t.Errorf("token balance %v after the removed subscription's turn, want its token back (1)", got)
	}
}

// schedulerShard is a one-shard engine with n pending polls an hour or
// more out, for driving the shard's heap directly.
func schedulerShard(tb testing.TB, n int) (*Engine, *shard) {
	tb.Helper()
	eng := New(Config{
		Clock: simtime.NewSimDefault(), RNG: stats.NewRNG(5), Doer: stubDoer{},
		Poll: NewPaperPollModel(), DispatchDelay: -1, Shards: 1,
	})
	for i := 0; i < n; i++ {
		if err := eng.Install(scaleApplet(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, eng.shards[0]
}

// reschedulePopped is the scheduler's steady state on one shard: take
// the head, put it back gap later, move the timer to the new head.
func reschedulePopped(s *shard, gap time.Duration) {
	sub := s.heap[0]
	s.heap.remove(sub)
	s.scheduleLocked(sub, s.e.epoch.Add(time.Duration(sub.due)+gap))
}

func TestSchedulePopRescheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	eng, s := schedulerShard(t, 1000)
	defer eng.Stop()
	s.mu.Lock()
	n := testing.AllocsPerRun(2000, func() { reschedulePopped(s, 7*time.Minute) })
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("pop + reschedule + timer re-arm allocates %.2f/op, want 0", n)
	}
}

func BenchmarkShardSchedulePop(b *testing.B) {
	eng, s := schedulerShard(b, 12_500)
	defer eng.Stop()
	rng := stats.NewRNG(9)
	gaps := make([]time.Duration, 1024)
	for i := range gaps {
		gaps[i] = time.Duration(1+rng.IntN(900)) * time.Second
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.mu.Lock()
	for i := 0; i < b.N; i++ {
		reschedulePopped(s, gaps[i%len(gaps)])
	}
	s.mu.Unlock()
}

// TestPollHeapRandomised drives the heap with random pushes,
// decrease-keys and removes against a sorted reference: the head and
// every recorded position agree after each step, equal deadlines pop in
// seq (FIFO) order, and the final drain is the reference order.
func TestPollHeapRandomised(t *testing.T) {
	rng := stats.NewRNG(17)
	var h pollHeap
	var ref []*subscription
	var seq uint64
	before := func(a, b *subscription) bool {
		return a.due < b.due || a.due == b.due && a.seq < b.seq
	}
	check := func(step int) {
		t.Helper()
		sort.Slice(ref, func(i, j int) bool { return before(ref[i], ref[j]) })
		if len(h) != len(ref) {
			t.Fatalf("step %d: heap holds %d, reference %d", step, len(h), len(ref))
		}
		for i, sub := range h {
			if sub.heapPos != i+1 {
				t.Fatalf("step %d: %s at index %d records position %d", step, sub.key, i, sub.heapPos)
			}
			if i > 0 && before(sub, h[(i-1)/2]) {
				t.Fatalf("step %d: heap order broken at index %d", step, i)
			}
		}
		if len(ref) > 0 && h[0] != ref[0] {
			t.Fatalf("step %d: head is %s, want %s", step, h[0].key, ref[0].key)
		}
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.IntN(10); {
		case op < 5 || len(ref) == 0: // push; few distinct deadlines, so ties are common
			seq++
			sub := &subscription{key: fmt.Sprint("s", seq), due: int64(rng.IntN(40)), seq: seq}
			h.push(sub)
			ref = append(ref, sub)
		case op < 7: // decrease-key, as a realtime poke does
			sub := ref[rng.IntN(len(ref))]
			sub.due -= int64(rng.IntN(20))
			h.fix(sub)
		case op < 9: // remove from anywhere, as leaveLocked does
			i := rng.IntN(len(ref))
			sub := ref[i]
			h.remove(sub)
			ref = append(ref[:i], ref[i+1:]...)
			if sub.heapPos != 0 {
				t.Fatalf("step %d: removed %s still records position %d", step, sub.key, sub.heapPos)
			}
		default: // pop
			sub := h[0]
			h.remove(sub)
			sort.Slice(ref, func(i, j int) bool { return before(ref[i], ref[j]) })
			if sub != ref[0] {
				t.Fatalf("step %d: popped %s, want %s", step, sub.key, ref[0].key)
			}
			ref = ref[1:]
		}
		check(step)
	}
	for i := 0; len(h) > 0; i++ {
		sub := h[0]
		h.remove(sub)
		if sub != ref[i] {
			t.Fatalf("drain %d: popped %s (due %d seq %d), want %s (due %d seq %d)",
				i, sub.key, sub.due, sub.seq, ref[i].key, ref[i].due, ref[i].seq)
		}
	}
}

// Removing the subscription that holds the shard's last pending poll
// disarms the timer: the simulation quiesces without anyone calling
// Stop, and without running out the hour to the cancelled poll.
func TestLeaveLastPendingPollQuiesces(t *testing.T) {
	sim := simtime.NewSimDefault()
	eng := New(Config{
		Clock: sim, RNG: stats.NewRNG(5), Doer: stubDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1,
	})
	start := sim.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim.Run(func() {
			if err := eng.Install(scaleApplet(0)); err != nil {
				t.Errorf("install: %v", err)
			}
			sim.Sleep(time.Second)
			eng.Remove(scaleApplet(0).ID)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the removed subscription's timer is still armed")
	}
	if got := sim.Since(start); got >= time.Hour {
		t.Errorf("simulation ran to +%v: the cancelled poll's deadline was still pending", got)
	}
	if st := eng.Stats(); st.Polls != 0 {
		t.Errorf("%d polls of a subscription removed before its first was due", st.Polls)
	}
}
