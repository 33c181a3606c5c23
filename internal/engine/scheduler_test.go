package engine

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// countingClock counts the actors the scheduler starts — timer firings
// and Go calls — and how often it moves the timer. Now can be frozen so
// that subscriptions installed one after another come due at exactly
// the same instant on either clock.
type countingClock struct {
	simtime.Clock
	fires, goes, resets atomic.Int64
	frozen              atomic.Pointer[time.Time]
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
	return countingTimer{c, c.Clock.NewTimer(func() {
		c.fires.Add(1)
		f()
	})}
}

type countingTimer struct {
	c *countingClock
	simtime.Timer
}

func (t countingTimer) Reset(at time.Time) {
	t.c.resets.Add(1)
	t.Timer.Reset(at)
}

// firstThen polls each subscription once after first, then at then.
type firstThen struct {
	first, then time.Duration
	mu          sync.Mutex
	seen        map[string]bool
}

func (p *firstThen) NextGap(id, _ string, _ *stats.RNG) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seen[id] {
		p.seen[id] = true
		return p.first
	}
	return p.then
}

// TestSchedulerActorsPerDuePoll pins the hand-off's cost in actors: a
// timer firing is the worker, further workers start only for due
// subscriptions beyond the first and within the concurrency cap, and a
// poll the budget defers goes back on the heap without starting one.
// The timer moves once when the first install arms it and at most once
// per firing after that (by the firing itself, or by the reschedule
// that follows a firing which emptied the heap): a deferral inside a
// burst must not point it at the still-due rest of the burst, which on
// the real clock would start a firing for nothing.
func TestSchedulerActorsPerDuePoll(t *testing.T) {
	const workers = 4
	cases := []struct {
		name                             string
		due                              int
		qps                              float64
		fires, goes, polls, defs, resets int64
	}{
		{name: "one due", due: 1, fires: 1, goes: 0, polls: 1, resets: 2},
		{name: "two due", due: 2, fires: 1, goes: 1, polls: 2, resets: 2},
		{name: "more due than workers", due: 10, fires: 1, goes: workers - 1, polls: 10, resets: 2},
		// One token at a time, 10 per second: the second subscription is
		// deferred by 100 ms and polls on the timer's second firing.
		{name: "budget-deferred", due: 2, qps: 10, fires: 2, goes: 0, polls: 2, defs: 1, resets: 3},
		// Three due at once: the second is deferred while the third is
		// still on the heap, due. One firing per token, none in between.
		{name: "deferred inside a burst", due: 3, qps: 10, fires: 3, goes: 0, polls: 3, defs: 2, resets: 4},
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
				eng := New(Config{
					Clock: cc, RNG: stats.NewRNG(3), Doer: stubDoer{},
					Poll:          &firstThen{first: 50 * time.Millisecond, then: time.Hour, seen: map[string]bool{}},
					PollBudgetQPS: tc.qps, PollBudgetBurst: 1,
					DispatchDelay: -1, Shards: 1, ShardWorkers: workers,
				})
				install := func() {
					t0 := cc.Clock.Now()
					cc.frozen.Store(&t0)
					for i := 0; i < tc.due; i++ {
						if err := eng.Install(scaleApplet(i)); err != nil {
							t.Errorf("install: %v", err)
						}
					}
					cc.frozen.Store(nil)
				}
				if real {
					install()
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
					// the timer for Wait to return.
					eng.Stop()
					joined := make(chan struct{})
					go func() { wall.Wait(); close(joined) }()
					select {
					case <-joined:
					case <-time.After(10 * time.Second):
						t.Fatal("RealClock.Wait did not return after Stop: the shard timer is still armed")
					}
				} else {
					sim.Run(func() {
						install()
						sim.Sleep(10 * time.Second)
						eng.Stop()
					})
				}
				st := eng.Stats()
				if st.Polls != tc.polls || st.PollsDeferred != tc.defs {
					t.Errorf("polls %d deferred %d, want %d and %d", st.Polls, st.PollsDeferred, tc.polls, tc.defs)
				}
				if f, g := cc.fires.Load(), cc.goes.Load(); f != tc.fires || g != tc.goes {
					t.Errorf("timer firings %d + workers started %d, want %d + %d", f, g, tc.fires, tc.goes)
				}
				if r := cc.resets.Load(); r != tc.resets {
					t.Errorf("timer moved %d times, want %d", r, tc.resets)
				}
			})
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
		Poll:          &firstThen{first: 50 * time.Millisecond, then: time.Hour, seen: map[string]bool{}},
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
