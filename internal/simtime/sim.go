package simtime

import (
	"container/heap"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SimClock is a discrete-event virtual clock. It tracks a population of
// actor goroutines; whenever every actor is blocked in a clock primitive,
// the clock jumps to the earliest pending timer and fires it. A full
// experiment that spans days of virtual time therefore completes in the
// real time it takes to execute its events.
//
// See the package comment for the actor discipline that simulated code
// must follow.
type SimClock struct {
	start    time.Time
	now      atomic.Int64 // ns since start; written under mu, read lock-free by Now()
	mu       sync.Mutex
	actors   int // live actors
	runnable int // actors not blocked in a clock primitive
	timers   timerHeap
	seq      uint64
	quiesce  chan struct{} // closed when actors==0 and no timers remain
	deadlock string        // non-empty once the simulation has deadlocked
	// idle holds the goroutines of finished actors, parked until the next
	// spawn (warmest stack last). Non-empty only while a Run is active.
	idle     []chan func()
	sleepers sync.Pool // *sleeper
}

// maxIdle bounds the parked goroutines, so that a burst of short actors
// (thousands of upstream DELETEs after a mass removal) does not stay
// resident until Run returns; past it a finished actor's goroutine ends.
const maxIdle = 128

// NewSim returns a virtual clock whose time starts at start.
func NewSim(start time.Time) *SimClock {
	c := &SimClock{start: start}
	if stallDebug {
		go c.stallWatch()
	}
	return c
}

// stallDebug enables a real-time watchdog on every SimClock that prints
// the clock's internal counters when the simulation stops making
// progress. Diagnostic only: set SIMTIME_STALL_DEBUG=1.
var stallDebug = os.Getenv("SIMTIME_STALL_DEBUG") != ""

func (c *SimClock) stallWatch() {
	var lastNow int64
	var lastSeq uint64
	for {
		time.Sleep(15 * time.Second)
		c.mu.Lock()
		stuck := c.now.Load() == lastNow && c.seq == lastSeq && c.actors > 0
		lastNow, lastSeq = c.now.Load(), c.seq
		if stuck {
			next := "none"
			if len(c.timers) > 0 {
				next = c.start.Add(time.Duration(c.timers[0].when)).Format(time.RFC3339Nano)
			}
			fmt.Fprintf(os.Stderr,
				"simtime: STALL now=%s actors=%d runnable=%d timers=%d next=%s deadlock=%q\n",
				c.Now().Format(time.RFC3339Nano), c.actors, c.runnable, len(c.timers), next, c.deadlock)
		}
		c.mu.Unlock()
	}
}

// DefaultStart is the virtual epoch used by NewSimDefault. It matches the
// reference snapshot date of the paper's dataset (2017-03-25).
var DefaultStart = time.Date(2017, time.March, 25, 0, 0, 0, 0, time.UTC)

// NewSimDefault returns a virtual clock starting at DefaultStart.
func NewSimDefault() *SimClock { return NewSim(DefaultStart) }

// Now returns the current virtual time. It is lock-free: hot paths
// (e.g. per-event trace timestamping) call it under contention that
// would otherwise serialize on the simulation mutex.
func (c *SimClock) Now() time.Time { return c.start.Add(time.Duration(c.now.Load())) }

// Since returns the virtual time elapsed since t.
func (c *SimClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Run executes f as the root actor and blocks until the whole simulation
// quiesces: every actor (including those f spawned transitively) has
// returned and no timer remains pending. Only one Run may be active at a
// time.
func (c *SimClock) Run(f func()) {
	done := make(chan struct{})
	c.mu.Lock()
	if c.quiesce != nil {
		c.mu.Unlock()
		panic("simtime: concurrent SimClock.Run")
	}
	if c.deadlock != "" {
		// A previous Run already poisoned this clock; timers no longer
		// advance, so a new Run could only hang. Fail loudly instead.
		err := c.deadlock
		c.mu.Unlock()
		panic(err)
	}
	c.quiesce = done
	c.spawnLocked(f)
	c.mu.Unlock()
	<-done
	c.mu.Lock()
	err := c.deadlock
	c.mu.Unlock()
	if err != "" {
		panic(err)
	}
}

// Go runs f as a new actor. When called from outside Run, the actor joins
// the population that the next Run call will wait for.
func (c *SimClock) Go(f func()) {
	c.mu.Lock()
	c.spawnLocked(f)
	c.mu.Unlock()
}

// Sleep pauses the calling actor for d of virtual time.
func (c *SimClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s, _ := c.sleepers.Get().(*sleeper)
	if s == nil {
		s = &sleeper{c: c, ch: make(chan struct{}, 1)}
		s.t.fire = s.wake
	}
	c.mu.Lock()
	c.armLocked(&s.t, c.now.Load()+int64(d))
	c.blockLocked()
	c.mu.Unlock()
	<-s.ch
	c.sleepers.Put(s)
}

// sleeper is one Sleep's timer node and wake channel, recycled through
// SimClock.sleepers so a steady-state Sleep allocates nothing.
type sleeper struct {
	c  *SimClock
	t  simTimer
	ch chan struct{} // capacity 1: the wake token
}

func (s *sleeper) wake() {
	s.c.runnable++
	s.ch <- struct{}{}
}

// AfterFunc schedules f to run as a new actor once d of virtual time has
// elapsed.
func (c *SimClock) AfterFunc(d time.Duration, f func()) Handle {
	t := c.NewTimer(f)
	t.Reset(c.Now().Add(d))
	return t
}

// NewTimer returns an unarmed timer whose one heap node every Reset
// re-uses.
func (c *SimClock) NewTimer(f func()) Timer {
	ft := &simFuncTimer{c: c, f: f}
	ft.t.fire = ft.spawn
	return ft
}

// simFuncTimer spawns f as an actor whenever its node comes due.
type simFuncTimer struct {
	c *SimClock
	f func()
	t simTimer
}

func (ft *simFuncTimer) spawn() { ft.c.spawnLocked(ft.f) }

func (ft *simFuncTimer) Reset(at time.Time) {
	c := ft.c
	c.mu.Lock()
	c.armLocked(&ft.t, int64(at.Sub(c.start)))
	c.mu.Unlock()
}

func (ft *simFuncTimer) Stop() bool {
	c := ft.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if ft.t.pos == 0 {
		return false
	}
	heap.Remove(&c.timers, ft.t.pos-1)
	return true
}

// NewGate returns a one-shot gate bound to this clock.
func (c *SimClock) NewGate() Gate { return &simGate{c: c, ch: make(chan struct{})} }

type simGate struct {
	c       *SimClock
	opened  bool
	waiters int
	ch      chan struct{}
}

func (g *simGate) Wait() {
	g.c.mu.Lock()
	if g.opened {
		g.c.mu.Unlock()
		return
	}
	g.waiters++
	g.c.blockLocked()
	g.c.mu.Unlock()
	<-g.ch
}

func (g *simGate) Open() {
	g.c.mu.Lock()
	if !g.opened {
		g.opened = true
		g.c.runnable += g.waiters
		g.waiters = 0
		close(g.ch)
	}
	g.c.mu.Unlock()
}

func (g *simGate) Opened() bool {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	return g.opened
}

// NewStopper returns a cancellation source bound to this clock.
func (c *SimClock) NewStopper() Stopper { return &simStopper{c: c} }

type simStopper struct {
	c       *SimClock
	stopped bool
	waiters []*stopWaiter
}

type stopWaiter struct {
	t      simTimer
	ch     chan struct{}
	result *bool
}

func (s *simStopper) Stop() {
	s.c.mu.Lock()
	if !s.stopped {
		s.stopped = true
		for _, w := range s.waiters {
			if w.t.pos > 0 {
				heap.Remove(&s.c.timers, w.t.pos-1)
			}
			*w.result = false
			s.c.runnable++
			close(w.ch)
		}
		s.waiters = nil
	}
	s.c.mu.Unlock()
}

func (s *simStopper) Stopped() bool {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.stopped
}

// SleepOrStop sleeps for d of virtual time, returning early with false if
// s is stopped first.
func (c *SimClock) SleepOrStop(st Stopper, d time.Duration) bool {
	s, ok := st.(*simStopper)
	if !ok || s.c != c {
		panic("simtime: stopper from a different clock")
	}
	c.mu.Lock()
	if s.stopped {
		c.mu.Unlock()
		return false
	}
	if d <= 0 {
		c.mu.Unlock()
		return true
	}
	result := true
	ch := make(chan struct{})
	w := &stopWaiter{ch: ch, result: &result}
	w.t.fire = func() {
		c.runnable++
		s.unwatchLocked(w)
		close(ch)
	}
	c.armLocked(&w.t, c.now.Load()+int64(d))
	s.waiters = append(s.waiters, w)
	c.blockLocked()
	c.mu.Unlock()
	<-ch
	return result
}

func (s *simStopper) unwatchLocked(w *stopWaiter) {
	for i, x := range s.waiters {
		if x == w {
			last := len(s.waiters) - 1
			s.waiters[i] = s.waiters[last]
			s.waiters = s.waiters[:last]
			return
		}
	}
}

// --- internals -------------------------------------------------------

// spawnLocked starts f as a tracked actor, on a parked goroutine when
// there is one. Caller holds mu.
func (c *SimClock) spawnLocked(f func()) {
	c.actors++
	c.runnable++
	if n := len(c.idle) - 1; n >= 0 {
		k := c.idle[n]
		c.idle = c.idle[:n]
		k <- f
		return
	}
	go c.carry(f)
}

// carry is the body of every actor goroutine: it runs f, then every
// function handed to it while parked, until the end of the Run closes k.
func (c *SimClock) carry(f func()) {
	k := make(chan func(), 1) // holds at most the one hand-off to a parked carry
	for ok := true; ok; f, ok = <-k {
		if !c.runActor(f, k) {
			return
		}
	}
}

// runActor runs f as an actor and records its end: if it was the last
// runnable one, time advances so blocked peers can make progress. The
// accounting sits in a defer so that an f ending in runtime.Goexit
// (t.FailNow) is still counted out; only an f that returned parks its
// goroutine on k, and it parks before time advances so that a timer
// fired by this very exit finds it.
func (c *SimClock) runActor(f func(), k chan func()) (parked bool) {
	returned := false
	defer func() {
		c.mu.Lock()
		c.actors--
		c.runnable--
		if returned && c.quiesce != nil && len(c.idle) < maxIdle {
			c.idle = append(c.idle, k)
			parked = true
		}
		c.maybeAdvanceLocked()
		if c.actors == 0 && len(c.timers) == 0 && c.quiesce != nil {
			c.endRunLocked() // quiesced: nothing left to run or to wait for
		}
		c.mu.Unlock()
	}()
	f()
	returned = true
	return
}

// endRunLocked wakes Run and releases every parked goroutine, so none
// outlives the Run that pooled it.
func (c *SimClock) endRunLocked() {
	close(c.quiesce)
	c.quiesce = nil
	for _, k := range c.idle {
		close(k)
	}
	c.idle = nil
}

// blockLocked marks the calling actor as blocked and advances virtual
// time if it was the last runnable one. Caller holds mu and must block on
// its wake channel after releasing it.
func (c *SimClock) blockLocked() {
	c.runnable--
	c.maybeAdvanceLocked()
}

// maybeAdvanceLocked fires due timers, jumping virtual time forward,
// until at least one actor is runnable again (or the simulation has fully
// quiesced). When every actor is blocked with no pending timer — a
// genuine deadlock in the simulated program — it poisons the clock; the
// active Run call then panics in its caller with a diagnostic. The
// deadlocked actors are left parked, as there is no safe way to unwind
// them.
//
// Time stands still while no Run is active: the population is still
// being assembled (or handed over between Runs) from outside the
// simulation, so an actor that blocks then — whether or not timers are
// pending — is waiting for setup to continue, and must neither start
// the simulation early nor count as deadlocked. The check re-arms on
// the next block or exit once Run has started.
func (c *SimClock) maybeAdvanceLocked() {
	if c.deadlock != "" || c.quiesce == nil {
		return
	}
	for c.runnable == 0 {
		if len(c.timers) == 0 {
			if c.actors == 0 {
				return
			}
			c.deadlock = fmt.Sprintf(
				"simtime: deadlock — %d actor(s) blocked with no pending timers at %s",
				c.actors, c.Now().Format(time.RFC3339Nano))
			c.endRunLocked()
			return
		}
		t := heap.Pop(&c.timers).(*simTimer)
		if t.when > c.now.Load() {
			c.now.Store(t.when)
		}
		t.fire()
	}
}

// armLocked queues t to fire at when (ns since start), moving it if it
// is already pending. Every arming takes a fresh seq, so equal
// deadlines fire in the order they were armed.
func (c *SimClock) armLocked(t *simTimer, when int64) {
	c.seq++
	t.when, t.seq = when, c.seq
	if t.pos > 0 {
		heap.Fix(&c.timers, t.pos-1)
	} else {
		heap.Push(&c.timers, t)
	}
}

// simTimer is a timer-heap node, embedded in whatever waits on it.
type simTimer struct {
	when int64  // ns since the clock's start
	seq  uint64 // FIFO tie-break for equal deadlines
	fire func() // invoked with the clock mutex held; must not block
	pos  int    // heap index + 1; 0 while not in the heap
}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	*h = append(*h, t)
	t.pos = len(*h)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.pos = 0
	*h = old[:n-1]
	return t
}
