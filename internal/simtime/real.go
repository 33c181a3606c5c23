package simtime

import (
	"sync"
	"time"
)

// RealClock implements Clock using the wall clock. The zero value is
// ready to use. Goroutines started through Go or AfterFunc are tracked so
// that Wait can join them during shutdown.
type RealClock struct {
	wg sync.WaitGroup
}

// NewReal returns a wall-clock implementation of Clock.
func NewReal() *RealClock { return &RealClock{} }

// Now returns the current wall time.
func (c *RealClock) Now() time.Time { return time.Now() }

// Sleep pauses the calling goroutine for d.
func (c *RealClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Since returns the wall time elapsed since t.
func (c *RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Go runs f on a new goroutine tracked by Wait.
func (c *RealClock) Go(f func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		f()
	}()
}

// AfterFunc runs f on a new goroutine after d.
func (c *RealClock) AfterFunc(d time.Duration, f func()) Handle {
	t := c.NewTimer(f)
	t.Reset(time.Now().Add(d))
	return t
}

// Wait blocks until every goroutine started via Go or AfterFunc has
// finished (cancelled AfterFuncs count as finished).
func (c *RealClock) Wait() { c.wg.Wait() }

// NewGate returns a channel-backed one-shot gate.
func (c *RealClock) NewGate() Gate {
	return &realGate{ch: make(chan struct{})}
}

type realGate struct {
	once sync.Once
	ch   chan struct{}
}

func (g *realGate) Wait() { <-g.ch }

func (g *realGate) Open() { g.once.Do(func() { close(g.ch) }) }

func (g *realGate) Opened() bool {
	select {
	case <-g.ch:
		return true
	default:
		return false
	}
}

// NewTimer returns an unarmed timer over one time.AfterFunc timer that
// Reset moves; a pending deadline counts as a goroutine Wait joins.
func (c *RealClock) NewTimer(f func()) Timer {
	return &realTimer{c: c, f: f}
}

type realTimer struct {
	c *RealClock
	f func()
	t *time.Timer // created by the first Reset
}

func (rt *realTimer) run() {
	defer rt.c.wg.Done()
	rt.f()
}

func (rt *realTimer) Reset(at time.Time) {
	rt.c.wg.Add(1)
	if rt.t == nil {
		rt.t = time.AfterFunc(time.Until(at), rt.run)
	} else if rt.t.Reset(time.Until(at)) {
		rt.c.wg.Done() // the pending firing was moved, not added
	}
}

func (rt *realTimer) Stop() bool {
	if rt.t == nil || !rt.t.Stop() {
		return false
	}
	rt.c.wg.Done()
	return true
}

// NewStopper returns a channel-backed cancellation source.
func (c *RealClock) NewStopper() Stopper {
	return &realGate{ch: make(chan struct{})}
}

func (g *realGate) Stop()         { g.Open() }
func (g *realGate) Stopped() bool { return g.Opened() }

// SleepOrStop sleeps for d, returning early with false if s is stopped.
func (c *RealClock) SleepOrStop(s Stopper, d time.Duration) bool {
	g, ok := s.(*realGate)
	if !ok {
		panic("simtime: stopper from a different clock")
	}
	if d <= 0 {
		select {
		case <-g.ch:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-g.ch:
		return false
	}
}
