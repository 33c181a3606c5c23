package simtime

import (
	"container/heap"
	"testing"
	"time"
)

func TestSimTimerDeadline(t *testing.T) {
	c := NewSimDefault()
	var firedAt []time.Duration
	start := c.Now()
	tm := c.NewTimer(func() { firedAt = append(firedAt, c.Since(start)) })
	c.Run(func() {
		tm.Reset(start.Add(5 * time.Second))
		c.Sleep(10 * time.Second)
		// A deadline already in the past fires as soon as every actor
		// has blocked, without moving time back.
		tm.Reset(start)
		c.Sleep(time.Second)
	})
	if len(firedAt) != 2 || firedAt[0] != 5*time.Second || firedAt[1] != 10*time.Second {
		t.Errorf("fired at %v, want [5s 10s]", firedAt)
	}
}

func TestSimTimerResetEarlier(t *testing.T) {
	c := NewSimDefault()
	start := c.Now()
	var firedAt []time.Duration
	tm := c.NewTimer(func() { firedAt = append(firedAt, c.Since(start)) })
	c.Run(func() {
		tm.Reset(start.Add(time.Hour))
		c.Sleep(time.Second)
		tm.Reset(start.Add(2 * time.Second)) // moves the pending deadline, adds none
	})
	// Run returned at quiescence: the hour-long deadline was replaced,
	// not left behind to keep the simulation alive.
	if len(firedAt) != 1 || firedAt[0] != 2*time.Second {
		t.Errorf("fired at %v, want [2s]", firedAt)
	}
	if got := c.Since(start); got != 2*time.Second {
		t.Errorf("simulation ended at +%v, want +2s", got)
	}
}

func TestSimTimerStop(t *testing.T) {
	c := NewSimDefault()
	start := c.Now()
	fired := 0
	tm := c.NewTimer(func() { fired++ })
	if tm.Stop() {
		t.Error("Stop of a never-armed timer reported a pending deadline")
	}
	c.Run(func() {
		tm.Reset(start.Add(time.Hour))
		c.Sleep(time.Second)
		if !tm.Stop() {
			t.Error("Stop of an armed timer reported nothing pending")
		}
		if tm.Stop() {
			t.Error("second Stop reported a pending deadline")
		}
	})
	if fired != 0 {
		t.Errorf("stopped timer fired %d times", fired)
	}
	if got := c.Since(start); got != time.Second {
		t.Errorf("a stopped timer kept the simulation alive until +%v", got)
	}
}

func TestSimTimerReuse(t *testing.T) {
	c := NewSimDefault()
	start := c.Now()
	var tm Timer
	fired := 0
	tm = c.NewTimer(func() {
		// The scheduler's pattern: the fired actor re-arms its own timer.
		if fired++; fired < 5 {
			tm.Reset(c.Now().Add(time.Second))
		}
	})
	c.Run(func() { tm.Reset(start.Add(time.Second)) })
	if fired != 5 {
		t.Errorf("fired %d times, want 5", fired)
	}
	if got := c.Since(start); got != 5*time.Second {
		t.Errorf("five one-second rounds ended at +%v", got)
	}
}

// Equal deadlines fire in the order they were armed, re-arming included.
func TestSimTimerEqualDeadlinesFIFO(t *testing.T) {
	c := NewSimDefault()
	at := c.Now().Add(time.Second)
	a, b, d := c.NewTimer(func() {}), c.NewTimer(func() {}), c.NewTimer(func() {})
	a.Reset(at)
	b.Reset(at)
	d.Reset(at)
	a.Reset(at) // re-armed last: now behind b and d
	want := []*simTimer{&b.(*simFuncTimer).t, &d.(*simFuncTimer).t, &a.(*simFuncTimer).t}
	for i, n := range want {
		if got := heap.Pop(&c.timers).(*simTimer); got != n {
			t.Fatalf("pop %d: got the timer armed as seq %d, want seq %d", i, got.seq, n.seq)
		}
	}
}

func TestSimTimerRearmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	c := NewSimDefault()
	c.Run(func() {
		tm := c.NewTimer(func() {})
		at := c.Now().Add(time.Hour)
		if n := testing.AllocsPerRun(200, func() {
			at = at.Add(time.Second)
			tm.Reset(at)
		}); n != 0 {
			t.Errorf("re-arming a pending timer allocates %.1f/op, want 0", n)
		}
		tm.Stop()
		// The whole cycle — arm, come due, start the actor on a parked
		// goroutine, end it — allocates nothing either once warm.
		if n := testing.AllocsPerRun(200, func() {
			tm.Reset(c.Now().Add(time.Millisecond))
			c.Sleep(2 * time.Millisecond)
		}); n > 0.1 {
			t.Errorf("arm + fire + sleep allocates %.2f/op, want 0", n)
		}
	})
}

func TestSimSleepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by the race detector")
	}
	c := NewSimDefault()
	c.Run(func() {
		if n := testing.AllocsPerRun(200, func() { c.Sleep(time.Millisecond) }); n > 1 {
			t.Errorf("Sleep allocates %.2f/op, want <= 1", n)
		}
	})
}

func TestRealTimer(t *testing.T) {
	c := NewReal()
	fired := make(chan struct{}, 4)
	tm := c.NewTimer(func() { fired <- struct{}{} })
	if tm.Stop() {
		t.Error("Stop of a never-armed real timer reported a pending deadline")
	}
	tm.Reset(time.Now().Add(time.Millisecond))
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
	// Re-armed far out, pulled in: one firing, and Wait joins it.
	tm.Reset(time.Now().Add(time.Hour))
	tm.Reset(time.Now().Add(time.Millisecond))
	c.Wait()
	select {
	case <-fired:
	default:
		t.Fatal("Wait returned before the pending firing ran")
	}
	// A stopped timer holds nothing: Wait returns at once.
	tm.Reset(time.Now().Add(time.Hour))
	if !tm.Stop() {
		t.Error("Stop of an armed real timer reported nothing pending")
	}
	waited := make(chan struct{})
	go func() { c.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked on a stopped timer")
	}
	select {
	case <-fired:
		t.Error("stopped real timer fired")
	default:
	}
}
