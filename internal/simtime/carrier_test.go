package simtime

import (
	"runtime"
	"testing"
	"time"
)

// counters reads the clock's actor accounting.
func (c *SimClock) counters() (actors, runnable, idle int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actors, c.runnable, len(c.idle)
}

// waitGoroutines waits for the goroutine count to fall back to want:
// released goroutines end asynchronously.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: parked actor goroutines outlived Run", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// An actor that ends in runtime.Goexit — what t.FailNow does — is
// still counted out, so the simulation neither hangs nor deadlocks, and
// its goroutine is not parked for reuse (it is gone).
func TestSimActorGoexitKeepsAccounting(t *testing.T) {
	c := NewSimDefault()
	ran := 0
	c.Run(func() {
		for i := 0; i < 3; i++ {
			c.Go(func() {
				c.Sleep(time.Second)
				runtime.Goexit()
			})
		}
		c.Sleep(2 * time.Second)
		// The clock still works after the three left.
		c.Go(func() { ran++ })
		c.Sleep(time.Second)
	})
	if ran != 1 {
		t.Errorf("actor started after the Goexits ran %d times, want 1", ran)
	}
	if a, r, idle := c.counters(); a != 0 || r != 0 || idle != 0 {
		t.Errorf("after Run: actors %d runnable %d parked %d, want all 0", a, r, idle)
	}
	// Goexit of the root actor ends the Run the same way.
	c2 := NewSimDefault()
	c2.Run(func() { runtime.Goexit() })
	if a, r, _ := c2.counters(); a != 0 || r != 0 {
		t.Errorf("after a root Goexit: actors %d runnable %d, want 0 0", a, r)
	}
}

// Goroutines are reused while a Run is active and all released when it
// returns.
func TestSimParkedGoroutinesReleasedByRun(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewSimDefault()
	peak := 0
	c.Run(func() {
		for round := 0; round < 50; round++ {
			for i := 0; i < 8; i++ {
				c.Go(func() { c.Sleep(time.Millisecond) })
			}
			c.Sleep(time.Second)
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
		if _, _, idle := c.counters(); idle == 0 {
			t.Error("no goroutine parked after 400 short actors")
		}
	})
	// 400 actors, 8 at a time: reuse keeps the count at the concurrency,
	// not the total (the slack covers the runtime's own goroutines).
	if peak > before+8+4 {
		t.Errorf("goroutines peaked at %d (from %d) for 8 concurrent actors", peak, before)
	}
	if _, _, idle := c.counters(); idle != 0 {
		t.Errorf("%d goroutines still parked after Run", idle)
	}
	waitGoroutines(t, before)
}

// Outside Run nothing is pooled: Go starts a plain goroutine that ends
// with its function.
func TestSimGoOutsideRunIsPlainGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewSimDefault()
	done := make(chan struct{})
	c.Go(func() { close(done) })
	<-done
	waitGoroutines(t, before)
	if a, r, idle := c.counters(); a != 0 || r != 0 || idle != 0 {
		t.Errorf("after a pre-Run actor: actors %d runnable %d parked %d, want all 0", a, r, idle)
	}
	c.Run(func() {}) // the clock is still usable
}

// Time stands still outside Run: an actor that blocks while the
// population is being assembled must not start the simulation, however
// many timers are already pending.
func TestSimNoAdvanceOutsideRun(t *testing.T) {
	c := NewSimDefault()
	start := c.Now()
	fired := 0
	tm := c.NewTimer(func() { fired++ })
	tm.Reset(start.Add(time.Second))
	parked := make(chan struct{})
	c.Go(func() {
		close(parked)
		c.Sleep(time.Minute)
	})
	<-parked
	time.Sleep(20 * time.Millisecond) // real time for the actor to block
	if got := c.Since(start); got != 0 || fired != 0 {
		t.Fatalf("before Run: clock at +%v, timer fired %d times", got, fired)
	}
	c.Run(func() {})
	if got := c.Since(start); got != time.Minute || fired != 1 {
		t.Errorf("after Run: clock at +%v, timer fired %d times, want +1m and 1", got, fired)
	}
}
