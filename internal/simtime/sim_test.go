package simtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	c := NewSimDefault()
	var elapsed time.Duration
	wall := time.Now()
	c.Run(func() {
		start := c.Now()
		c.Sleep(42 * time.Minute)
		elapsed = c.Since(start)
	})
	if elapsed != 42*time.Minute {
		t.Fatalf("virtual elapsed = %v, want 42m", elapsed)
	}
	if real := time.Since(wall); real > 5*time.Second {
		t.Fatalf("42 virtual minutes took %v of wall time", real)
	}
}

func TestSimSleepZeroAndNegative(t *testing.T) {
	c := NewSimDefault()
	c.Run(func() {
		before := c.Now()
		c.Sleep(0)
		c.Sleep(-time.Hour)
		if !c.Now().Equal(before) {
			t.Errorf("zero/negative sleep moved time from %v to %v", before, c.Now())
		}
	})
}

func TestSimTimerOrdering(t *testing.T) {
	c := NewSimDefault()
	var mu sync.Mutex
	var order []int
	c.Run(func() {
		g := c.NewGate()
		var remaining atomic.Int32
		remaining.Store(3)
		for i, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
			i, d := i, d
			c.Go(func() {
				c.Sleep(d)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				if remaining.Add(-1) == 0 {
					g.Open()
				}
			})
		}
		g.Wait()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestSimAfterFunc(t *testing.T) {
	c := NewSimDefault()
	var at time.Time
	start := c.Now()
	c.Run(func() {
		g := c.NewGate()
		c.AfterFunc(90*time.Second, func() {
			at = c.Now()
			g.Open()
		})
		g.Wait()
	})
	if got := at.Sub(start); got != 90*time.Second {
		t.Fatalf("AfterFunc fired after %v, want 90s", got)
	}
}

func TestSimAfterFuncStop(t *testing.T) {
	c := NewSimDefault()
	var fired atomic.Bool
	c.Run(func() {
		h := c.AfterFunc(time.Hour, func() { fired.Store(true) })
		if !h.Stop() {
			t.Error("Stop before firing should report true")
		}
		if h.Stop() {
			t.Error("second Stop should report false")
		}
		c.Sleep(2 * time.Hour)
	})
	if fired.Load() {
		t.Fatal("cancelled AfterFunc fired")
	}
}

func TestSimGateReleasesMultipleWaiters(t *testing.T) {
	c := NewSimDefault()
	var woken atomic.Int32
	c.Run(func() {
		g := c.NewGate()
		all := c.NewGate()
		var remaining atomic.Int32
		remaining.Store(5)
		for i := 0; i < 5; i++ {
			c.Go(func() {
				g.Wait()
				woken.Add(1)
				if remaining.Add(-1) == 0 {
					all.Open()
				}
			})
		}
		c.Sleep(10 * time.Second)
		if g.Opened() {
			t.Error("gate reported open before Open")
		}
		g.Open()
		if !g.Opened() {
			t.Error("gate reported closed after Open")
		}
		all.Wait()
	})
	if woken.Load() != 5 {
		t.Fatalf("woken = %d, want 5", woken.Load())
	}
}

func TestSimGateOpenBeforeWait(t *testing.T) {
	c := NewSimDefault()
	c.Run(func() {
		g := c.NewGate()
		g.Open()
		g.Open() // double-open is a no-op
		g.Wait() // must not block
	})
}

func TestSimSleepOrStop(t *testing.T) {
	c := NewSimDefault()
	var full, cut bool
	var cutElapsed time.Duration
	c.Run(func() {
		s := c.NewStopper()
		full = c.SleepOrStop(s, time.Second)

		done := c.NewGate()
		c.Go(func() {
			start := c.Now()
			cut = c.SleepOrStop(s, time.Hour)
			cutElapsed = c.Since(start)
			done.Open()
		})
		c.Sleep(time.Minute)
		s.Stop()
		done.Wait()

		if !s.Stopped() {
			t.Error("Stopped() = false after Stop")
		}
		if got := c.SleepOrStop(s, time.Hour); got {
			t.Error("SleepOrStop on stopped stopper returned true")
		}
	})
	if !full {
		t.Error("uninterrupted SleepOrStop returned false")
	}
	if cut {
		t.Error("interrupted SleepOrStop returned true")
	}
	if cutElapsed != time.Minute {
		t.Errorf("interrupted sleep lasted %v, want 1m", cutElapsed)
	}
}

func TestSimStopperIdempotentStop(t *testing.T) {
	c := NewSimDefault()
	c.Run(func() {
		s := c.NewStopper()
		s.Stop()
		s.Stop()
		if !s.Stopped() {
			t.Error("Stopped() = false")
		}
	})
}

func TestSimRunWaitsForSpawnedActors(t *testing.T) {
	c := NewSimDefault()
	var leafDone atomic.Bool
	c.Run(func() {
		c.Go(func() {
			c.Sleep(10 * time.Minute)
			c.Go(func() {
				c.Sleep(10 * time.Minute)
				leafDone.Store(true)
			})
		})
	})
	if !leafDone.Load() {
		t.Fatal("Run returned before transitively spawned actor finished")
	}
}

func TestSimManyActorsStatistics(t *testing.T) {
	// A crowd of actors with staggered sleeps must all observe
	// consistent virtual time.
	c := NewSimDefault()
	start := c.Now()
	var maxSeen atomic.Int64
	c.Run(func() {
		for i := 1; i <= 200; i++ {
			d := time.Duration(i) * time.Second
			c.Go(func() {
				c.Sleep(d)
				e := int64(c.Since(start))
				for {
					cur := maxSeen.Load()
					if e <= cur || maxSeen.CompareAndSwap(cur, e) {
						break
					}
				}
				if int64(d) > e {
					t.Errorf("woke early: slept %v but only %v elapsed", d, time.Duration(e))
				}
			})
		}
	})
	if got := time.Duration(maxSeen.Load()); got != 200*time.Second {
		t.Fatalf("final elapsed = %v, want 200s", got)
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	c := NewSimDefault()
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Run(func() {
			g := c.NewGate()
			g.Wait() // nobody will ever open this
		})
		panicked <- nil
	}()
	select {
	case v := <-panicked:
		if v == nil {
			t.Fatal("expected deadlock panic, Run returned normally")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock not detected within 5s")
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	start := c.Now()
	c.Sleep(10 * time.Millisecond)
	if c.Since(start) < 10*time.Millisecond {
		t.Error("Sleep returned early")
	}

	g := c.NewGate()
	c.Go(func() { g.Open() })
	g.Wait()
	if !g.Opened() {
		t.Error("gate not opened")
	}

	s := c.NewStopper()
	if !c.SleepOrStop(s, time.Millisecond) {
		t.Error("uninterrupted SleepOrStop = false")
	}
	done := make(chan bool, 1)
	c.Go(func() { done <- c.SleepOrStop(s, time.Minute) })
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	if v := <-done; v {
		t.Error("interrupted SleepOrStop = true")
	}
	c.Wait()
}

func TestRealAfterFuncStop(t *testing.T) {
	c := NewReal()
	var fired atomic.Bool
	h := c.AfterFunc(time.Hour, func() { fired.Store(true) })
	if !h.Stop() {
		t.Error("Stop before fire = false")
	}
	c.Wait()
	if fired.Load() {
		t.Error("cancelled AfterFunc fired")
	}

	g := c.NewGate()
	c.AfterFunc(time.Millisecond, func() { g.Open() })
	g.Wait()
	c.Wait()
}

func TestSimSequentialRuns(t *testing.T) {
	c := NewSimDefault()
	for i := 0; i < 3; i++ {
		c.Run(func() { c.Sleep(time.Hour) })
	}
	if got := c.Since(DefaultStart); got != 3*time.Hour {
		t.Fatalf("after 3 runs elapsed %v, want 3h", got)
	}
}
