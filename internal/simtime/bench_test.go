package simtime

import (
	"testing"
	"time"
)

// The per-layer microbenchmarks of the simulated clock: what one actor
// start, one timer re-arm and one sleep cost, with allocations.
//
//	go test -run '^$' -bench . -benchmem -count 5 ./internal/simtime

// BenchmarkSimClockGo is one short-lived actor, start to end: Go, the
// function, the exit accounting, and the Sleep the root needs for the
// clock to see it through.
func BenchmarkSimClockGo(b *testing.B) {
	c := NewSimDefault()
	nop := func() {}
	b.ReportAllocs()
	c.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Go(nop)
			c.Sleep(time.Nanosecond)
		}
	})
}

// BenchmarkSimTimerRearm moves one pending timer, the scheduler's
// operation whenever its heap's head changes.
func BenchmarkSimTimerRearm(b *testing.B) {
	c := NewSimDefault()
	tm := c.NewTimer(func() {})
	at := c.Now().Add(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Second)
		tm.Reset(at)
	}
	b.StopTimer()
	tm.Stop()
}

// BenchmarkSimSleep is one Sleep of the only actor: arm, advance, wake.
func BenchmarkSimSleep(b *testing.B) {
	c := NewSimDefault()
	b.ReportAllocs()
	c.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Sleep(time.Millisecond)
		}
	})
}
