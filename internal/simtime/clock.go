// Package simtime provides an abstraction over time that lets the same
// networking code run either against the real wall clock or inside a
// discrete-event simulation whose virtual clock jumps instantly across
// idle periods.
//
// The IFTTT engine that this repository models polls trigger services on
// the order of minutes, and the paper's controlled experiments span days.
// Running those experiments in tests and benchmarks therefore requires a
// virtual clock. The design follows the synctest idea: the simulated
// clock tracks a population of actor goroutines and advances virtual time
// only when every actor is blocked in a clock primitive, jumping straight
// to the earliest pending timer.
//
// Rules for simulated mode:
//
//   - Every goroutine that participates in simulated time must be started
//     through Clock.Go, Clock.AfterFunc, a Timer, or be the function
//     passed to SimClock.Run.
//   - Actors must block only through clock primitives (Sleep, Gate.Wait,
//     SleepOrStop). Blocking on a bare channel that is fed by another
//     actor at a later virtual instant deadlocks the simulation; use a
//     Gate instead.
//
// An actor is a function, not a goroutine: while a Run is active the
// simulated clock parks a finished actor's goroutine and hands it the
// next function to start, so short-lived actors run on warm stacks. A
// parked goroutine counts neither as an actor nor as runnable, and is
// released when Run returns; outside Run nothing is parked.
//
// RealClock has no such restrictions; all primitives degrade to their
// time and sync counterparts.
package simtime

import "time"

// Clock abstracts time for code that must run both live and simulated.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current (virtual or wall) time.
	Now() time.Time

	// Sleep pauses the calling actor for d. Non-positive d yields
	// immediately.
	Sleep(d time.Duration)

	// Go runs f concurrently as an actor of this clock.
	Go(f func())

	// AfterFunc arranges for f to run as a new actor once d has elapsed.
	// The returned handle can cancel the call before it fires.
	AfterFunc(d time.Duration, f func()) Handle

	// NewGate returns a one-shot synchronization point usable by actors
	// of this clock.
	NewGate() Gate

	// NewStopper returns a cancellation source usable with SleepOrStop.
	NewStopper() Stopper

	// SleepOrStop sleeps for d but returns early, with false, if s is
	// stopped first. It returns true when the full duration elapsed.
	SleepOrStop(s Stopper, d time.Duration) bool

	// NewTimer returns an unarmed re-armable timer that runs f as a new
	// actor each time it comes due.
	NewTimer(f func()) Timer

	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Handle cancels a pending AfterFunc.
type Handle interface {
	// Stop cancels the call if it has not started yet and reports
	// whether it was cancelled.
	Stop() bool
}

// Gate is a one-shot event: any number of actors may Wait and any actor
// may Open exactly once. Wait returns immediately if the gate is already
// open. Gates are the only sanctioned way for one actor to unblock
// another under a simulated clock.
type Gate interface {
	// Wait blocks the calling actor until the gate opens.
	Wait()
	// Open releases all current and future waiters. Opening an open
	// gate is a no-op.
	Open()
	// Opened reports whether the gate has been opened.
	Opened() bool
}

// Timer is a re-armable AfterFunc: every time it comes due, the function
// it was created with runs as a new actor. It is the primitive behind
// timer-heap scheduling: a scheduler keeps one Timer on the head of its
// heap and moves it with Reset, so nothing is allocated per deadline.
// The caller serialises Reset and Stop (a scheduler calls both under
// its own lock); the fired function runs outside that, like any actor.
type Timer interface {
	// Reset arms the timer for the absolute instant t, replacing any
	// deadline still pending. An instant that is not in the future
	// fires as soon as the clock can run it: on the simulated clock
	// once every actor is blocked, before time moves on; on RealClock
	// at once, on a goroutine of its own, so that such a firing has
	// already started (and Stop returns false) when Reset returns.
	Reset(t time.Time)
	// Stop disarms the timer and reports whether a deadline was
	// pending. A stopped timer holds nothing of the clock: it does not
	// keep a simulation from quiescing or RealClock.Wait from returning.
	Stop() bool
}

// Stopper is a cancellation source for SleepOrStop. It is analogous to a
// context's Done channel but integrates with the virtual scheduler.
type Stopper interface {
	// Stop wakes all sleepers attached to this stopper. Stopping twice
	// is a no-op.
	Stop()
	// Stopped reports whether Stop has been called.
	Stopped() bool
}
