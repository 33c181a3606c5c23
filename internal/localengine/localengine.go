// Package localengine implements the §6 "Distributed Applet Execution"
// proposal: a local IFTTT engine running on a home device (smartphone,
// tablet, or the gateway itself) that executes applets whose trigger and
// action both live in the home — event-driven over the LAN, with no
// cloud polling at all — plus a hybrid supervisor that places each
// applet locally when possible and fails over to the centralized cloud
// engine when the local engine goes down.
//
// The ablation benchmark compares trigger-to-action latency of the same
// applet executed by the cloud engine (minutes, polling-dominated) and
// by the local engine (milliseconds, push-driven).
package localengine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/devices"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// Rule is a locally executable applet: a predicate over device events
// and an action against local devices.
type Rule struct {
	// ID mirrors the cloud applet ID so the supervisor can swap
	// placements.
	ID string
	// Match selects the triggering events.
	Match func(devices.Event) bool
	// Execute performs the action; the event supplies ingredients.
	Execute func(devices.Event) error
}

// Stats counts local executions.
type Stats struct {
	Executions int64
	Failures   int64
}

// Engine is the local TAP engine. It is event-driven: device events are
// matched against installed rules and actions run after one LAN-scale
// delay — no polling loop exists.
type Engine struct {
	clock simtime.Clock
	// delay models the LAN hop between event, engine, and device.
	delay stats.Dist

	mu    sync.Mutex
	rng   *stats.RNG
	rules map[string]*Rule
	down  bool
	stats Stats
}

// New creates a local engine. delay is the one-way LAN latency in
// seconds (nil = instantaneous).
func New(clock simtime.Clock, delay stats.Dist, rng *stats.RNG) *Engine {
	return &Engine{
		clock: clock,
		delay: delay,
		rng:   rng,
		rules: make(map[string]*Rule),
	}
}

// Attach subscribes the engine to a device bus; call once per device.
func (e *Engine) Attach(bus interface{ Subscribe(func(devices.Event)) }) {
	bus.Subscribe(e.onEvent)
}

// Install adds a rule. Duplicate IDs error.
func (e *Engine) Install(r Rule) error {
	if r.ID == "" || r.Match == nil || r.Execute == nil {
		return fmt.Errorf("localengine: rule needs ID, Match and Execute")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.ID]; dup {
		return fmt.Errorf("localengine: rule %q already installed", r.ID)
	}
	rc := r
	e.rules[r.ID] = &rc
	return nil
}

// Remove deletes a rule; removing an absent rule is a no-op.
func (e *Engine) Remove(id string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.rules, id)
}

// SetDown simulates the local engine failing (or recovering); while
// down it drops events, which is what the hybrid supervisor detects.
func (e *Engine) SetDown(down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.down = down
}

// Healthy reports whether the engine answers health checks.
func (e *Engine) Healthy() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.down
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Engine) onEvent(ev devices.Event) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return
	}
	var matched []*Rule
	for _, r := range e.rules {
		if r.Match(ev) {
			matched = append(matched, r)
		}
	}
	var d time.Duration
	if e.delay != nil {
		d = stats.SampleDuration(e.delay, e.rng)
	}
	e.mu.Unlock()

	for _, r := range matched {
		e.clock.AfterFunc(d, func() {
			// The rule may have been removed while the event was in
			// flight.
			e.mu.Lock()
			_, live := e.rules[r.ID]
			down := e.down
			e.mu.Unlock()
			if !live || down {
				return
			}
			err := r.Execute(ev)
			e.mu.Lock()
			if err != nil {
				e.stats.Failures++
			} else {
				e.stats.Executions++
			}
			e.mu.Unlock()
		})
	}
}

// Placement says where an applet runs.
type Placement int

// Placements.
const (
	PlaceLocal Placement = iota
	PlaceCloud
)

func (p Placement) String() string {
	if p == PlaceLocal {
		return "local"
	}
	return "cloud"
}

// Plan decides placement: local iff both the trigger and the action
// belong to services the home can serve without the cloud.
func Plan(a engine.Applet, localServices map[string]bool) Placement {
	if localServices[a.Trigger.Service] && localServices[a.Action.Service] {
		return PlaceLocal
	}
	return PlaceCloud
}

// Supervisor runs one applet in the hybrid scheme: locally while the
// local engine is healthy, failing over to the cloud engine when health
// checks fail, and migrating back on recovery.
type Supervisor struct {
	clock    simtime.Clock
	local    *Engine
	cloud    *engine.Engine
	interval time.Duration

	applet engine.Applet
	rule   Rule

	mu        sync.Mutex
	placement Placement
	stopped   bool
	stopper   simtime.Stopper
	// transitions counts placement changes, for tests and benches.
	transitions int
}

// NewSupervisor creates (but does not start) a supervisor. interval is
// the health-check period.
func NewSupervisor(clock simtime.Clock, local *Engine, cloud *engine.Engine, interval time.Duration, a engine.Applet, r Rule) *Supervisor {
	return &Supervisor{
		clock: clock, local: local, cloud: cloud, interval: interval,
		applet: a, rule: r, placement: -1,
	}
}

// Start installs the applet at its initial placement and begins health
// checking. Must run on the supervisor clock's actor domain.
func (s *Supervisor) Start() error {
	if err := s.reconcile(); err != nil {
		return err
	}
	s.clock.Go(s.loop)
	return nil
}

// Placement reports where the applet currently runs.
func (s *Supervisor) Placement() Placement {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placement
}

// Transitions reports how many placement changes have happened.
func (s *Supervisor) Transitions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.transitions
}

// Stop halts supervision, leaving the applet at its current placement.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopped = true
	st := s.stopper
	s.mu.Unlock()
	if st != nil {
		st.Stop()
	}
}

func (s *Supervisor) loop() {
	for {
		st := s.clock.NewStopper()
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.stopper = st
		s.mu.Unlock()
		s.clock.SleepOrStop(st, s.interval)
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return
		}
		if err := s.reconcile(); err != nil {
			// Cloud install can only fail on duplicates or shutdown;
			// either way retrying next tick is the right move.
			continue
		}
	}
}

// reconcile moves the applet to the placement the local engine's health
// dictates.
func (s *Supervisor) reconcile() error {
	want := PlaceCloud
	if s.local.Healthy() {
		want = PlaceLocal
	}
	s.mu.Lock()
	cur := s.placement
	s.mu.Unlock()
	if cur == want {
		return nil
	}
	switch want {
	case PlaceLocal:
		s.cloud.Remove(s.applet.ID)
		if err := s.local.Install(s.rule); err != nil {
			return err
		}
	case PlaceCloud:
		s.local.Remove(s.rule.ID)
		if err := s.cloud.Install(s.applet); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.placement = want
	s.transitions++
	s.mu.Unlock()
	return nil
}
