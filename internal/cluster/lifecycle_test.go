package cluster

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// hookJournal is an engine.Journal that records nothing. A migration's
// attach journals the arriving subscription before the target engine
// commits it, so attach, when set, runs while the subscription's
// members are in no engine, and its error fails the attach.
type hookJournal struct {
	attach func(snap *engine.SubscriptionSnapshot) error
}

func (*hookJournal) AppendInstall(engine.Applet) error        { return nil }
func (*hookJournal) AppendRemove(string) error                { return nil }
func (*hookJournal) AppendCheckpoint(engine.Checkpoint) error { return nil }
func (*hookJournal) AppendDetach(string, []string) error      { return nil }
func (j *hookJournal) AppendAttach(snap *engine.SubscriptionSnapshot) error {
	if j.attach == nil {
		return nil
	}
	return j.attach(snap)
}

// holds reports whether n's engine runs applet id.
func holds(n *Node, id string) bool { return slices.Contains(n.Engine.Applets(), id) }

// TestClusterLifecycleDuringMigration drives installs and removes into
// the three stretches of a subscription's move: (a) its key is marked
// moving but the subscription is still on its source, (b) it has left
// the source and the target has not committed it, and (c) the target
// refused it, so its applets are gone. In (a) and (b) a remove parks
// and is applied on the winner, and a duplicate install is refused; in
// (c) the lost applets can be installed again. A duplicate install,
// settled or mid-move, wraps engine.ErrNoChange as the engine's does.
func TestClusterLifecycleDuringMigration(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Hour}
	j := &hookJournal{}
	c := New(Config{
		Nodes: 3,
		Engine: engine.Config{
			Clock: clock, RNG: stats.NewRNG(43), Doer: doer,
			Poll: engine.FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Coalesce: true,
		},
		NewEngine: func(_ string, cfg engine.Config) *engine.Engine {
			cfg.Journal = j
			return engine.New(cfg)
		},
	})
	const N = 60
	clock.Run(func() {
		defer c.Stop()
		for k := 0; k < N; k++ {
			for _, m := range []string{"a", "b"} {
				if err := c.Install(clusterApplet(k, m)); err != nil {
					t.Fatalf("install: %v", err)
				}
			}
		}
		installed := 2 * N
		// A duplicate of a settled applet is refused as the engine
		// refuses one: it changes nothing.
		if err := c.Install(clusterApplet(1, "a")); !errors.Is(err, engine.ErrNoChange) {
			t.Errorf("duplicate install = %v, want ErrNoChange", err)
		}

		// (a) Marked moving, not yet detached: the applet is still on
		// its source engine.
		a := clusterApplet(0, "a")
		key := clusterKey(0)
		c.mu.Lock()
		from := c.byName[c.ring.Owner(key)]
		mv := &pendingOps{}
		c.moving[key] = mv
		c.mu.Unlock()
		parked := c.Stats().ParkedOps
		c.Remove(a.ID)
		if got := c.Stats().ParkedOps - parked; got != 1 {
			t.Errorf("(a) remove of a moving applet parked %d ops, want 1", got)
		}
		if !holds(from, a.ID) {
			t.Errorf("(a) parked remove ran before the move ended")
		}
		if err := c.Install(a); !errors.Is(err, engine.ErrNoChange) {
			t.Errorf("(a) duplicate install of a moving applet = %v, want ErrNoChange", err)
		}
		c.migrateKey(key, from, mv)
		installed--
		if holds(from, a.ID) || !holds(from, clusterApplet(0, "b").ID) {
			t.Errorf("(a) after the move: %s held %v, %s held %v; want the removed one gone, its co-member kept",
				a.ID, holds(from, a.ID), clusterApplet(0, "b").ID, holds(from, clusterApplet(0, "b").ID))
		}

		// (b) In transit: inside the target's attach the members are in
		// no engine. The ops must not ask the engines, whose locks attach
		// holds: one that does waits until the attach is done.
		var transitKey, transitID string
		done := make(chan struct{})
		j.attach = func(snap *engine.SubscriptionSnapshot) error {
			if transitID != "" || len(snap.Members) < 2 {
				return nil
			}
			m := snap.Members[len(snap.Members)-1].Applet
			transitKey, transitID = snap.Key, m.ID
			go func() {
				defer close(done)
				before := c.parkedOps.Load()
				c.Remove(m.ID)
				if got := c.parkedOps.Load() - before; got != 1 {
					t.Errorf("(b) remove of an applet in transit parked %d ops, want 1", got)
				}
				if err := c.Install(m); !errors.Is(err, engine.ErrNoChange) {
					t.Errorf("(b) duplicate install of an applet in transit = %v, want ErrNoChange", err)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Errorf("(b) lifecycle ops on an applet in transit waited on an engine")
			}
			return nil
		}
		winner, err := c.AddNode()
		if err != nil {
			t.Fatalf("add node: %v", err)
		}
		if transitID == "" {
			t.Fatalf("(b) no two-member subscription moved to %s", winner.Name)
		}
		<-done
		installed--
		for _, n := range c.Nodes() {
			if holds(n, transitID) {
				t.Errorf("(b) %s still holds %s after the parked remove", n.Name, transitID)
			}
		}
		if keys := winner.Engine.SubscriptionKeys(); !slices.Contains(keys, transitKey) {
			t.Errorf("(b) winner %s lacks the moved subscription %q", winner.Name, transitKey)
		}

		// (c) The target refuses the subscription: its members are lost,
		// and installing them again must work.
		var lost []engine.MemberSnapshot
		j.attach = func(snap *engine.SubscriptionSnapshot) error {
			if lost != nil {
				return nil
			}
			lost = snap.Members
			return errors.New("journal full")
		}
		if _, err := c.AddNode(); err != nil {
			t.Fatalf("add node: %v", err)
		}
		j.attach = nil
		if lost == nil {
			t.Fatalf("(c) no subscription moved")
		}
		installed -= len(lost)
		if got := c.Stats().Applets; got != installed {
			t.Errorf("(c) %d applets after the failed attach, want %d", got, installed)
		}
		for _, m := range lost {
			if err := c.Install(m.Applet); err != nil {
				t.Errorf("(c) reinstall of %s lost by a failed attach: %v", m.Applet.ID, err)
			}
		}
		installed += len(lost)
		if got := c.Stats().Applets; got != installed {
			t.Errorf("(c) %d applets after the reinstall, want %d", got, installed)
		}
	})
}
