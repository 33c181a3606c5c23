package cluster

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestClusterDurableRestart models a whole-cluster process restart:
// every node journals to its own WAL directory (keyed by the
// deterministic node name), the first incarnation is crashed
// (Abandon, no final snapshots), and a second cluster built over the
// same directories recovers every applet onto its ring owner — with
// dedup windows intact, so events executed before the crash do not
// execute again when the upstream re-serves them.
func TestClusterDurableRestart(t *testing.T) {
	root := t.TempDir()
	const n = 40

	mk := func(clock *simtime.SimClock, col *ackCollector) (*Cluster, map[string]*durable.Store) {
		doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Minute}
		stores := make(map[string]*durable.Store)
		c := New(Config{
			Nodes: 3,
			Engine: engine.Config{
				Clock: clock, RNG: stats.NewRNG(77), Doer: doer,
				Poll: engine.FixedInterval{Interval: 2 * time.Minute}, DispatchDelay: -1,
				Coalesce: true,
				Trace:    col.observe,
			},
			Journal: func(node string) engine.Journal {
				st, err := durable.Open(durable.Options{
					Dir: filepath.Join(root, node), Clock: clock,
				})
				if err != nil {
					t.Fatalf("open store for %s: %v", node, err)
				}
				stores[node] = st
				return st
			},
			Restore: func(node string, e *engine.Engine) error {
				if err := stores[node].Restore(e); err != nil {
					return err
				}
				stores[node].Start()
				return nil
			},
		})
		return c, stores
	}

	var col ackCollector
	clock1 := simtime.NewSimDefault()
	c1, stores1 := mk(clock1, &col)
	clock1.Run(func() {
		for j := 0; j < n; j++ {
			if err := c1.Install(clusterApplet(j, "a")); err != nil {
				t.Fatalf("install %d: %v", j, err)
			}
		}
		clock1.Sleep(9 * time.Minute) // several polls; events accrue and execute
		for j := 0; j < 4; j++ {
			c1.Remove(clusterApplet(j, "a").ID)
		}
		clock1.Sleep(time.Minute)
		c1.Stop()
		for _, st := range stores1 {
			st.Abandon() // crash: WAL tail only
		}
	})
	preCrash := len(col.snapshot())
	if preCrash == 0 {
		t.Fatal("no executions before the crash; the scenario is vacuous")
	}

	// Same root, fresh clusters-worth of process state. The sim clock
	// restarts at the same epoch, so the upstream re-serves the exact
	// event IDs the first incarnation already executed.
	clock2 := simtime.NewSimDefault()
	c2, stores2 := mk(clock2, &col)
	total := 0
	for _, node := range c2.Nodes() {
		total += len(node.Engine.Applets())
	}
	if total != n-4 {
		t.Fatalf("recovered %d applets across nodes, want %d", total, n-4)
	}
	clock2.Run(func() {
		// The recovered engines route lifecycle ops: removing a
		// recovered applet and installing a fresh one both work.
		c2.Remove(clusterApplet(4, "a").ID)
		if err := c2.Install(clusterApplet(n, "a")); err != nil {
			t.Errorf("install after restart: %v", err)
		}
		clock2.Sleep(9 * time.Minute)
		c2.Stop()
		for _, st := range stores2 {
			st.Abandon()
		}
	})

	counts := col.snapshot()
	removedEarly := map[string]bool{}
	for j := 0; j < 4; j++ {
		removedEarly[clusterApplet(j, "a").ID] = true
	}
	perApplet := map[string]int{}
	for k, cnt := range counts {
		if cnt != 1 {
			t.Errorf("%s executed %d times across cluster restart, want exactly once", k, cnt)
		}
		perApplet[k[:strings.LastIndexByte(k, '/')]]++
	}
	for j := 5; j < n; j++ {
		id := clusterApplet(j, "a").ID
		if perApplet[id] == 0 {
			t.Errorf("recovered applet %s executed nothing after restart", id)
		}
	}
	if len(counts) <= preCrash {
		t.Errorf("no new executions after restart (%d before, %d total)", preCrash, len(counts))
	}
}

// snapshot copies the collector's counts.
func (c *ackCollector) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.acked))
	for k, v := range c.acked {
		out[k] = v
	}
	return out
}
