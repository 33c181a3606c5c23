package cluster

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestClusterDurableRestart models a whole-cluster process restart:
// every node journals to its own WAL directory (keyed by the
// deterministic node name), the first incarnation is crashed
// (Abandon, no final snapshots), and a second cluster built over the
// same directories recovers every applet onto its ring owner — with
// dedup windows intact, so events executed before the crash do not
// execute again when the upstream re-serves them. Each node is opened
// by durable.OpenEngine through Config.NewEngine, so its store's series
// roll up into the cluster registry beside the engine's.
func TestClusterDurableRestart(t *testing.T) {
	root := t.TempDir()
	const n = 40

	// nodeRegs holds each node's child registry, where its store
	// registers beside its engine.
	mk := func(clock *simtime.SimClock, col *ackCollector) (c *Cluster, reg *obs.Registry,
		stores map[string]*durable.Store, nodeRegs map[string]*obs.Registry) {
		doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Minute}
		stores, nodeRegs, reg = make(map[string]*durable.Store), make(map[string]*obs.Registry), obs.NewRegistry()
		c = New(Config{
			Nodes: 3,
			Engine: engine.Config{
				Clock: clock, RNG: stats.NewRNG(77), Doer: doer,
				Poll: engine.FixedInterval{Interval: 2 * time.Minute}, DispatchDelay: -1,
				Coalesce: true,
				Trace:    col.observe,
				Metrics:  reg,
			},
			NewEngine: func(node string, cfg engine.Config) *engine.Engine {
				eng, st, err := durable.OpenEngine(cfg, durable.Options{Dir: filepath.Join(root, node)})
				if err != nil {
					t.Fatalf("open engine for %s: %v", node, err)
				}
				stores[node], nodeRegs[node] = st, cfg.Metrics
				return eng
			},
		})
		return c, reg, stores, nodeRegs
	}

	var col ackCollector
	clock1 := simtime.NewSimDefault()
	c1, _, stores1, _ := mk(clock1, &col)
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
	c2, reg2, stores2, nodeRegs2 := mk(clock2, &col)
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
		checkStoreSeries(t, reg2, nodeRegs2, stores2)
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

// checkStoreSeries checks that the cluster registry carries each
// durable-store series as the sum of the nodes' own, and that the sums
// agree with what the stores report.
func checkStoreSeries(t *testing.T, reg *obs.Registry, nodeRegs map[string]*obs.Registry, stores map[string]*durable.Store) {
	t.Helper()
	values := func(r *obs.Registry) map[string]float64 {
		out := map[string]float64{}
		for _, m := range r.Snapshot() {
			if m.Value != nil {
				out[m.Name] = *m.Value
			}
		}
		return out
	}
	have := values(reg)
	var snapshots, diskBytes float64
	for _, st := range stores {
		snapshots += float64(st.Snapshots())
		diskBytes += float64(st.WALSizeOnDisk())
	}
	want := map[string]float64{"ifttt_snapshots_written_total": snapshots, "ifttt_wal_disk_bytes": diskBytes}
	for _, name := range []string{"ifttt_wal_records_total", "ifttt_wal_appended_bytes_total",
		"ifttt_snapshots_written_total", "ifttt_wal_replay_records", "ifttt_wal_disk_bytes"} {
		var sum float64
		for node, r := range nodeRegs {
			v, ok := values(r)[name]
			if !ok {
				t.Errorf("%s: store series %s not registered", node, name)
			}
			sum += v
		}
		got, ok := have[name]
		switch {
		case !ok:
			t.Errorf("store series %s missing from the cluster registry", name)
		case got != sum:
			t.Errorf("%s = %g, want the nodes' sum %g", name, got, sum)
		case name != "ifttt_wal_replay_records" && got <= 0:
			t.Errorf("%s = %g after a journaled run, want > 0", name, got)
		}
		if w, ok := want[name]; ok && got != w {
			t.Errorf("%s = %g, the stores report %g", name, got, w)
		}
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
