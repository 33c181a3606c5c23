package cluster

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// ringIdentities builds n trigger identities with the shape the engine
// actually places: hashed applet trigger configurations (the dataset's
// identity distribution — opaque fnv-derived "ti-%016x" keys), not
// synthetic uniform strings.
func ringIdentities(n int) []string {
	ids := make([]string, n)
	for j := 0; j < n; j++ {
		a := engine.Applet{
			ID:     fmt.Sprintf("a%06d", j),
			UserID: fmt.Sprintf("u%04d", j%1000),
			Trigger: engine.ServiceRef{
				Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": fmt.Sprintf("m%06d", j)},
			},
		}
		ids[j] = a.TriggerIdentity()
	}
	return ids
}

// TestRingDeterministicPlacement: same node set (any join order, with
// removals along the way) ⇒ identical placement for every identity.
func TestRingDeterministicPlacement(t *testing.T) {
	ids := ringIdentities(5000)
	a := NewRing(64)
	for _, n := range []string{"node0", "node1", "node2", "node3"} {
		a.Add(n)
	}
	b := NewRing(64)
	for _, n := range []string{"node3", "node1", "node0", "nodeX", "node2"} {
		b.Add(n)
	}
	b.Remove("nodeX")
	for _, id := range ids {
		if ao, bo := a.Owner(id), b.Owner(id); ao != bo {
			t.Fatalf("placement differs for %s: %s vs %s (join order must not matter)", id, ao, bo)
		}
	}
	if a.Points() != 4*64 {
		t.Errorf("points = %d, want %d", a.Points(), 4*64)
	}
}

// TestRingBalance: with the default virtual-node count the per-node
// share of the identity population stays near 1/N.
func TestRingBalance(t *testing.T) {
	ids := ringIdentities(20000)
	r := NewRing(0) // DefaultVirtualNodes
	nodes := []string{"node0", "node1", "node2", "node3"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	for _, id := range ids {
		counts[r.Owner(id)]++
	}
	mean := float64(len(ids)) / float64(len(nodes))
	for _, n := range nodes {
		share := float64(counts[n]) / mean
		if share < 0.55 || share > 1.55 {
			t.Errorf("node %s owns %.2fx of the mean share (%d identities); counts=%v",
				n, share, counts[n], counts)
		}
	}
}

// TestRingMovementOnNodeChange is the consistent-hashing contract:
// adding a node moves about 1/N of the identities (all toward the new
// node), and removing one moves exactly the removed node's identities
// (all away from it) while every other placement is untouched.
func TestRingMovementOnNodeChange(t *testing.T) {
	ids := ringIdentities(20000)
	r := NewRing(0)
	nodes := []string{"node0", "node1", "node2", "node3"}
	for _, n := range nodes {
		r.Add(n)
	}
	before := make(map[string]string, len(ids))
	for _, id := range ids {
		before[id] = r.Owner(id)
	}

	r.Add("node4")
	moved := 0
	for _, id := range ids {
		now := r.Owner(id)
		if now != before[id] {
			moved++
			if now != "node4" {
				t.Fatalf("add: %s moved %s -> %s, but only moves TO the new node are allowed",
					id, before[id], now)
			}
		}
	}
	frac := float64(moved) / float64(len(ids))
	want := 1.0 / 5
	if frac == 0 || frac > 1.6*want {
		t.Errorf("adding 1 of 5 nodes moved %.1f%% of identities, want ~%.0f%% (≤ %.0f%%)",
			100*frac, 100*want, 160*want)
	}

	r.Remove("node4")
	for _, id := range ids {
		if r.Owner(id) != before[id] {
			t.Fatalf("remove did not restore the prior placement for %s", id)
		}
	}

	r.Remove("node1")
	survivors := map[string]int{}
	for _, id := range ids {
		now := r.Owner(id)
		survivors[now]++
		if before[id] == "node1" {
			if now == "node1" {
				t.Fatalf("%s still owned by removed node", id)
			}
		} else if now != before[id] {
			t.Fatalf("remove: %s moved %s -> %s though its owner survived", id, before[id], now)
		}
	}
	// The removed node's share spreads over the survivors without
	// piling onto one of them.
	lo, hi := len(ids), 0
	for _, c := range survivors {
		lo, hi = min(lo, c), max(hi, c)
	}
	if len(survivors) != 3 || float64(hi) > 2.5*float64(lo) {
		t.Errorf("survivor spread %d..%d identities over %d nodes, want 3 nodes within 2.5x", lo, hi, len(survivors))
	}
}
