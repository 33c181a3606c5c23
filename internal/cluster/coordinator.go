// The rebalancing coordinator: node addition, failure injection, and
// the Sweep that drains dead nodes by migrating their subscription
// snapshots to the surviving ring owners.
//
// The handoff invariant: the ring flip and the moving-set marking
// happen in one critical section, so from the instant ownership
// changes, every router operation for an affected identity either
// parks (and replays on the winner) or routes to the winner — never to
// the loser. The detach side then waits until no worker on the loser
// runs the subscription, carries the dedup windows and waiting push
// deliveries in the snapshot, and the attach side queues those
// deliveries through the same per-member dedup — which together give
// exactly-once execution across the move.
package cluster

import (
	"fmt"
	"time"
)

// DefaultSweepInterval is the coordinator's node-loss detection
// cadence when StartCoordinator is called with zero.
const DefaultSweepInterval = 5 * time.Second

// AddNode grows the cluster by one node and migrates onto it every
// identity the enlarged ring now assigns to it (~1/N of the total, the
// consistent-hashing contract).
func (c *Cluster) AddNode() (*Node, error) {
	type move struct {
		key  string
		from *Node
		mv   *pendingOps
	}
	var moves []move
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: stopped")
	}
	n := c.newNodeLocked()
	for _, old := range c.nodes {
		if old == n || !old.Alive() {
			continue
		}
		for _, k := range old.Engine.SubscriptionKeys() {
			if c.ring.Owner(k) == n.Name && c.moving[k] == nil {
				mv := &pendingOps{}
				c.moving[k] = mv
				moves = append(moves, move{key: k, from: old, mv: mv})
			}
		}
	}
	c.mu.Unlock()
	for _, m := range moves {
		c.migrateKey(m.key, m.from, m.mv)
	}
	return n, nil
}

// FailNode kills a node abruptly: its engine stops mid-flight, exactly
// like a process crash, and the ring still lists it until a Sweep
// notices and drains it. The chaos studies call this.
func (c *Cluster) FailNode(name string) error {
	c.mu.Lock()
	n := c.byName[name]
	if n == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %q", name)
	}
	if !n.Alive() {
		c.mu.Unlock()
		return nil
	}
	live := 0
	for _, m := range c.nodes {
		if m.Alive() {
			live++
		}
	}
	if live <= 1 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: refusing to fail the last live node")
	}
	n.dead.Store(true)
	c.mu.Unlock()
	n.Engine.Stop()
	c.warn("node failed", "node", name)
	return nil
}

// Sweep detects dead nodes still holding ring territory and drains
// them. It returns the number of subscriptions migrated. Safe to call
// from a coordinator loop or directly from a test after FailNode.
func (c *Cluster) Sweep() int {
	c.mu.Lock()
	var dead []*Node
	for _, n := range c.nodes {
		if !n.Alive() && c.ring.nodes[n.Name] {
			dead = append(dead, n)
		}
	}
	c.mu.Unlock()
	moved := 0
	for _, n := range dead {
		moved += c.drainNode(n)
		c.failovers.Add(1)
		c.warn("node drained", "node", n.Name, "subscriptions", moved)
	}
	return moved
}

// StartCoordinator runs Sweep every interval on a cluster-clock actor
// until Stop. Zero interval means DefaultSweepInterval.
func (c *Cluster) StartCoordinator(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultSweepInterval
	}
	c.mu.Lock()
	if c.coordStop != nil || c.stopped {
		c.mu.Unlock()
		return
	}
	st := c.clock.NewStopper()
	c.coordStop = st
	c.mu.Unlock()
	c.clock.Go(func() {
		for c.clock.SleepOrStop(st, interval) {
			c.Sweep()
		}
	})
}

// drainNode removes a dead node from the ring and migrates every
// subscription it held to the new owners. The ring flip and the
// moving-set marking are one critical section: the instant ownership
// changes, router traffic for the affected identities parks instead of
// chasing the dead node.
func (c *Cluster) drainNode(n *Node) int {
	c.mu.Lock()
	c.ring.Remove(n.Name)
	keys := n.Engine.SubscriptionKeys()
	mvs := make(map[string]*pendingOps, len(keys))
	for _, k := range keys {
		if c.moving[k] == nil {
			mv := &pendingOps{}
			c.moving[k] = mv
			mvs[k] = mv
		}
	}
	c.mu.Unlock()
	moved := 0
	for _, k := range keys {
		mv := mvs[k]
		if mv == nil {
			continue // another drain already owns this identity's move
		}
		if c.migrateKey(k, n, mv) {
			moved++
		}
	}
	return moved
}

// migrateKey moves one subscription from its (possibly stopped) source
// node to the current ring owner: its members enter the in-transit map,
// detach waits out in-flight execution and captures the snapshot, and
// attach restores it on the owner and queues its waiting push
// deliveries. Whatever happens, the moving mark and the members'
// in-transit entries clear together, and parked router operations
// replay against the final owner.
func (c *Cluster) migrateKey(key string, from *Node, mv *pendingOps) bool {
	// Membership is frozen while the key is marked moving: every install
	// and remove for it parks.
	c.mu.Lock()
	ids := from.Engine.SubscriptionMembers(key)
	for _, id := range ids {
		c.transit[id] = key
	}
	c.mu.Unlock()
	moved := false
	snap, err := from.Engine.DetachSubscription(key)
	if err != nil {
		c.warn("detach failed", "key", key, "node", from.Name, "err", err)
	}
	if snap != nil && err == nil {
		c.mu.Lock()
		to := c.byName[c.ring.Owner(key)]
		c.mu.Unlock()
		if to == nil || !to.Alive() {
			c.warn("no live owner for migrated key", "key", key)
		} else if err := to.Engine.AttachSubscription(snap); err != nil {
			c.warn("attach failed", "key", key, "node", to.Name, "err", err)
		} else {
			c.moves.Add(1)
			c.movedApplets.Add(int64(len(snap.Members)))
			moved = true
		}
	}
	// Clear the moving mark and replay parked operations against the
	// final owner. New operations route directly from here on; parked
	// ones replay immediately after.
	c.mu.Lock()
	delete(c.moving, key)
	for _, id := range ids {
		delete(c.transit, id)
	}
	ops := mv.ops
	mv.ops = nil
	to := c.byName[c.ring.Owner(key)]
	c.mu.Unlock()
	if to != nil && to.Alive() {
		for _, op := range ops {
			op(to)
		}
	} else if len(ops) > 0 {
		c.warn("dropping parked ops: no live owner", "key", key, "ops", len(ops))
	}
	return moved
}
