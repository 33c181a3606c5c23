// The Cluster type: node lifecycle, the routing layer (installs, push
// batches, realtime hints), the moving-identity parking protocol, and
// the aggregate stats/metrics/HTTP surface. The rebalancing coordinator
// lives in coordinator.go.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
)

// DefaultNodes is the cluster size when Config.Nodes is zero.
const DefaultNodes = 4

// Config assembles a cluster.
type Config struct {
	// Nodes is the initial engine-node count; zero means DefaultNodes.
	Nodes int
	// VirtualNodes is each node's point count on the hash ring; zero
	// means DefaultVirtualNodes.
	VirtualNodes int
	// Engine is the per-node engine template. Clock, RNG, and Doer are
	// required; every node gets the template verbatim except RNG (split
	// per node, so nodes draw independent deterministic streams) and
	// Metrics, which must be nil here — a shared obs.Registry would
	// panic on the second node's duplicate registrations. Set Metrics
	// on this Config instead and the cluster registers aggregates.
	Engine engine.Config
	// Metrics, when non-nil, receives the cluster-level series: the
	// ifttt_cluster_* family plus aggregate mirrors of the standard
	// ifttt_engine_* / ifttt_ingest_* names so dashboards and iftttop
	// work against a cluster unchanged.
	Metrics *obs.Registry
	// Logger receives routing and migration warnings; nil disables.
	Logger *slog.Logger
	// OnSpan, when non-nil, receives every completed execution span
	// tagged with the node that ran it. Each node gets its own
	// SpanRecorder (exec IDs are only unique per engine, so spans must
	// be assembled per node before they can be merged).
	OnSpan func(node string, sp obs.ExecSpan)
	// Journal, when non-nil, supplies each node's durability journal
	// (engine.Config.Journal), called once per node with its name.
	// Node names are deterministic (node0, node1, ... in creation
	// order), so a per-node WAL directory keyed by name survives a
	// whole-cluster restart.
	Journal func(node string) engine.Journal
	// Restore, when non-nil, runs right after each node's engine is
	// built (journaling already wired): the durability tier attaches
	// the node's recovered subscriptions here. Applets the hook
	// restores are re-indexed into the cluster's applet directory;
	// with the same node names and VirtualNodes, ring placement is
	// deterministic, so each key recovers on its ring owner. A failed
	// restore is logged and leaves that node empty.
	Restore func(node string, e *engine.Engine) error
}

// Node is one engine node: a full scheduler with its own shards,
// workers, and ingress queues. Death is marked by the chaos/failure
// path (FailNode) and observed by the coordinator's Sweep.
type Node struct {
	Name   string
	Engine *engine.Engine
	dead   atomic.Bool
}

// Alive reports whether the node has not been failed.
func (n *Node) Alive() bool { return !n.dead.Load() }

// appletLoc is the directory entry for one installed applet: the node
// that runs it and the subscription key it routes under.
type appletLoc struct {
	node *Node
	key  string
}

// pendingOps collects operations that arrived for an identity while it
// was mid-migration; they replay against the new owner once the move
// completes.
type pendingOps struct {
	ops []func(n *Node)
}

// Cluster routes work across N engine nodes by consistent-hashing
// trigger identities. All routing state — the ring, the node set, the
// applet directory, and the moving set — is guarded by one mutex;
// engine calls happen with it held for installs/removes (serializing
// placement against rebalancing) and outside it for the hot push/hint
// paths.
type Cluster struct {
	clock   simtime.Clock
	tmpl    engine.Config
	metrics *obs.Registry
	log     *slog.Logger
	onSpan  func(node string, sp obs.ExecSpan)
	journal func(node string) engine.Journal
	restore func(node string, e *engine.Engine) error

	mu      sync.Mutex
	ring    *Ring
	nodes   []*Node
	byName  map[string]*Node
	nextID  int
	applets map[string]appletLoc
	// moving marks identities whose subscription is mid-migration.
	// Installs, removes, pushes, and hints for a moving identity park
	// here and replay against the winner — this is what makes the
	// ownership flip atomic from the router's point of view.
	moving    map[string]*pendingOps
	coordStop simtime.Stopper
	stopped   bool

	moves        atomic.Int64 // completed subscription migrations
	movedApplets atomic.Int64 // applets carried by those migrations
	parkedOps    atomic.Int64 // operations parked on moving identities
	failovers    atomic.Int64 // dead nodes drained off the ring
}

// New builds and starts a cluster of cfg.Nodes engine nodes.
func New(cfg Config) *Cluster {
	if cfg.Engine.Clock == nil || cfg.Engine.RNG == nil || cfg.Engine.Doer == nil {
		panic("cluster: Engine template needs Clock, RNG, and Doer")
	}
	if cfg.Engine.Metrics != nil {
		panic("cluster: set Metrics on cluster.Config, not the engine template (nodes would collide in one registry)")
	}
	n := cfg.Nodes
	if n <= 0 {
		n = DefaultNodes
	}
	c := &Cluster{
		clock:   cfg.Engine.Clock,
		tmpl:    cfg.Engine,
		metrics: cfg.Metrics,
		log:     cfg.Logger,
		onSpan:  cfg.OnSpan,
		journal: cfg.Journal,
		restore: cfg.Restore,
		ring:    NewRing(cfg.VirtualNodes),
		byName:  make(map[string]*Node),
		applets: make(map[string]appletLoc),
		moving:  make(map[string]*pendingOps),
	}
	c.mu.Lock()
	for i := 0; i < n; i++ {
		c.newNodeLocked()
	}
	c.mu.Unlock()
	c.registerMetrics()
	return c
}

// newNodeLocked creates, registers, and rings a fresh node. Caller
// holds c.mu.
func (c *Cluster) newNodeLocked() *Node {
	name := fmt.Sprintf("node%d", c.nextID)
	c.nextID++
	ecfg := c.tmpl
	ecfg.RNG = c.tmpl.RNG.Split("cluster-" + name)
	node := &Node{Name: name}
	if c.onSpan != nil {
		rec := engine.NewSpanRecorder(engine.SpanRecorderConfig{
			OnSpan: func(sp obs.ExecSpan) { c.onSpan(node.Name, sp) },
		})
		obsrv := make([]func(engine.TraceEvent), 0, len(c.tmpl.Observers)+1)
		obsrv = append(obsrv, c.tmpl.Observers...)
		ecfg.Observers = append(obsrv, rec.Observe)
	}
	if c.journal != nil {
		ecfg.Journal = c.journal(name)
	}
	node.Engine = engine.New(ecfg)
	if c.restore != nil {
		if err := c.restore(name, node.Engine); err != nil {
			c.warn("node restore failed; starting empty", "node", name, "err", err)
		} else {
			// Re-index recovered applets: placement is deterministic
			// (same names, same ring), so this node owns these keys.
			for id, key := range node.Engine.AppletKeys() {
				c.applets[id] = appletLoc{node: node, key: key}
			}
		}
	}
	c.nodes = append(c.nodes, node)
	c.byName[name] = node
	c.ring.Add(name)
	if c.metrics != nil {
		c.registerNodeMetrics(node)
	}
	return node
}

// routingKey is the subscription key an applet's work routes under. It
// must match the engine's own subscription keying, which depends on
// Coalesce — both sides of the split agree because every node runs the
// same template.
func (c *Cluster) routingKey(a *engine.Applet) string {
	if c.tmpl.Coalesce {
		return a.CoalescedTriggerIdentity()
	}
	return a.TriggerIdentity()
}

// Install places an applet on the ring owner of its trigger identity.
// Installs for a mid-migration identity park and replay on the winner.
func (c *Cluster) Install(a engine.Applet) error {
	if a.ID == "" {
		return fmt.Errorf("cluster: install: applet has no ID")
	}
	key := c.routingKey(&a)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return fmt.Errorf("cluster: stopped")
	}
	if _, dup := c.applets[a.ID]; dup {
		return fmt.Errorf("cluster: applet %q already installed", a.ID)
	}
	if mv := c.moving[key]; mv != nil {
		c.parkedOps.Add(1)
		mv.ops = append(mv.ops, func(n *Node) {
			if err := n.Engine.Install(a); err != nil {
				c.warn("parked install failed", "applet", a.ID, "node", n.Name, "err", err)
				return
			}
			c.mu.Lock()
			c.applets[a.ID] = appletLoc{node: n, key: key}
			c.mu.Unlock()
		})
		return nil
	}
	n := c.byName[c.ring.Owner(key)]
	if n == nil {
		return fmt.Errorf("cluster: no live nodes")
	}
	// Install with c.mu held: placement must not race a rebalance
	// enumerating this node's subscriptions, and installs are cold-path.
	if err := n.Engine.Install(a); err != nil {
		return err
	}
	c.applets[a.ID] = appletLoc{node: n, key: key}
	return nil
}

// Remove uninstalls an applet wherever it lives. Removes for a moving
// identity park like installs do.
func (c *Cluster) Remove(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.applets[id]
	if !ok {
		return
	}
	if mv := c.moving[loc.key]; mv != nil {
		c.parkedOps.Add(1)
		mv.ops = append(mv.ops, func(n *Node) {
			n.Engine.Remove(id)
			c.mu.Lock()
			delete(c.applets, id)
			c.mu.Unlock()
		})
		return
	}
	loc.node.Engine.Remove(id)
	delete(c.applets, id)
}

// PushDeliveries routes a push batch: deliveries group by ring owner
// and forward in one engine call per node. Deliveries for a moving
// identity park (counted accepted — they drain on the winner via the
// same parking that keeps them exactly-once); deliveries owned by no
// node count unmatched.
func (c *Cluster) PushDeliveries(ds []proto.PushDelivery) proto.PushResponse {
	var resp proto.PushResponse
	groups := make(map[*Node][]proto.PushDelivery)
	c.mu.Lock()
	for _, d := range ds {
		if d.TriggerIdentity == "" || len(d.Events) == 0 {
			continue
		}
		if mv := c.moving[d.TriggerIdentity]; mv != nil {
			c.parkedOps.Add(1)
			d := d
			mv.ops = append(mv.ops, func(n *Node) {
				n.Engine.PushDeliveries([]proto.PushDelivery{d})
			})
			resp.Accepted += len(d.Events)
			continue
		}
		n := c.byName[c.ring.Owner(d.TriggerIdentity)]
		if n == nil || !n.Alive() {
			resp.Unmatched += len(d.Events)
			continue
		}
		groups[n] = append(groups[n], d)
	}
	c.mu.Unlock()
	for n, g := range groups {
		r := n.Engine.PushDeliveries(g)
		resp.Accepted += r.Accepted
		resp.Rejected += r.Rejected
		resp.Unmatched += r.Unmatched
	}
	return resp
}

// ApplyHint routes one realtime hint. Identity hints go to the ring
// owner (or park mid-migration); user hints broadcast to every live
// node, because one user's applets spread across the ring — each node
// counts the hint, so cluster hint tallies are per-node observations.
func (c *Cluster) ApplyHint(hint proto.RealtimeHint) {
	if hint.TriggerIdentity != "" {
		c.mu.Lock()
		if mv := c.moving[hint.TriggerIdentity]; mv != nil {
			c.parkedOps.Add(1)
			mv.ops = append(mv.ops, func(n *Node) { n.Engine.ApplyHint(hint) })
			c.mu.Unlock()
			return
		}
		n := c.byName[c.ring.Owner(hint.TriggerIdentity)]
		c.mu.Unlock()
		if n != nil && n.Alive() {
			n.Engine.ApplyHint(hint)
		}
		return
	}
	for _, n := range c.liveNodes() {
		n.Engine.ApplyHint(hint)
	}
}

func (c *Cluster) liveNodes() []*Node {
	c.mu.Lock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Alive() {
			out = append(out, n)
		}
	}
	c.mu.Unlock()
	return out
}

// Nodes returns the current node list (live and failed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	c.mu.Unlock()
	return out
}

// Stats aggregates engine stats across every node (dead nodes keep
// contributing the counters they accrued while alive) plus the
// cluster-level counters.
type Stats struct {
	engine.Stats
	Nodes        int   `json:"nodes"`
	NodesAlive   int   `json:"nodes_alive"`
	RingPoints   int   `json:"ring_points"`
	Moves        int64 `json:"moves"`
	MovedApplets int64 `json:"moved_applets"`
	ParkedOps    int64 `json:"parked_ops"`
	Failovers    int64 `json:"failovers"`
}

// Stats sums every node's engine stats and adds the cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	nodes := make([]*Node, len(c.nodes))
	copy(nodes, c.nodes)
	points := c.ring.Points()
	c.mu.Unlock()
	var out Stats
	out.Nodes = len(nodes)
	out.RingPoints = points
	for _, n := range nodes {
		if n.Alive() {
			out.NodesAlive++
		}
		s := n.Engine.Stats()
		out.Applets += s.Applets
		out.Subscriptions += s.Subscriptions
		out.Polls += s.Polls
		out.PollFailures += s.PollFailures
		out.PollErrorsTransport += s.PollErrorsTransport
		out.PollErrorsHTTP += s.PollErrorsHTTP
		out.ActionErrorsTransport += s.ActionErrorsTransport
		out.ActionErrorsHTTP += s.ActionErrorsHTTP
		out.BreakersOpen += s.BreakersOpen
		out.BreakerOpens += s.BreakerOpens
		out.BreakerCloses += s.BreakerCloses
		out.BreakerProbes += s.BreakerProbes
		out.PollsDeferred += s.PollsDeferred
		out.BudgetGrants += s.BudgetGrants
		out.PollsCoalesced += s.PollsCoalesced
		out.EventsReceived += s.EventsReceived
		out.ActionsOK += s.ActionsOK
		out.ActionsFailed += s.ActionsFailed
		out.HintsReceived += s.HintsReceived
		out.ConditionSkips += s.ConditionSkips
		out.PushBatches += s.PushBatches
		out.PushEvents += s.PushEvents
		out.IngressAccepted += s.IngressAccepted
		out.IngressRejected += s.IngressRejected
		out.IngressUnmatched += s.IngressUnmatched
		out.IngressDepth += s.IngressDepth
	}
	out.Moves = c.moves.Load()
	out.MovedApplets = c.movedApplets.Load()
	out.ParkedOps = c.parkedOps.Load()
	out.Failovers = c.failovers.Load()
	return out
}

// NodeStatus is one node's row in GET /v1/cluster.
type NodeStatus struct {
	Name  string       `json:"name"`
	Alive bool         `json:"alive"`
	Stats engine.Stats `json:"stats"`
}

// ClusterStatus is the GET /v1/cluster body.
type ClusterStatus struct {
	Nodes        []NodeStatus `json:"nodes"`
	RingPoints   int          `json:"ring_points"`
	Moves        int64        `json:"moves"`
	MovedApplets int64        `json:"moved_applets"`
	ParkedOps    int64        `json:"parked_ops"`
	Failovers    int64        `json:"failovers"`
}

// Status reports per-node state for operators (iftttop's per-node
// rows).
func (c *Cluster) Status() ClusterStatus {
	c.mu.Lock()
	nodes := make([]*Node, len(c.nodes))
	copy(nodes, c.nodes)
	points := c.ring.Points()
	c.mu.Unlock()
	st := ClusterStatus{
		RingPoints:   points,
		Moves:        c.moves.Load(),
		MovedApplets: c.movedApplets.Load(),
		ParkedOps:    c.parkedOps.Load(),
		Failovers:    c.failovers.Load(),
	}
	for _, n := range nodes {
		st.Nodes = append(st.Nodes, NodeStatus{Name: n.Name, Alive: n.Alive(), Stats: n.Engine.Stats()})
	}
	return st
}

// Handler serves the cluster's HTTP surface: the same routes a single
// engine exposes (push ingress, realtime hints, stats, metrics,
// readiness) so clients need no changes, plus GET /v1/cluster for
// per-node state.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+proto.RealtimePath, func(w http.ResponseWriter, r *http.Request) {
		var n proto.RealtimeNotification
		if err := httpx.ReadJSON(r, &n); err != nil {
			httpx.WriteBodyError(w, err)
			return
		}
		for _, hint := range n.Data {
			c.ApplyHint(hint)
		}
		httpx.WriteJSON(w, http.StatusOK, proto.StatusResponse{OK: true})
	})
	if c.tmpl.Push {
		mux.HandleFunc("POST "+proto.PushPath, func(w http.ResponseWriter, r *http.Request) {
			var b proto.PushBatch
			if err := httpx.ReadJSON(r, &b); err != nil {
				httpx.WriteBodyError(w, err)
				return
			}
			resp := c.PushDeliveries(b.Data)
			code := http.StatusOK
			if resp.Rejected > 0 {
				code = http.StatusTooManyRequests
			}
			httpx.WriteJSON(w, code, resp)
		})
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Status())
	})
	obs.Mount(mux, c.metrics)
	ready := obs.NewReadiness()
	ready.Add("nodes", func() (bool, string) {
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return false, "cluster stopped"
		}
		if alive := len(c.liveNodes()); alive == 0 {
			return false, "no live nodes"
		}
		return true, ""
	})
	mux.Handle("GET /readyz", ready)
	return httpx.Chain(mux, httpx.RequestID)
}

// Stop stops the coordinator and every live node. Under simtime, call
// before SimClock.Run returns idle, as with a single engine.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	nodes := make([]*Node, len(c.nodes))
	copy(nodes, c.nodes)
	st := c.coordStop
	c.mu.Unlock()
	if st != nil {
		st.Stop()
	}
	for _, n := range nodes {
		if n.Alive() {
			n.Engine.Stop()
		}
	}
}

func (c *Cluster) warn(msg string, kv ...any) {
	if c.log != nil {
		c.log.Warn(msg, kv...)
	}
}

// registerMetrics publishes the ifttt_cluster_* family and aggregate
// mirrors of the standard engine/ingest names, so one scrape of the
// cluster registry looks like one very large engine plus placement
// telemetry.
func (c *Cluster) registerMetrics() {
	reg := c.metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("ifttt_cluster_nodes", "Live engine nodes on the ring.", func() float64 {
		return float64(len(c.liveNodes()))
	})
	reg.GaugeFunc("ifttt_cluster_ring_points", "Virtual points on the consistent-hash ring.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.ring.Points())
	})
	reg.GaugeFunc("ifttt_cluster_moving_identities", "Identities currently mid-migration.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.moving))
	})
	reg.CounterFunc("ifttt_cluster_moves_total", "Subscription migrations completed.", c.moves.Load)
	reg.CounterFunc("ifttt_cluster_moved_applets_total", "Applets carried by completed migrations.", c.movedApplets.Load)
	reg.CounterFunc("ifttt_cluster_parked_ops_total", "Operations parked on moving identities and replayed after the handoff.", c.parkedOps.Load)
	reg.CounterFunc("ifttt_cluster_failovers_total", "Dead nodes drained off the ring by the coordinator.", c.failovers.Load)

	agg := func(f func(engine.Stats) int64) func() int64 {
		return func() int64 {
			var sum int64
			for _, n := range c.Nodes() {
				sum += f(n.Engine.Stats())
			}
			return sum
		}
	}
	reg.GaugeFunc("ifttt_engine_applets", "Installed applets across all nodes.", func() float64 {
		return float64(agg(func(s engine.Stats) int64 { return int64(s.Applets) })())
	})
	reg.GaugeFunc("ifttt_engine_subscriptions", "Live upstream poll subscriptions across all nodes.", func() float64 {
		return float64(agg(func(s engine.Stats) int64 { return int64(s.Subscriptions) })())
	})
	reg.CounterFunc("ifttt_engine_polls_total", "Trigger polls issued, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.Polls }))
	reg.CounterFunc("ifttt_engine_poll_failures_total", "Trigger polls that failed, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.PollFailures }))
	reg.CounterFunc("ifttt_engine_events_received_total", "Fresh trigger events received, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.EventsReceived }))
	reg.CounterFunc("ifttt_engine_actions_ok_total", "Actions acknowledged, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.ActionsOK }))
	reg.CounterFunc("ifttt_engine_actions_failed_total", "Actions that failed, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.ActionsFailed }))
	reg.CounterFunc("ifttt_engine_hints_received_total", "Realtime notifications received, cluster-wide (user hints count once per node).",
		agg(func(s engine.Stats) int64 { return s.HintsReceived }))
	reg.GaugeFunc("ifttt_engine_breakers_open", "Open or half-open circuit breakers, cluster-wide.", func() float64 {
		return float64(agg(func(s engine.Stats) int64 { return s.BreakersOpen })())
	})
	reg.CounterFunc("ifttt_engine_polls_deferred_total", "Polls deferred by admission control, cluster-wide.",
		agg(func(s engine.Stats) int64 { return s.PollsDeferred }))
	if c.tmpl.Push {
		reg.CounterFunc("ifttt_engine_push_events_total", "Fresh events delivered via push, cluster-wide.",
			agg(func(s engine.Stats) int64 { return s.PushEvents }))
		reg.CounterFunc("ifttt_ingest_accepted_total", "Pushed events accepted into ingress queues, cluster-wide.",
			agg(func(s engine.Stats) int64 { return s.IngressAccepted }))
		reg.CounterFunc("ifttt_ingest_rejected_total", "Pushed events rejected by ingress backpressure, cluster-wide.",
			agg(func(s engine.Stats) int64 { return s.IngressRejected }))
		reg.CounterFunc("ifttt_ingest_unmatched_total", "Pushed events matching no installed subscription, cluster-wide.",
			agg(func(s engine.Stats) int64 { return s.IngressUnmatched }))
		reg.GaugeFunc("ifttt_ingest_queue_depth", "Queued push deliveries, cluster-wide.", func() float64 {
			return float64(agg(func(s engine.Stats) int64 { return s.IngressDepth })())
		})
	}
}

// registerNodeMetrics publishes one node's placement gauges under
// ifttt_cluster_<name>_*. Nodes are never unregistered — a failed
// node's _up gauge drops to 0 and its counters freeze, which is what
// an operator wants to see during a failover.
func (c *Cluster) registerNodeMetrics(n *Node) {
	reg := c.metrics
	reg.GaugeFunc("ifttt_cluster_"+n.Name+"_up", "1 while the node is alive.", func() float64 {
		if n.Alive() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("ifttt_cluster_"+n.Name+"_subscriptions", "Subscriptions placed on the node.", func() float64 {
		return float64(n.Engine.Stats().Subscriptions)
	})
	reg.GaugeFunc("ifttt_cluster_"+n.Name+"_applets", "Applets placed on the node.", func() float64 {
		return float64(n.Engine.Stats().Applets)
	})
	reg.CounterFunc("ifttt_cluster_"+n.Name+"_polls_total", "Trigger polls the node issued.", func() int64 {
		return n.Engine.Stats().Polls
	})
	reg.CounterFunc("ifttt_cluster_"+n.Name+"_actions_ok_total", "Actions the node delivered.", func() int64 {
		return n.Engine.Stats().ActionsOK
	})
}
