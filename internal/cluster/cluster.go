// The Cluster type: node lifecycle, the routing layer (installs, push
// batches, realtime hints), the moving-identity parking protocol, and
// the aggregate stats/metrics/HTTP surface. The rebalancing coordinator
// lives in coordinator.go.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"slices"
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
	// per node, so nodes draw independent deterministic streams),
	// Metrics and SLO. Metrics, when non-nil, is the registry the
	// cluster serves: each node's engine, and its durable store when
	// NewEngine opens one, registers into a child of it, so it carries
	// every such series summed over the nodes, beside the
	// ifttt_cluster_* family. Without it the nodes are unobserved.
	// SLO is turned off: the tier's debug endpoints serve one engine.
	Engine engine.Config
	// Logger receives routing and migration warnings; nil disables.
	Logger *slog.Logger
	// OnSpan, when non-nil, receives every completed execution span
	// tagged with the node that ran it (exec IDs are only unique per
	// engine). It runs on the node's execution goroutines, after
	// Engine.OnSpan when the template sets one, so it must be safe for
	// concurrent use.
	OnSpan func(node string, sp obs.ExecSpan)
	// NewEngine, when non-nil, builds each node's engine from the
	// per-node config the cluster prepared (split RNG, tagged OnSpan,
	// child registry); nil means engine.New. It runs with the cluster's
	// lock held, once per node. Node names are deterministic (node0,
	// node1, ... in creation order) and so, with the same VirtualNodes,
	// is ring placement: a per-node WAL directory keyed by the name
	// (durable.OpenEngine) recovers each key on its ring owner after a
	// whole-cluster restart.
	NewEngine func(node string, cfg engine.Config) *engine.Engine
}

// Node is one engine node: a full scheduler with its own shards and
// workers. Death is marked by the chaos/failure path (FailNode) and
// observed by the coordinator's Sweep.
type Node struct {
	Name   string
	Engine *engine.Engine
	pos    int // index in Cluster.nodes
	dead   atomic.Bool
}

// Alive reports whether the node has not been failed.
func (n *Node) Alive() bool { return !n.dead.Load() }

// pendingOps collects operations that arrived for an identity while it
// was mid-migration; they replay against the new owner once the move
// completes.
type pendingOps struct {
	ops []func(n *Node)
}

// Cluster routes work across N engine nodes by consistent-hashing
// trigger identities; the node engines are its only applet index. All
// routing state — the ring, the node set, the moving set, and the
// in-transit map — is guarded by one mutex; engine calls happen with it
// held for installs/removes (serializing placement against
// rebalancing) and outside it for the hot push/hint paths.
type Cluster struct {
	clock     simtime.Clock
	tmpl      engine.Config
	log       *slog.Logger
	onSpan    func(node string, sp obs.ExecSpan)
	newEngine func(node string, cfg engine.Config) *engine.Engine

	mu     sync.Mutex
	ring   *Ring
	nodes  []*Node // append-only: a Node's pos never changes
	byName map[string]*Node
	nextID int
	// moving marks identities whose subscription is mid-migration.
	// Installs, removes, pushes, and hints for a moving identity park
	// here and replay against the winner — this is what makes the
	// ownership flip atomic from the router's point of view.
	moving map[string]*pendingOps
	// transit maps the members of the subscriptions migrateKey is moving
	// to their key: between detach and attach they are in no engine.
	transit   map[string]string
	coordStop simtime.Stopper
	stopped   bool

	moves        atomic.Int64 // completed subscription migrations
	movedApplets atomic.Int64 // applets carried by those migrations
	parkedOps    atomic.Int64 // operations parked on moving identities
	failovers    atomic.Int64 // dead nodes drained off the ring

	pushScratch sync.Pool // *[][]proto.PushDelivery: PushDeliveries' groups by Node.pos
}

// New builds and starts a cluster of cfg.Nodes engine nodes.
func New(cfg Config) *Cluster {
	if cfg.Engine.Clock == nil || cfg.Engine.RNG == nil || cfg.Engine.Doer == nil {
		panic("cluster: Engine template needs Clock, RNG, and Doer")
	}
	n := cfg.Nodes
	if n <= 0 {
		n = DefaultNodes
	}
	c := &Cluster{
		clock:     cfg.Engine.Clock,
		tmpl:      cfg.Engine,
		log:       cfg.Logger,
		onSpan:    cfg.OnSpan,
		newEngine: cfg.NewEngine,
		ring:      NewRing(cfg.VirtualNodes),
		byName:    make(map[string]*Node),
		moving:    make(map[string]*pendingOps),
		transit:   make(map[string]string),
	}
	if c.newEngine == nil {
		c.newEngine = func(_ string, cfg engine.Config) *engine.Engine { return engine.New(cfg) }
	}
	if c.tmpl.SLO != nil {
		c.warn("slo tier disabled: not supported on a cluster")
		c.tmpl.SLO = nil
	}
	c.pushScratch.New = func() any { return new([][]proto.PushDelivery) }
	c.registerMetrics()
	c.mu.Lock()
	for i := 0; i < n; i++ {
		c.newNodeLocked()
	}
	c.mu.Unlock()
	return c
}

// newNodeLocked creates, registers, and rings a fresh node. Caller
// holds c.mu.
func (c *Cluster) newNodeLocked() *Node {
	name := fmt.Sprintf("node%d", c.nextID)
	c.nextID++
	ecfg := c.tmpl
	ecfg.RNG = c.tmpl.RNG.Split("cluster-" + name)
	node := &Node{Name: name, pos: len(c.nodes)}
	if c.onSpan != nil {
		own := c.tmpl.OnSpan
		ecfg.OnSpan = func(sp obs.ExecSpan) {
			if own != nil {
				own(sp)
			}
			c.onSpan(node.Name, sp)
		}
	}
	if c.tmpl.Metrics != nil {
		ecfg.Metrics = obs.NewRegistry()
		c.tmpl.Metrics.AddChild(ecfg.Metrics)
	}
	node.Engine = c.newEngine(name, ecfg)
	c.nodes = append(c.nodes, node)
	c.byName[name] = node
	c.ring.Add(name)
	if c.tmpl.Metrics != nil {
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

// locateLocked finds an installed applet: the key it routes under and
// the node whose engine holds it, or a nil node while it is in transit.
// Failed nodes not yet drained still hold theirs. Caller holds c.mu.
func (c *Cluster) locateLocked(id string) (key string, n *Node, ok bool) {
	if key, ok := c.transit[id]; ok {
		return key, nil, true
	}
	for _, n := range c.nodes {
		if key, ok := n.Engine.AppletKey(id); ok {
			return key, n, true
		}
	}
	return "", nil, false
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
	if _, _, dup := c.locateLocked(a.ID); dup {
		return fmt.Errorf("cluster: applet %q already installed: %w", a.ID, engine.ErrNoChange)
	}
	if mv := c.moving[key]; mv != nil {
		c.parkedOps.Add(1)
		mv.ops = append(mv.ops, func(n *Node) {
			if err := n.Engine.Install(a); err != nil {
				c.warn("parked install failed", "applet", a.ID, "node", n.Name, "err", err)
			}
		})
		return nil
	}
	n := c.byName[c.ring.Owner(key)]
	if n == nil {
		return fmt.Errorf("cluster: no live nodes")
	}
	// Install with c.mu held: placement must not race a rebalance
	// enumerating this node's subscriptions, and installs are cold-path.
	return n.Engine.Install(a)
}

// Remove uninstalls an applet wherever it lives. Removes for a moving
// identity park like installs do.
func (c *Cluster) Remove(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, n, ok := c.locateLocked(id)
	if !ok {
		return
	}
	if mv := c.moving[key]; mv != nil {
		c.parkedOps.Add(1)
		mv.ops = append(mv.ops, func(n *Node) { n.Engine.Remove(id) })
		return
	}
	n.Engine.Remove(id)
}

// PushDeliveries routes a push batch: deliveries group by ring owner
// and forward in one engine call per node, in node order. Deliveries
// for a moving identity park (counted accepted — they drain on the
// winner via the same parking that keeps them exactly-once);
// deliveries owned by no node count unmatched. The groups are reused
// scratch: an engine keeps nothing of the slice it is handed.
func (c *Cluster) PushDeliveries(ds []proto.PushDelivery) proto.PushResponse {
	var resp proto.PushResponse
	g := c.pushScratch.Get().(*[][]proto.PushDelivery)
	c.mu.Lock()
	nodes := c.nodes
	if len(*g) < len(nodes) {
		*g = append(*g, make([][]proto.PushDelivery, len(nodes)-len(*g))...)
	}
	groups := *g
	for _, d := range ds {
		if d.TriggerIdentity == "" || len(d.Events) == 0 {
			continue
		}
		if mv := c.moving[d.TriggerIdentity]; mv != nil {
			c.parkedOps.Add(1)
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
		groups[n.pos] = append(groups[n.pos], d)
	}
	c.mu.Unlock()
	for i, n := range nodes {
		grp := groups[i]
		if len(grp) == 0 {
			continue
		}
		r := n.Engine.PushDeliveries(grp)
		resp.Accepted += r.Accepted
		resp.Rejected += r.Rejected
		resp.Unmatched += r.Unmatched
		clear(grp)
		groups[i] = grp[:0]
	}
	c.pushScratch.Put(g)
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
	return slices.DeleteFunc(c.Nodes(), func(n *Node) bool { return !n.Alive() })
}

// Nodes returns the current node list (live and failed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.nodes)
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
	nodes, points := c.nodes, c.ring.Points()
	c.mu.Unlock()
	var out Stats
	out.Nodes = len(nodes)
	out.RingPoints = points
	for _, n := range nodes {
		if n.Alive() {
			out.NodesAlive++
		}
		addStats(&out.Stats, n.Engine.Stats())
	}
	out.Moves = c.moves.Load()
	out.MovedApplets = c.movedApplets.Load()
	out.ParkedOps = c.parkedOps.Load()
	out.Failovers = c.failovers.Load()
	return out
}

// addStats adds s into sum field by field: every engine.Stats field is
// a count or a level that adds up across engines.
func addStats(sum *engine.Stats, s engine.Stats) {
	dst, src := reflect.ValueOf(sum).Elem(), reflect.ValueOf(s)
	for i := range dst.NumField() {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
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
	nodes, points := c.nodes, c.ring.Points()
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
			// One pass over the body: PushBatch's scanner validates as it
			// decodes, so encoding/json's validity pass would be a second.
			var b proto.PushBatch
			if err := httpx.ReadBody(r, b.UnmarshalJSON); err != nil {
				httpx.WriteBodyError(w, err)
				return
			}
			resp := c.PushDeliveries(b.Data)
			code := http.StatusOK
			if resp.Rejected > 0 {
				code = http.StatusTooManyRequests
			}
			httpx.WriteJSONBytes(w, code, resp.AppendJSON(nil))
		})
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, c.Status())
	})
	obs.Mount(mux, c.tmpl.Metrics)
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
	nodes, st := c.nodes, c.coordStop
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

// registerMetrics publishes the ifttt_cluster_* family. The engine
// series are the nodes' own, summed by the registry (newNodeLocked), so
// one scrape of a cluster reads like one very large engine plus its
// placement telemetry.
func (c *Cluster) registerMetrics() {
	reg := c.tmpl.Metrics
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
}

// registerNodeMetrics publishes one node's placement gauges under
// ifttt_cluster_<name>_*. Nodes are never unregistered — a failed
// node's _up gauge drops to 0 and its counters freeze (in the engine
// sums too, as in Stats), which is what an operator wants to see
// during a failover.
func (c *Cluster) registerNodeMetrics(n *Node) {
	reg := c.tmpl.Metrics
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
