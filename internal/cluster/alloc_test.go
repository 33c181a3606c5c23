package cluster

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// ackDoer answers every request with an empty 200 that doubles as an
// action acknowledgement.
type ackDoer struct{}

func (ackDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(`{"data":[{"id":"ok"}]}`))}, nil
}

// TestClusterPushDeliveriesAllocs bounds the router's share of a push
// batch: 50 single-event deliveries for 50 subscriptions spread over
// four nodes cost no more than handing each node its share directly.
// The groups are pooled scratch, so the router adds nothing: measured 0
// and 0 (a map and a slice per node cost 20 per batch). The bound
// forgives a stray object of another goroutine's, seen once in a loaded
// run, but not one per batch. Each batch is counted inside every
// node's Replay window, so the executions it queues run after the
// count.
func TestClusterPushDeliveriesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const deliveries, runs = 50, 100
	c := New(Config{Nodes: 4, Engine: engine.Config{
		Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: ackDoer{},
		Poll: engine.FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Push: true, IngressQueue: 1 << 12,
	}})
	t.Cleanup(c.Stop)
	nodes := c.Nodes()
	batch := make([]proto.PushDelivery, deliveries)
	direct := make([][]proto.PushDelivery, len(nodes))
	for i := range batch {
		a := engine.Applet{ID: "a" + strconv.Itoa(i), UserID: "u1",
			Trigger: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"room": strconv.Itoa(i)}},
			Action: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
		}
		if err := c.Install(a); err != nil {
			t.Fatal(err)
		}
		id := "1234." + strconv.Itoa(i)
		batch[i] = proto.PushDelivery{TriggerIdentity: a.TriggerIdentity(), Events: []proto.TriggerEvent{{
			Meta: proto.EventMeta{ID: id, Timestamp: 1490400000},
		}}}
		c.mu.Lock()
		pos := slices.Index(nodes, c.byName[c.ring.Owner(batch[i].TriggerIdentity)])
		c.mu.Unlock()
		direct[pos] = append(direct[pos], batch[i])
	}
	for pos, g := range direct {
		if len(g) == 0 {
			t.Fatalf("node %s owns none of the batch", nodes[pos].Name)
		}
	}
	// The count is of a warm pool: one P, so every batch finds the
	// scratch the last one returned, and no collection to empty it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(push func()) float64 {
		var ms runtime.MemStats
		var total uint64
		var window func(run, i int)
		window = func(run, i int) {
			if i < len(nodes) {
				nodes[i].Engine.Replay(func() error { window(run, i+1); return nil })
				return
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			push()
			runtime.ReadMemStats(&ms)
			if run > 0 { // run 0 warms the pools
				total += ms.Mallocs - before
			}
		}
		for run := 0; run <= runs; run++ {
			window(run, 0)
		}
		return float64(total) / runs
	}
	engineSide := count(func() {
		for pos, g := range direct {
			nodes[pos].Engine.PushDeliveries(g)
		}
	})
	routed := count(func() {
		if resp := c.PushDeliveries(batch); resp.Accepted != deliveries {
			t.Fatalf("push %+v", resp)
		}
	})
	t.Logf("50-delivery batch over 4 nodes: %.2f allocs routed, %.2f handed to the engines directly", routed, engineSide)
	if routed > engineSide+0.1 {
		t.Errorf("routing a 50-delivery batch allocates %.2f/op, the engines' share is %.2f, want at most 0.1 more", routed, engineSide)
	}
}

// residentApplet is the applet bench/partner.go generates: one trigger
// field, two templated action fields, one partner service for both
// sides, the applet index in the user token, ten applets to a user.
func residentApplet(i int) engine.Applet {
	tok := "t" + strconv.Itoa(i)
	return engine.Applet{
		ID:     fmt.Sprintf("a%07d-%03x", i, i%4096),
		UserID: fmt.Sprintf("u%06d", i/10),
		Trigger: engine.ServiceRef{
			Service: "partner", BaseURL: "http://partner.bench", Slug: "fired",
			Fields:     map[string]string{"n": strconv.Itoa(i)},
			ServiceKey: "bench-key", UserToken: tok,
		},
		Action: engine.ServiceRef{
			Service: "partner", BaseURL: "http://partner.bench", Slug: "act",
			Fields:     map[string]string{"eid": "{{eid}}", "at": "{{at}}"},
			ServiceKey: "bench-key", UserToken: tok,
		},
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// residentPerApplet installs applets through install, polls each once
// (a silent poll), and returns the live heap per applet over the
// baseline taken before build ran; the applet definitions are the
// caller's and sit in the baseline.
func residentPerApplet(t *testing.T, applets []engine.Applet, build func(cfg engine.Config) (install func(engine.Applet) error, stop func())) float64 {
	t.Helper()
	clock := simtime.NewSimDefault()
	base := liveHeap()
	install, stop := build(engine.Config{Clock: clock, RNG: stats.NewRNG(1), Doer: ackDoer{},
		Poll: engine.FixedInterval{Interval: time.Minute}, DispatchDelay: -1, Shards: 4, ShardWorkers: 4, Push: true})
	var heap uint64
	clock.Run(func() {
		defer stop()
		for i := range applets {
			if err := install(applets[i]); err != nil {
				t.Error(err)
				return
			}
		}
		clock.Sleep(time.Minute + time.Second)
		heap = liveHeap()
	})
	runtime.KeepAlive(install)
	return float64(heap-base) / float64(len(applets))
}

// TestClusterResidentBytesPerApplet bounds what the router itself keeps
// per applet: the benchmark's population at a fifth of its size on a
// four-node cluster, over the same population on four engines that each
// hold what the ring gives one node. Measured -6 to 0 B, the noise of
// the two measurements; a directory of the router's own cost 99 B. The
// bound is not taken against one engine holding the whole population:
// that keeps ~31 B per applet less than four, because each user's
// applets spread over the nodes and each node keeps a list and an index
// entry for the user.
func TestClusterResidentBytesPerApplet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes object sizes")
	}
	const n, nodes = 20_000, 4
	applets := make([]engine.Applet, n)
	for i := range applets {
		applets[i] = residentApplet(i)
	}
	ring := NewRing(0)
	for k := 0; k < nodes; k++ {
		ring.Add(fmt.Sprintf("node%d", k))
	}
	single := residentPerApplet(t, applets, func(cfg engine.Config) (func(engine.Applet) error, func()) {
		e := engine.New(cfg)
		return e.Install, e.Stop
	})
	split := residentPerApplet(t, applets, func(cfg engine.Config) (func(engine.Applet) error, func()) {
		es := make(map[string]*engine.Engine, nodes)
		for k := 0; k < nodes; k++ {
			es[fmt.Sprintf("node%d", k)] = engine.New(cfg)
		}
		install := func(a engine.Applet) error { return es[ring.Owner(a.TriggerIdentity())].Install(a) }
		return install, func() {
			for _, e := range es {
				e.Stop()
			}
		}
	})
	cluster := residentPerApplet(t, applets, func(cfg engine.Config) (func(engine.Applet) error, func()) {
		c := New(Config{Nodes: nodes, Engine: cfg})
		return c.Install, c.Stop
	})
	t.Logf("resident per applet: %.1f B on a %d-node cluster, %.1f B on %d engines, %.1f B on one (%d applets)",
		cluster, nodes, split, nodes, single, n)
	if d := cluster - split; d > 16 {
		t.Errorf("the cluster keeps %.1f B per applet more than its nodes' engines alone, want <= 16", d)
	}
}
