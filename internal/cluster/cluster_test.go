package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// markerDoer is the cluster-test upstream: polls carrying an "n" field
// matching m#### are answered with every event that marker has emitted
// so far (newest first, capped at 50) — the whole buffer re-served on
// every poll, so the per-applet dedup rings are the only duplicate
// guard and exactly-once across a migration is directly observable.
// Everything else (action requests) acks with an empty body.
type markerDoer struct {
	clock  simtime.Clock
	start  time.Time
	period time.Duration
}

var markerRe = regexp.MustCompile(`"n":"(m[0-9]+)"`)

// eventsOccurred is how many events marker has emitted by now; event i
// occurs at start + (i+1)*period.
func (d *markerDoer) eventsOccurred(now time.Time) int {
	return int(now.Sub(d.start) / d.period)
}

func (d *markerDoer) Do(req *http.Request) (*http.Response, error) {
	ok := func(body string) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader(body)),
			Header:     make(http.Header),
			Request:    req,
		}, nil
	}
	if req.Body == nil {
		return ok(`{}`)
	}
	raw, _ := io.ReadAll(req.Body)
	m := markerRe.FindStringSubmatch(string(raw))
	if m == nil {
		return ok(`{}`)
	}
	avail := d.eventsOccurred(d.clock.Now())
	lo := 0
	if avail > 50 {
		lo = avail - 50
	}
	var b strings.Builder
	b.WriteString(`{"data":[`)
	for i := avail - 1; i >= lo; i-- {
		if i < avail-1 {
			b.WriteByte(',')
		}
		ts := d.start.Add(time.Duration(i+1) * d.period)
		fmt.Fprintf(&b, `{"meta":{"id":"%s-%06d","timestamp":%d,"timestamp_ns":%d}}`,
			m[1], i, ts.Unix(), ts.UnixNano())
	}
	b.WriteString(`]}`)
	return ok(b.String())
}

// ackCollector tallies TraceActionAcked per applet+event across every
// node (the template Trace func is shared, so all nodes feed it).
type ackCollector struct {
	mu    sync.Mutex
	acked map[string]int
}

func (c *ackCollector) observe(ev engine.TraceEvent) {
	if ev.Kind != engine.TraceActionAcked {
		return
	}
	c.mu.Lock()
	if c.acked == nil {
		c.acked = make(map[string]int)
	}
	c.acked[ev.AppletID+"/"+ev.EventID]++
	c.mu.Unlock()
}

// clusterApplet builds the j-th test applet: marker m%04d, two members
// per marker (suffix a/b) coalescing into one subscription.
func clusterApplet(j int, member string) engine.Applet {
	return engine.Applet{
		ID:     fmt.Sprintf("a%04d%s", j, member),
		UserID: fmt.Sprintf("u%02d", j%7),
		Trigger: engine.ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"n": fmt.Sprintf("m%04d", j)},
		},
		Action: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
	}
}

func clusterKey(j int) string {
	a := clusterApplet(j, "a")
	return a.CoalescedTriggerIdentity()
}

// TestClusterPlacementAndRouting: installs land on the ring owner,
// every node takes a share, push batches and identity hints reach only
// the owner, user hints broadcast, removes come off the owner.
func TestClusterPlacementAndRouting(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Hour}
	c := New(Config{
		Nodes: 4,
		Engine: engine.Config{
			Clock: clock, RNG: stats.NewRNG(21), Doer: doer,
			Poll: engine.FixedInterval{Interval: time.Hour}, DispatchDelay: -1,
			Coalesce: true, Push: true,
			RealtimeServices: map[string]bool{"svc": true},
		},
	})
	const N = 200
	clock.Run(func() {
		for j := 0; j < N; j++ {
			if err := c.Install(clusterApplet(j, "a")); err != nil {
				t.Fatalf("install %d: %v", j, err)
			}
		}
		total := 0
		for _, n := range c.Nodes() {
			s := n.Engine.Stats()
			if s.Applets == 0 {
				t.Errorf("node %s owns no applets out of %d", n.Name, N)
			}
			total += s.Applets
		}
		if total != N {
			t.Errorf("applets across nodes = %d, want %d", total, N)
		}
		c.mu.Lock()
		for j := 0; j < N; j += 37 {
			a := clusterApplet(j, "a")
			owner := c.byName[c.ring.Owner(clusterKey(j))]
			if key, ok := owner.Engine.AppletKey(a.ID); !ok || key != clusterKey(j) {
				t.Errorf("applet %s not on ring owner %s under its key (got %q, %v)", a.ID, owner.Name, key, ok)
			}
		}
		c.mu.Unlock()

		// A push batch reaches only the owning node.
		key := clusterKey(5)
		resp := c.PushDeliveries([]proto.PushDelivery{{
			TriggerIdentity: key,
			Events: []proto.TriggerEvent{
				{Meta: proto.EventMeta{ID: "m0005-push-0", Timestamp: clock.Now().Unix()}},
				{Meta: proto.EventMeta{ID: "m0005-push-1", Timestamp: clock.Now().Unix()}},
			},
		}})
		if resp.Accepted != 2 || resp.Rejected != 0 || resp.Unmatched != 0 {
			t.Errorf("push response = %+v, want 2 accepted", resp)
		}
		clock.Sleep(time.Second) // let the ingress queue drain
		owner := func() string {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.ring.Owner(key)
		}()
		for _, n := range c.Nodes() {
			got := n.Engine.Stats().IngressAccepted
			if n.Name == owner && got != 2 {
				t.Errorf("owner %s accepted %d pushed events, want 2", n.Name, got)
			}
			if n.Name != owner && got != 0 {
				t.Errorf("non-owner %s accepted %d pushed events, want 0", n.Name, got)
			}
		}

		// An identity hint counts once (owner only); a user hint counts
		// once per live node (broadcast).
		before := c.Stats().HintsReceived
		c.ApplyHint(proto.RealtimeHint{TriggerIdentity: key})
		clock.Sleep(10 * time.Second)
		if got := c.Stats().HintsReceived - before; got != 1 {
			t.Errorf("identity hint counted %d times, want 1", got)
		}
		before = c.Stats().HintsReceived
		c.ApplyHint(proto.RealtimeHint{UserID: "u03"})
		clock.Sleep(10 * time.Second)
		if got := c.Stats().HintsReceived - before; got != 4 {
			t.Errorf("user hint counted %d times, want one per node (4)", got)
		}

		c.Remove(clusterApplet(9, "a").ID)
		if got := c.Stats().Applets; got != N-1 {
			t.Errorf("applets after remove = %d, want %d", got, N-1)
		}
		c.Stop()
	})
}

// TestClusterKillAndRebalance is the chaos soak scripts/verify.sh runs
// under -race: four nodes poll AND receive pushed duplicates of the
// same event stream, one node dies mid-run, the coordinator sweeps it
// off the ring, and across the whole timeline — two delivery paths,
// one node loss, live migration — every applet executes every event
// exactly once and nothing that occurred before the tail margin is
// lost.
func TestClusterKillAndRebalance(t *testing.T) {
	const (
		markers = 30
		period  = 10 * time.Second
		killAt  = 60 * time.Second
		sweepAt = 70 * time.Second
		endAt   = 130 * time.Second
	)
	clock := simtime.NewSimDefault()
	start := clock.Now()
	doer := &markerDoer{clock: clock, start: start, period: period}
	col := &ackCollector{}
	c := New(Config{
		Nodes: 4,
		Engine: engine.Config{
			Clock: clock, RNG: stats.NewRNG(11), Doer: doer,
			Poll: engine.FixedInterval{Interval: 5 * time.Second}, DispatchDelay: -1,
			Coalesce: true, Push: true, Trace: col.observe,
		},
	})

	clock.Run(func() {
		for j := 0; j < markers; j++ {
			for _, m := range []string{"a", "b"} {
				if err := c.Install(clusterApplet(j, m)); err != nil {
					t.Fatalf("install: %v", err)
				}
			}
		}
		if got := c.Stats().Subscriptions; got != markers {
			t.Fatalf("subscriptions = %d, want %d (coalescing)", got, markers)
		}

		// Push flusher: every period, push the events that occurred since
		// the last flush — the same IDs the poll path serves, so the two
		// paths race and dedup must keep execution exactly-once.
		stop := clock.NewStopper()
		clock.Go(func() {
			sent := make([]int, markers)
			for clock.SleepOrStop(stop, period) {
				now := clock.Now()
				var ds []proto.PushDelivery
				for j := 0; j < markers; j++ {
					hi := doer.eventsOccurred(now)
					if hi <= sent[j] {
						continue
					}
					var evs []proto.TriggerEvent
					for i := sent[j]; i < hi; i++ {
						ts := start.Add(time.Duration(i+1) * period)
						evs = append(evs, proto.TriggerEvent{Meta: proto.EventMeta{
							ID: fmt.Sprintf("m%04d-%06d", j, i), Timestamp: ts.Unix(), TimestampNanos: ts.UnixNano(),
						}})
					}
					sent[j] = hi
					ds = append(ds, proto.PushDelivery{TriggerIdentity: clusterKey(j), Events: evs})
				}
				if len(ds) > 0 {
					c.PushDeliveries(ds)
				}
			}
		})

		clock.Sleep(killAt)
		// Kill the node carrying the most subscriptions so the rebalance
		// is guaranteed to have work.
		var victim *Node
		for _, n := range c.Nodes() {
			if victim == nil || n.Engine.Stats().Subscriptions > victim.Engine.Stats().Subscriptions {
				victim = n
			}
		}
		victimSubs := victim.Engine.Stats().Subscriptions
		if victimSubs == 0 {
			t.Fatal("no node owns any subscriptions")
		}
		if err := c.FailNode(victim.Name); err != nil {
			t.Fatalf("fail node: %v", err)
		}

		clock.Sleep(sweepAt - killAt) // outage window: events keep occurring
		moved := c.Sweep()
		if moved != victimSubs {
			t.Errorf("sweep migrated %d subscriptions, victim held %d", moved, victimSubs)
		}
		st := c.Stats()
		if st.NodesAlive != 3 || st.Moves == 0 || st.MovedApplets != int64(2*moved) {
			t.Errorf("post-sweep stats: alive=%d moves=%d movedApplets=%d (moved=%d)",
				st.NodesAlive, st.Moves, st.MovedApplets, moved)
		}
		if got := st.Subscriptions; got != markers {
			t.Errorf("subscriptions after rebalance = %d, want %d", got, markers)
		}

		clock.Sleep(endAt - sweepAt)
		stop.Stop()
		c.Stop()
	})

	// Exactly-once: no applet+event pair executed more than once, across
	// poll/push racing and the migration.
	col.mu.Lock()
	defer col.mu.Unlock()
	for k, n := range col.acked {
		if n != 1 {
			t.Errorf("%s executed %d times, want exactly once", k, n)
		}
	}
	// No loss: every event that occurred at least two poll intervals +
	// one flush before the end must have executed for both members of
	// its marker — including the events that occurred during the outage
	// (recovered by the re-served poll buffer after the migration).
	safe := int((endAt - 20*time.Second) / period) // events 0..safe-1 must be in
	missing := 0
	for j := 0; j < markers; j++ {
		for _, m := range []string{"a", "b"} {
			id := clusterApplet(j, m).ID
			for i := 0; i < safe; i++ {
				if col.acked[fmt.Sprintf("%s/m%04d-%06d", id, j, i)] != 1 {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d applet+event executions lost (of %d expected)", missing, markers*2*safe)
	}
	if len(col.acked) == 0 {
		t.Fatal("nothing executed at all")
	}
}

// TestClusterAddNode: growing the ring migrates roughly 1/N of the
// subscriptions onto the new node and loses none.
func TestClusterAddNode(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Hour}
	c := New(Config{
		Nodes: 4,
		Engine: engine.Config{
			Clock: clock, RNG: stats.NewRNG(31), Doer: doer,
			Poll: engine.FixedInterval{Interval: time.Minute}, DispatchDelay: -1, Coalesce: true,
		},
	})
	const N = 120
	clock.Run(func() {
		for j := 0; j < N; j++ {
			if err := c.Install(clusterApplet(j, "a")); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
		n, err := c.AddNode()
		if err != nil {
			t.Fatalf("add node: %v", err)
		}
		clock.Sleep(time.Second)
		got := n.Engine.Stats().Subscriptions
		if got == 0 || got > N/2 {
			t.Errorf("new node owns %d subscriptions, want ~%d", got, N/5)
		}
		if total := c.Stats().Subscriptions; total != N {
			t.Errorf("subscriptions after grow = %d, want %d", total, N)
		}
		if int64(got) != c.Stats().Moves {
			t.Errorf("moves counter = %d, new node owns %d", c.Stats().Moves, got)
		}
		c.Stop()
	})
}

// TestClusterMetricsNamingConvention runs the shared metric-name linter
// over the full cluster registry — the ifttt_cluster_* family plus the
// engine series the nodes' child registries roll up — and checks the
// roll-up: every series one engine registers with the same template is
// there, each equal to the sum over the nodes' own registries, and each
// counter Stats also reports equal to the cluster's summed Stats.
func TestClusterMetricsNamingConvention(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &markerDoer{clock: clock, start: clock.Now(), period: 40 * time.Second}
	tmpl := engine.Config{
		Clock: clock, RNG: stats.NewRNG(41), Doer: doer,
		Poll: engine.FixedInterval{Interval: time.Minute}, DispatchDelay: -1,
		Coalesce: true, Push: true, PollBudgetQPS: 100, Shards: 2, ShardWorkers: 3,
	}
	single := tmpl
	single.Metrics = obs.NewRegistry()
	one := engine.New(single)
	one.Stop()
	reg := obs.NewRegistry()
	tmpl.Metrics = reg
	c := New(Config{Nodes: 3, Engine: tmpl})
	clock.Run(func() {
		defer c.Stop()
		for j := 0; j < 30; j++ {
			for _, m := range []string{"a", "b"} {
				if err := c.Install(clusterApplet(j, m)); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.PushDeliveries([]proto.PushDelivery{{TriggerIdentity: clusterKey(3),
			Events: []proto.TriggerEvent{{Meta: proto.EventMeta{ID: "m0003-push", Timestamp: clock.Now().Unix()}}}}})
		c.ApplyHint(proto.RealtimeHint{UserID: "u01"})
		clock.Sleep(5 * time.Minute)
		// A failed node's counters stay in the sums; its capacity does not.
		if err := c.FailNode("node1"); err != nil {
			t.Fatal(err)
		}
		for _, m := range reg.Snapshot() {
			if want := map[string]float64{"ifttt_engine_shards": 4, "ifttt_engine_worker_slots": 12}[m.Name]; want != 0 && *m.Value != want {
				t.Errorf("%s = %g with two live nodes, want %g", m.Name, *m.Value, want)
			}
		}
	})

	snap := reg.Snapshot()
	for _, v := range obs.LintMetricNames(snap) {
		t.Error(v)
	}
	have := make(map[string]obs.MetricSnapshot, len(snap))
	for _, m := range snap {
		have[m.Name] = m
	}
	for _, name := range []string{
		"ifttt_cluster_nodes", "ifttt_cluster_ring_points", "ifttt_cluster_moves_total",
		"ifttt_cluster_node0_up", "ifttt_cluster_node2_subscriptions",
	} {
		if _, ok := have[name]; !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	engineNames := single.Metrics.Snapshot()
	if len(engineNames) < 40 {
		t.Fatalf("one engine registers only %d series", len(engineNames))
	}
	for _, m := range engineNames {
		if _, ok := have[m.Name]; !ok {
			t.Errorf("engine series %s missing from the cluster registry", m.Name)
		}
	}

	// Each node engine serves its own registry; the cluster's value is
	// their sum.
	type sum struct {
		value        float64
		count        int64
		bucketCounts []int64
	}
	sums := map[string]*sum{}
	for _, n := range c.Nodes() {
		rec := httptest.NewRecorder()
		n.Engine.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
		var nodeSnap []obs.MetricSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &nodeSnap); err != nil {
			t.Fatalf("%s /metrics: %v", n.Name, err)
		}
		for _, m := range nodeSnap {
			s := sums[m.Name]
			if s == nil {
				s = &sum{}
				sums[m.Name] = s
			}
			if m.Histogram != nil {
				s.count += m.Histogram.Count
				for i, b := range m.Histogram.Buckets {
					if i == len(s.bucketCounts) {
						s.bucketCounts = append(s.bucketCounts, 0)
					}
					s.bucketCounts[i] += b.Count
				}
			} else {
				s.value += *m.Value
			}
		}
	}
	for name, s := range sums {
		m := have[name]
		if m.Histogram != nil {
			for i, b := range m.Histogram.Buckets {
				if b.Count != s.bucketCounts[i] {
					t.Errorf("%s bucket %d = %d, nodes sum to %d", name, i, b.Count, s.bucketCounts[i])
				}
			}
			if m.Histogram.Count != s.count {
				t.Errorf("%s count = %d, nodes sum to %d", name, m.Histogram.Count, s.count)
			}
		} else if m.Value == nil || *m.Value != s.value {
			t.Errorf("%s = %v, nodes sum to %g", name, m.Value, s.value)
		}
	}

	st := c.Stats()
	for name, want := range map[string]int64{
		"ifttt_engine_polls_total":                   st.Polls,
		"ifttt_engine_poll_failures_total":           st.PollFailures,
		"ifttt_engine_poll_errors_transport_total":   st.PollErrorsTransport,
		"ifttt_engine_poll_errors_http_total":        st.PollErrorsHTTP,
		"ifttt_engine_action_errors_transport_total": st.ActionErrorsTransport,
		"ifttt_engine_action_errors_http_total":      st.ActionErrorsHTTP,
		"ifttt_engine_breaker_opens_total":           st.BreakerOpens,
		"ifttt_engine_breaker_closes_total":          st.BreakerCloses,
		"ifttt_engine_breaker_probes_total":          st.BreakerProbes,
		"ifttt_engine_polls_deferred_total":          st.PollsDeferred,
		"ifttt_engine_poll_budget_grants_total":      st.BudgetGrants,
		"ifttt_engine_polls_coalesced_total":         st.PollsCoalesced,
		"ifttt_engine_events_received_total":         st.EventsReceived,
		"ifttt_engine_actions_ok_total":              st.ActionsOK,
		"ifttt_engine_actions_failed_total":          st.ActionsFailed,
		"ifttt_engine_hints_received_total":          st.HintsReceived,
		"ifttt_engine_condition_skips_total":         st.ConditionSkips,
		"ifttt_engine_push_batches_total":            st.PushBatches,
		"ifttt_engine_push_events_total":             st.PushEvents,
		"ifttt_ingest_accepted_total":                st.IngressAccepted,
		"ifttt_ingest_rejected_total":                st.IngressRejected,
		"ifttt_ingest_unmatched_total":               st.IngressUnmatched,
	} {
		if v := have[name].Value; v == nil || int64(*v) != want {
			t.Errorf("%s = %v, Stats sum %d", name, v, want)
		}
	}
	if st.Polls == 0 || st.ActionsOK == 0 || st.PushEvents == 0 || st.HintsReceived != 3 {
		t.Errorf("the run exercised too little: %+v", st.Stats)
	}
	if h := have["ifttt_t2a_seconds"].Histogram; h == nil || h.Count != st.ActionsOK {
		t.Errorf("ifttt_t2a_seconds = %+v, want %d executions", h, st.ActionsOK)
	}
}
