package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// oneEventDoer answers every trigger poll with the one event buffered at
// start and acks every action.
type oneEventDoer struct{ start time.Time }

func (d oneEventDoer) Do(req *http.Request) (*http.Response, error) {
	body := `{}`
	if strings.HasPrefix(req.URL.Path, proto.TriggersPath) && req.Method == http.MethodPost {
		body = fmt.Sprintf(`{"data":[{"meta":{"id":"e1","timestamp":%d,"timestamp_ns":%d}}]}`,
			d.start.Unix(), d.start.UnixNano())
	}
	return &http.Response{StatusCode: http.StatusOK, Header: make(http.Header),
		Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
}

// The console against a 3-node cluster reads the same series as against
// one engine: the cadence and T2A rows carry data, and the shards and
// worker slots are the nodes' sums. Against one engine with the SLO tier
// and push ingress it renders the SLO rows and the push/ingress line.
func TestSnapshotAgainstCluster(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int // zero runs one engine
		mod   func(*engine.Config)
		want  []string
	}{
		{"cluster", 3, nil, []string{"applets 6 ", "/24   shards 6\n", "budget 15 qps", "cluster 3 nodes"}},
		{"engine", 0, func(c *engine.Config) {
			c.Push = true
			c.SLO = &slo.Config{Objective: slo.Objective{Threshold: 120 * time.Second}}
		}, []string{"applets 6 ", "/8   shards 2\n", "budget 5 qps", "ingress depth 0   push events 1 ",
			"SLO [OK] 99% < 120s", "\n  svc              [ok] "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simtime.NewSimDefault()
			cfg := engine.Config{
				Clock: clock, RNG: stats.NewRNG(7), Doer: oneEventDoer{start: clock.Now()},
				Poll: engine.FixedInterval{Interval: time.Minute}, DispatchDelay: -1,
				Shards: 2, ShardWorkers: 4, PollBudgetQPS: 5,
				Metrics: obs.NewRegistry(),
			}
			if tc.mod != nil {
				tc.mod(&cfg)
			}
			var h host
			var actionsOK func() int64
			if tc.nodes > 0 {
				c := cluster.New(cluster.Config{Nodes: tc.nodes, Engine: cfg})
				h, actionsOK = c, func() int64 { return c.Stats().ActionsOK }
			} else {
				e := engine.New(cfg)
				h, actionsOK = e, func() int64 { return e.Stats().ActionsOK }
			}
			frame := render(t, clock, h, actionsOK)
			for _, want := range tc.want {
				if !strings.Contains(frame, want) {
					t.Errorf("frame lacks %q:\n%s", want, frame)
				}
			}
			for _, row := range []string{"cadence s: ", "t2a     s: "} {
				if !strings.Contains(frame, row+"n ") {
					t.Errorf("row %q carries no data:\n%s", row, frame)
				}
			}
		})
	}
}

// host is what an engine and a cluster both serve.
type host interface {
	Install(engine.Applet) error
	PushDeliveries([]proto.PushDelivery) proto.PushResponse
	Handler() http.Handler
	Stop()
}

// render installs six applets on h, lets them execute, pushes one event
// (counted unmatched or rejected where nothing takes it), and returns
// the console's frame of h.
func render(t *testing.T, clock *simtime.SimClock, h host, actionsOK func() int64) string {
	var frame string
	clock.Run(func() {
		defer h.Stop()
		ref := engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired"}
		var first engine.Applet
		for i := 0; i < 6; i++ {
			a := engine.Applet{ID: fmt.Sprintf("a%d", i), UserID: "u1", Trigger: ref, Action: ref}
			if err := h.Install(a); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = a
			}
		}
		clock.Sleep(90 * time.Second)
		h.PushDeliveries([]proto.PushDelivery{{TriggerIdentity: first.TriggerIdentity(),
			Events: []proto.TriggerEvent{{Meta: proto.EventMeta{ID: "p1", Timestamp: clock.Now().Unix()}}}}})
		clock.Sleep(time.Second)
		if actionsOK() == 0 {
			t.Fatal("no execution")
		}
		// The simulated clock stands still while this actor waits on
		// the real server.
		srv := httptest.NewServer(h.Handler())
		defer srv.Close()
		con := &console{base: srv.URL, hc: srv.Client(), topN: 8}
		var err error
		if frame, err = con.snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	return frame
}
