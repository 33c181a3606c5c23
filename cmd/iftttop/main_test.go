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
// worker slots are the nodes' sums.
func TestSnapshotAgainstCluster(t *testing.T) {
	clock := simtime.NewSimDefault()
	c := cluster.New(cluster.Config{Nodes: 3, Engine: engine.Config{
		Clock: clock, RNG: stats.NewRNG(7), Doer: oneEventDoer{start: clock.Now()},
		Poll: engine.FixedInterval{Interval: time.Minute}, DispatchDelay: -1,
		Shards: 2, ShardWorkers: 4, PollBudgetQPS: 5,
		Metrics: obs.NewRegistry(),
	}})
	var frame string
	clock.Run(func() {
		defer c.Stop()
		for i := 0; i < 6; i++ {
			ref := engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired"}
			a := engine.Applet{ID: fmt.Sprintf("a%d", i), UserID: "u1", Trigger: ref, Action: ref}
			if err := c.Install(a); err != nil {
				t.Fatal(err)
			}
		}
		clock.Sleep(90 * time.Second)
		if st := c.Stats(); st.ActionsOK == 0 {
			t.Fatalf("no execution: %+v", st.Stats)
		}
		// The simulated clock stands still while this actor waits on
		// the real server.
		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		con := &console{base: srv.URL, hc: srv.Client(), topN: 8}
		var err error
		if frame, err = con.snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{
		"applets 6 ", "/24   shards 6\n", "budget 15 qps", "cluster 3 nodes",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
	for _, row := range []string{"cadence s: ", "t2a     s: "} {
		if !strings.Contains(frame, row+"n ") {
			t.Errorf("row %q carries no data:\n%s", row, frame)
		}
	}
}
