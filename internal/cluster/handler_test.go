package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestClusterPushHandlerMatchesEngine: the router's POST /v1/push and a
// single engine's answer every body alike — seeded batches over
// installed, unknown and empty identities, malformed bodies, a null
// body and one past httpx.MaxBodyBytes — with the same status and, for
// a decoded batch, the same PushResponse.
func TestClusterPushHandlerMatchesEngine(t *testing.T) {
	clock := simtime.NewSimDefault()
	doer := &markerDoer{clock: clock, start: clock.Now(), period: time.Hour}
	ecfg := engine.Config{
		Clock: clock, RNG: stats.NewRNG(5), Doer: doer,
		Poll: engine.FixedInterval{Interval: time.Hour}, DispatchDelay: -1,
		Coalesce: true, Push: true, IngressQueue: 1 << 14,
	}
	c := New(Config{Nodes: 3, Engine: ecfg})
	e := engine.New(ecfg)
	const N = 40
	var idents []string
	for j := 0; j < N; j++ {
		idents = append(idents, clusterKey(j))
	}
	idents = append(idents, "ti-unknown", "")

	rng := rand.New(rand.NewSource(11))
	batch := func(k int) string {
		var ds []string
		for range rng.Intn(5) {
			var evs []string
			for i := range rng.Intn(4) {
				evs = append(evs, fmt.Sprintf(`{"k":"v%d","meta":{"id":"b%d-%d","timestamp":%d}}`,
					rng.Intn(3), k, i, 1000+k))
			}
			d := fmt.Sprintf(`{"trigger_identity":%q,"events":[%s]}`, idents[rng.Intn(len(idents))], strings.Join(evs, ","))
			if rng.Intn(8) == 0 {
				d = fmt.Sprintf(`{"trigger_identity":%q}`, idents[rng.Intn(len(idents))])
			}
			ds = append(ds, d)
		}
		return `{"data":[` + strings.Join(ds, ",") + `]}`
	}
	var bodies []string
	for k := 0; k < 200; k++ {
		bodies = append(bodies, batch(k))
	}
	bodies = append(bodies,
		`null`, ``, ` `, `{}`, `[]`, `"x"`, `{"data":null}`, `{"data":{}}`, ` {"data":[]} `,
		`{"data":[`, `{"data":[]} x`, `{"data":[{"trigger_identity":5}]}`,
		`{"data":[{"trigger_identity":"`+idents[0]+`","events":[{"k":"v"}]}]}`,
		`{"data":[{"trigger_identity":"`+idents[0]+`","events":[{"meta":{"id":"x"}},]}]}`,
		`{"data":[],"pad":"`+strings.Repeat("x", httpx.MaxBodyBytes)+`"}`,
	)

	post := func(h http.Handler, body string) (int, proto.PushResponse, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, proto.PushPath, strings.NewReader(body)))
		var resp proto.PushResponse
		if rec.Code == http.StatusOK || rec.Code == http.StatusTooManyRequests {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("answered %d %q: %v", rec.Code, rec.Body, err)
			}
		}
		return rec.Code, resp, rec.Body.String()
	}
	clock.Run(func() {
		defer c.Stop()
		defer e.Stop()
		for j := 0; j < N; j++ {
			if err := c.Install(clusterApplet(j, "a")); err != nil {
				t.Fatal(err)
			}
			if err := e.Install(clusterApplet(j, "a")); err != nil {
				t.Fatal(err)
			}
		}
		ch, eh := c.Handler(), e.Handler()
		var accepted, unmatched, refused int
		for _, body := range bodies {
			cc, cr, cb := post(ch, body)
			ec, er, eb := post(eh, body)
			if cc != ec || cr != er {
				t.Errorf("%.200s:\nrouter answered %d %+v %.200s\nengine answered %d %+v %.200s", body, cc, cr, cb, ec, er, eb)
			}
			accepted, unmatched = accepted+cr.Accepted, unmatched+cr.Unmatched
			if cc >= 400 {
				refused++
			}
			clock.Sleep(time.Second) // let the pushed executions run
		}
		if accepted == 0 || unmatched == 0 || refused == 0 {
			t.Errorf("%d accepted, %d unmatched events, %d refused bodies: a verdict went unexercised", accepted, unmatched, refused)
		}
	})
}
