package core

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// The §4 method is one controlled rig run again and again: a fresh
// testbed, one applet, N trials. onTestbed and measureT2A are that rig
// for the paper-reproduction studies; simRig is its counterpart for the
// studies that drive engines directly on a simulated clock.

// onTestbed builds a testbed from cfg, runs body inside tb.Run (which
// stops the engine when body returns) and returns the testbed and
// body's error.
func onTestbed(cfg testbed.Config, body func(tb *testbed.Testbed) error) (*testbed.Testbed, error) {
	tb := testbed.New(cfg)
	var err error
	tb.Run(func() { err = body(tb) })
	return tb, err
}

// t2a measures spec's T2A over trials on tb, in seconds. Call it inside
// tb.Run.
func t2a(tb *testbed.Testbed, spec testbed.AppletSpec, trials int) ([]float64, error) {
	lats, err := tb.MeasureT2A(spec, testbed.T2AOptions{Trials: trials})
	return stats.Durations(lats), err
}

// measureT2A measures spec's T2A over trials on a fresh testbed built
// from cfg, in seconds.
func measureT2A(cfg testbed.Config, spec testbed.AppletSpec, trials int) (xs []float64, err error) {
	_, err = onTestbed(cfg, func(tb *testbed.Testbed) (err error) {
		xs, err = t2a(tb, spec, trials)
		return err
	})
	return xs, err
}

// simRig is one run of an engine-driving study: a fresh simulated clock
// and the collectors the study's engines report to.
type simRig struct {
	clock *simtime.SimClock

	mu sync.Mutex
	// cutoff, t2a, ingest and pushed are onSpan's: the T2A of every
	// span whose poll was sent after cutoff, and the ingress wait of
	// the pushed ones among them.
	cutoff time.Time
	t2a    []float64
	ingest []float64
	pushed int
	// acks is trace's: action acks per "applet/event".
	acks map[string]int
}

func newSimRig() *simRig {
	return &simRig{clock: simtime.NewSimDefault(), acks: make(map[string]int)}
}

// run runs body as the clock's root actor and returns its error.
func (r *simRig) run(body func() error) error {
	var err error
	r.clock.Run(func() { err = body() })
	return err
}

// onSpan is an engine's OnSpan: it keeps the spans past the warm-up.
func (r *simRig) onSpan(sp obs.ExecSpan) {
	if !sp.PollSentAt.After(r.cutoff) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t2a = append(r.t2a, sp.T2A().Seconds())
	if sp.Pushed {
		r.pushed++
		r.ingest = append(r.ingest, sp.Ingest().Seconds())
	}
}

// trace is an engine's Trace: it counts the action acks of every
// applet+event pair, the tally behind the exactly-once audits.
func (r *simRig) trace(ev engine.TraceEvent) {
	if ev.Kind != engine.TraceActionAcked {
		return
	}
	r.mu.Lock()
	r.acks[ev.AppletID+"/"+ev.EventID]++
	r.mu.Unlock()
}

// duplicates counts the applet+event pairs acked more than once.
func (r *simRig) duplicates() int {
	n := 0
	for _, c := range r.acks {
		if c > 1 {
			n++
		}
	}
	return n
}

// installN installs applet(0), …, applet(n-1) in that order and stops
// at the first error.
func installN(install func(engine.Applet) error, n int, applet func(int) engine.Applet) error {
	for i := 0; i < n; i++ {
		if err := install(applet(i)); err != nil {
			return fmt.Errorf("install %d: %w", i, err)
		}
	}
	return nil
}

// numberedApplets is a population of one applet per subscription: applet
// i is prefix+i, belongs to one of 10 000 users, and watches service's
// "fired" trigger with field n=i.
func numberedApplets(prefix, service string) func(i int) engine.Applet {
	return func(i int) engine.Applet {
		return engine.Applet{
			ID:     fmt.Sprintf("%s%06d", prefix, i),
			UserID: fmt.Sprintf("u%05d", i%10000),
			Trigger: engine.ServiceRef{
				Service: service, BaseURL: "http://svc.sim", Slug: "fired",
				Fields: map[string]string{"n": fmt.Sprint(i)},
			},
			Action: engine.ServiceRef{Service: service, BaseURL: "http://svc.sim", Slug: "act"},
		}
	}
}

// pushPartner starts the partner side of the push tier for the first
// hot subscriptions of a paretoApplet population. Each time wait
// returns true it hands deliver one batch: the events that occurred
// since the previous batch, with the IDs and (nanosecond) timestamps
// doer serves to polls, so dedup reconciles the two paths and each
// event's T2A includes its wait for the flush.
func pushPartner(clock simtime.Clock, doer *SkewedLoad, hot int, wait func() bool, deliver func([]proto.PushDelivery)) {
	identities, markers := make([]string, hot), make([]string, hot)
	for j := range hot {
		a := paretoApplet(j, hot)
		identities[j], markers[j] = a.TriggerIdentity(), a.Trigger.Fields["n"]
	}
	next := make([]int, hot)
	clock.Go(func() {
		for wait() {
			now := clock.Now()
			var ds []proto.PushDelivery
			for j := range hot {
				hi := doer.EventsOccurred(markers[j], now)
				if hi <= next[j] {
					continue
				}
				evs := make([]proto.TriggerEvent, 0, hi-next[j])
				for i := next[j]; i < hi; i++ {
					t := doer.EventTime(markers[j], i)
					evs = append(evs, proto.TriggerEvent{Meta: proto.EventMeta{
						ID:             fmt.Sprintf("%s-%06d", markers[j], i),
						Timestamp:      t.Unix(),
						TimestampNanos: t.UnixNano(),
					}})
				}
				next[j] = hi
				ds = append(ds, proto.PushDelivery{TriggerIdentity: identities[j], Events: evs})
			}
			if len(ds) > 0 {
				deliver(ds)
			}
		}
	})
}

// reply answers req with 200 and body, instantly: the studies' stub
// partners measure the engine, not a simulated network.
func reply(req *http.Request, body string) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// cannedPolls is a Doer that answers every trigger poll with the same
// body and every other request with an empty object.
type cannedPolls string

func (d cannedPolls) Do(req *http.Request) (*http.Response, error) {
	if strings.Contains(req.URL.Path, "/triggers/") {
		return reply(req, string(d))
	}
	return reply(req, `{}`)
}

// summary is stats.Summarize, or the zero Summary for no samples.
func summary(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	return stats.Summarize(xs)
}

// orDefault sets *v to def when it is not positive: the zero-value
// defaults of the study configs.
func orDefault[T int | float64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}
