package engine

import (
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// residentApplet is the applet bench/partner.go generates: one trigger
// field, two templated action fields, one partner service for both
// sides, the applet index in the user token, ten applets to a user.
func residentApplet(i int) Applet {
	tok := "t" + strconv.Itoa(i)
	return Applet{
		ID:     fmt.Sprintf("a%07d-%03x", i, i%4096),
		UserID: fmt.Sprintf("u%06d", i/10),
		Trigger: ServiceRef{
			Service: "partner", BaseURL: "http://partner.bench", Slug: "fired",
			Fields:     map[string]string{"n": strconv.Itoa(i)},
			ServiceKey: "bench-key", UserToken: tok,
		},
		Action: ServiceRef{
			Service: "partner", BaseURL: "http://partner.bench", Slug: "act",
			Fields:     map[string]string{"eid": "{{eid}}", "at": "{{at}}"},
			ServiceKey: "bench-key", UserToken: tok,
		},
	}
}

// emptyPollResponse is an empty 200 and its own body, in one
// allocation: a poll through emptyPollDoer costs what the engine's side
// of it costs plus one.
type emptyPollResponse struct {
	http.Response
	strings.Reader
}

func (*emptyPollResponse) Close() error { return nil }

type emptyPollDoer struct{}

func (emptyPollDoer) Do(*http.Request) (*http.Response, error) {
	r := &emptyPollResponse{Response: http.Response{StatusCode: http.StatusOK}}
	r.Reset(`{"data":[]}`)
	r.Body = r
	return &r.Response, nil
}

func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapObjects
}

// residentEngine keeps the population of TestResidentBytesPerApplet
// reachable until the process exits when a heap profile was asked for,
// so that the profile `go test -memprofile` writes on the way out shows
// it (`make residency`).
var residentEngine *Engine

// TestResidentBytesPerApplet bounds what a silent subscription keeps on
// the heap: the benchmark's poll_idle population at a fifth of its
// size, installed and polled once, measured the way bench/ measures
// heap_bytes_per_applet (live heap after a forced collection, over the
// live heap before the engine existed; the applet definitions
// themselves are the caller's and sit in the baseline).
func TestResidentBytesPerApplet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes object sizes")
	}
	const n = 20_000
	applets := make([]Applet, n)
	for i := range applets {
		applets[i] = residentApplet(i)
	}
	clock := simtime.NewSimDefault()
	baseBytes, baseObjs := liveHeap()
	e := New(Config{Clock: clock, RNG: stats.NewRNG(1), Doer: emptyPollDoer{},
		Poll: FixedInterval{Interval: time.Minute}, DispatchDelay: -1, Shards: 8, ShardWorkers: 8})
	var bytes, objs uint64
	clock.Run(func() {
		defer e.Stop()
		for i := range applets {
			if err := e.Install(applets[i]); err != nil {
				t.Error(err)
				return
			}
		}
		clock.Sleep(time.Minute + time.Second)
		bytes, objs = liveHeap()
	})
	if st := e.Stats(); st.Polls != n || st.PollFailures != 0 {
		t.Fatalf("stats %+v: want every applet polled once, no failures", st)
	}
	perBytes := float64(bytes-baseBytes) / n
	perObjs := float64(objs-baseObjs) / n
	t.Logf("resident per applet: %.1f B, %.2f heap objects (%d applets)", perBytes, perObjs, n)
	if perBytes > 1050 || perObjs > 10 {
		t.Errorf("resident per applet: %.1f B and %.2f objects, want <= 1050 B and <= 10 objects", perBytes, perObjs)
	}
	if f := flag.Lookup("test.memprofile"); f != nil && f.Value.String() != "" {
		residentEngine = e
	}
	runtime.KeepAlive(applets)
}
