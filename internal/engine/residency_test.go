package engine

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/httpx"
	"repro/internal/proto"
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

// residentEngine keeps the population of a TestResidentBytesPerApplet
// test reachable until the process exits when a heap profile was asked for,
// so that the profile `go test -memprofile` writes on the way out shows
// it (`make residency`).
var residentEngine *Engine

// residentPerApplet installs the benchmark's population of n applets on
// an engine polling through d, polls each once, and returns what the
// engine then keeps on the heap per applet, measured the way bench/
// measures heap_bytes_per_applet (live heap after a forced collection,
// over the live heap before the engine existed; the applet definitions
// themselves are the caller's and sit in the baseline).
func residentPerApplet(t *testing.T, n int, d httpx.Doer) (bytes, objs float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation changes object sizes")
	}
	applets := make([]Applet, n)
	for i := range applets {
		applets[i] = residentApplet(i)
	}
	clock := simtime.NewSimDefault()
	baseBytes, baseObjs := liveHeap()
	e := New(Config{Clock: clock, RNG: stats.NewRNG(1), Doer: d,
		Poll: FixedInterval{Interval: time.Minute}, DispatchDelay: -1, Shards: 8, ShardWorkers: 8})
	var heapBytes, heapObjs uint64
	clock.Run(func() {
		defer e.Stop()
		for i := range applets {
			if err := e.Install(applets[i]); err != nil {
				t.Error(err)
				return
			}
		}
		clock.Sleep(time.Minute + time.Second)
		heapBytes, heapObjs = liveHeap()
	})
	if st := e.Stats(); st.Polls != int64(n) || st.PollFailures != 0 || st.ActionsFailed != 0 {
		t.Fatalf("stats %+v: want every applet polled once, no failures", st)
	}
	if f := flag.Lookup("test.memprofile"); f != nil && f.Value.String() != "" {
		residentEngine = e
	}
	runtime.KeepAlive(applets)
	return float64(heapBytes-baseBytes) / float64(n), float64(heapObjs-baseObjs) / float64(n)
}

// TestResidentBytesPerApplet bounds what a silent subscription keeps on
// the heap: the benchmark's poll_idle population at a fifth of its
// size, installed and polled once.
func TestResidentBytesPerApplet(t *testing.T) {
	const n = 20_000
	perBytes, perObjs := residentPerApplet(t, n, emptyPollDoer{})
	t.Logf("resident per applet: %.1f B, %.2f heap objects (%d applets)", perBytes, perObjs, n)
	if perBytes > 1050 || perObjs > 10 {
		t.Errorf("resident per applet: %.1f B and %.2f objects, want <= 1050 B and <= 10 objects", perBytes, perObjs)
	}
}

// hotPollDoer answers every tenth poll with a 20-event buffer and the
// rest with an empty one, and acknowledges actions: one applet in ten
// of a population polled once ends up remembering 20 event IDs and
// holding its action credential, as poll_hot's hot tenth does.
type hotPollDoer struct {
	polls atomic.Int64
	hot   []byte
}

func newHotPollDoer() *hotPollDoer {
	b := []byte(`{"data":[`)
	for seq := 19; seq >= 0; seq-- {
		b = benchEvent(b, seq)
		if seq > 0 {
			b = append(b, ',')
		}
	}
	return &hotPollDoer{hot: append(b, "]}"...)}
}

func (d *hotPollDoer) Do(req *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, req.Body)
	req.Body.Close()
	body := `{"data":[]}`
	switch {
	case strings.HasPrefix(req.URL.Path, proto.ActionsPath):
		body = `{"data":[{"id":"ok"}]}`
	case d.polls.Add(1)%10 == 0:
		body = string(d.hot)
	}
	r := &emptyPollResponse{Response: http.Response{StatusCode: http.StatusOK}}
	r.Reset(body)
	r.Body = r
	return &r.Response, nil
}

// TestResidentBytesPerAppletHot is the same population with a hot tenth:
// 2 000 of the 20 000 applets remember 20 event IDs each, their ring a
// 48-byte header and one 32-word slice of hashes and index. Measured
// 733.6 B and 6.82 objects per applet: the silent population's 700.3 B
// plus a tenth of a ring, an action credential and its holder. The
// bounds add 5 %. Every applet pays for runningApplet whole, so it must
// stay within the 192-byte size class (it is 160).
func TestResidentBytesPerAppletHot(t *testing.T) {
	if size := unsafe.Sizeof(runningApplet{}); size > 192 {
		t.Errorf("runningApplet is %d bytes, want <= 192", size)
	}
	const n = 20_000
	perBytes, perObjs := residentPerApplet(t, n, newHotPollDoer())
	t.Logf("resident per applet, a tenth hot: %.1f B, %.2f heap objects (%d applets)", perBytes, perObjs, n)
	if perBytes > 770 || perObjs > 7.2 {
		t.Errorf("resident per applet, a tenth hot: %.1f B and %.2f objects, want <= 770 B and <= 7.2 objects", perBytes, perObjs)
	}
}
