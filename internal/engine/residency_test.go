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
// size, installed and polled once. Measured 603.0 B and 3.12 objects
// per applet: its runningApplet, its subscription and its poll blob,
// plus its share of the index maps and of its user's list. The bounds
// add 5 %. Every applet pays for runningApplet and subscription whole,
// so each must stay within its size class (128 and 192 bytes).
func TestResidentBytesPerApplet(t *testing.T) {
	if size := unsafe.Sizeof(runningApplet{}); size > 128 {
		t.Errorf("runningApplet is %d bytes, want <= 128", size)
	}
	if size := unsafe.Sizeof(subscription{}); size > 192 {
		t.Errorf("subscription is %d bytes, want <= 192", size)
	}
	const n = 20_000
	perBytes, perObjs := residentPerApplet(t, n, emptyPollDoer{})
	t.Logf("resident per applet: %.1f B, %.2f heap objects (%d applets)", perBytes, perObjs, n)
	if perBytes > 635 || perObjs > 3.3 {
		t.Errorf("resident per applet: %.1f B and %.2f objects, want <= 635 B and <= 3.3 objects", perBytes, perObjs)
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
// 641.5 B and 3.52 objects per applet: the silent population's 603.0 B
// plus a tenth of a ring, an action credential and the appletCold that
// holds it. The bounds add 5 %.
func TestResidentBytesPerAppletHot(t *testing.T) {
	const n = 20_000
	perBytes, perObjs := residentPerApplet(t, n, newHotPollDoer())
	t.Logf("resident per applet, a tenth hot: %.1f B, %.2f heap objects (%d applets)", perBytes, perObjs, n)
	if perBytes > 675 || perObjs > 3.7 {
		t.Errorf("resident per applet, a tenth hot: %.1f B and %.2f objects, want <= 675 B and <= 3.7 objects", perBytes, perObjs)
	}
}

// TestInstallRemoveAllocs bounds what installing a fresh applet and
// removing it again allocate on a warm engine of 20 000 bench-shaped
// applets, amortised over a batch: each fresh applet joins an existing
// user whose list has room, on a subscription of its own.
// Install keeps the applet, its subscription and its rendered poll
// blob, and renders the subscription key on the stack. Remove starts
// the upstream DELETE actor, counted with what its request costs: each
// operation is followed by a virtual millisecond's sleep, by which the
// actor has ended, and a batch of the sleeps alone is subtracted.
// Measured 2.99 and 3.02-3.04; the bounds leave the remove's fraction
// room.
func TestInstallRemoveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	const n, runs = 20_000, 500
	clock := simtime.NewSimDefault()
	e := New(Config{Clock: clock, RNG: stats.NewRNG(1), Doer: emptyPollDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 8, ShardWorkers: 8})
	fresh := make([]Applet, runs)
	for i := range fresh {
		fresh[i] = residentApplet(n + i)
		fresh[i].UserID = residentApplet(10 * i).UserID
	}
	mallocs := func(f func(a *Applet) error) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range fresh {
			if err := f(&fresh[i]); err != nil {
				t.Error(err)
				return 0
			}
			clock.Sleep(time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	var install, remove float64
	clock.Run(func() {
		defer e.Stop()
		for i := 0; i < n; i++ {
			if err := e.Install(residentApplet(i)); err != nil {
				t.Error(err)
				return
			}
		}
		sleep := mallocs(func(*Applet) error { return nil })
		install = mallocs(func(a *Applet) error { return e.Install(*a) }) - sleep
		remove = mallocs(func(a *Applet) error { return e.Remove(a.ID) }) - sleep
	})
	t.Logf("install %.2f allocs, remove %.2f allocs (warm engine of %d applets)", install, remove, n)
	if install > 3 || remove > 3.1 {
		t.Errorf("install allocates %.2f and remove %.2f objects, want <= 3 and <= 3.1", install, remove)
	}
}
