package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/service"
)

// hashIDs is the window of event IDs ids, as the rings remember them.
func hashIDs(ids []string) []uint64 {
	var w []uint64
	for _, id := range ids {
		w = append(w, idHash(id))
	}
	return w
}

// ringOf is a ring of the given capacity that has taken ids, in order.
func ringOf(capacity int, ids []string) *dedupRing {
	r := newDedupRing(capacity)
	for _, id := range ids {
		r.Add(idHash(id))
	}
	return r
}

// refRing is the reference model of a dedup ring: the map-plus-[]string
// FIFO the engine kept before rings held hashes, which remembered the ID
// strings themselves.
type refRing struct {
	seen map[string]struct{}
	buf  []string
	cap  int
	head int
}

func newRefRing(capacity int) *refRing {
	return &refRing{seen: map[string]struct{}{}, cap: capacity}
}

func (r *refRing) Add(id string) bool {
	if _, dup := r.seen[id]; dup {
		return false
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, id)
	} else {
		delete(r.seen, r.buf[r.head])
		r.buf[r.head] = id
		r.head = (r.head + 1) % r.cap
	}
	r.seen[id] = struct{}{}
	return true
}

func (r *refRing) Has(id string) bool { _, ok := r.seen[id]; return ok }

// window is the remembered IDs oldest first.
func (r *refRing) window() []string {
	return append(append([]string(nil), r.buf[r.head:]...), r.buf[:r.head]...)
}

// TestDedupRingMatchesReference runs seeded ID streams through the hash
// ring and the reference model and requires the same Add results, Has
// answers, Len and oldest-first window after every step. The streams
// are shaped like what services send: a buffer re-served poll after poll
// as it slides forward, IDs coming back after they were evicted, and
// random draws from a small space, which repeat at every distance.
func TestDedupRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 7, 64, 1024} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ring, ref := newDedupRing(capacity), newRefRing(capacity)
				step := 0
				check := func(id string) {
					t.Helper()
					step++
					probe := fmt.Sprint("e", rng.Intn(4*capacity+8))
					if got, want := ring.Has(idHash(probe)), ref.Has(probe); got != want {
						t.Fatalf("step %d: Has(%q) = %v, want %v", step, probe, got, want)
					}
					if got, want := ring.Add(idHash(id)), ref.Add(id); got != want {
						t.Fatalf("step %d: Add(%q) = %v, want %v", step, id, got, want)
					}
					if ring.Len() != len(ref.buf) {
						t.Fatalf("step %d: Len = %d, want %d", step, ring.Len(), len(ref.buf))
					}
					if got, want := ring.window(), hashIDs(ref.window()); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: window %x, want %x", step, got, want)
					}
				}
				// A partner buffer of up to 50 events, re-served newest
				// first on every poll while one to three new events join.
				next := 0
				for poll := 0; poll < 60; poll++ {
					next += 1 + rng.Intn(3)
					for seq := next; seq > max(next-50, 0); seq-- {
						check(fmt.Sprint("buf.", seq))
					}
				}
				// The same IDs again, long after the small rings evicted them.
				for seq := 1; seq <= 2*capacity+10; seq++ {
					check(fmt.Sprint("buf.", seq))
				}
				// Random draws around the window's size.
				for range 20 * capacity {
					check(fmt.Sprint("e", rng.Intn(4*capacity+8)))
				}
				if restored := restoreDedupRing(capacity, ring.window()); !reflect.DeepEqual(restored.window(), ring.window()) {
					t.Fatal("restoring the window does not reproduce the ring")
				}
			})
		}
	}
}

// TestIDHashGolden pins the ID hash: dedup windows are written to disk
// and carried between nodes as these words, so a change of hash would
// make every recovered or migrated window forget its IDs.
func TestIDHashGolden(t *testing.T) {
	for id, want := range map[string]uint64{
		"":         0xf52a15e9a9b5e89b,
		"e1":       0xe0646ea9421d77e8,
		"12345.17": 0x1a30f5111194a569,
		"ev-000042-9f2c1b7e-partner.example/fired": 0x77a8252358b6895f,
	} {
		if got := idHash(id); got != want {
			t.Errorf("idHash(%q) = %#x, want %#x", id, got, want)
		}
		if got := idHash([]byte(id)); got != want {
			t.Errorf("idHash([]byte(%q)) = %#x, want %#x", id, got, want)
		}
	}
}

func TestDedupRingFIFO(t *testing.T) {
	r := newDedupRing(3)
	for _, id := range []string{"a", "b", "c"} {
		if !r.Add(idHash(id)) {
			t.Fatalf("first Add(%q) reported duplicate", id)
		}
	}
	if r.Add(idHash("a")) {
		t.Error("remembered ID not deduplicated")
	}
	// "d" evicts "a" (oldest), then "e" evicts "b".
	r.Add(idHash("d"))
	r.Add(idHash("e"))
	if !r.Add(idHash("a")) {
		t.Error("evicted ID should be forgotten (FIFO order)")
	}
	if r.Add(idHash("d")) || r.Add(idHash("e")) {
		t.Error("recent IDs evicted out of order")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

// TestDedupRingMemoryBounded: however many events stream past, the
// ring's one slice stays at the window's hashes plus an index of twice
// as many 16-bit slots, and only the newest window is remembered.
func TestDedupRingMemoryBounded(t *testing.T) {
	const window = 64
	r := newDedupRing(window)
	for i := 0; i < 100*window; i++ {
		if !r.Add(idHash(fmt.Sprintf("ev-%06d", i))) {
			t.Fatalf("distinct ID %d reported duplicate", i)
		}
		if got := cap(r.w); got > window+window/2 {
			t.Fatalf("ring storage grew to %d words after %d adds; want ≤ %d", got, i+1, window+window/2)
		}
	}
	if r.Len() != window {
		t.Errorf("Len = %d, want %d", r.Len(), window)
	}
	// Only the newest window of IDs is remembered.
	if r.Add(idHash(fmt.Sprintf("ev-%06d", 100*window-1))) {
		t.Error("newest ID forgotten")
	}
	if !r.Add(idHash("ev-000000")) {
		t.Error("ancient ID still remembered; window unbounded")
	}
}

// TestEngineDedupWindowBounded drives the window through the full poll
// path: many more distinct events than the window holds stream past, so the
// ring must evict, yet per-applet memory stays at the window size and —
// because the service's replay depth fits inside the window — every
// event still executes exactly once.
func TestEngineDedupWindowBounded(t *testing.T) {
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.engine.dedupCap = 8
	// Keep the poll replay depth below the dedup window; an event must
	// age out of the service buffer before the ring forgets it.
	r.svc = service.New(service.Config{
		Name: "testsvc", Clock: r.clock, ServiceKey: "k", Retention: 4,
	})
	r.svc.RegisterTrigger(service.TriggerSpec{Slug: "fired"})
	r.svc.RegisterAction(service.ActionSpec{
		Slug:    "act",
		Execute: func(map[string]string, proto.UserInfo) error { return nil },
	})
	r.net.AddHost("svc.sim", r.svc.Handler())
	r.clock.Run(func() {
		r.engine.Install(r.applet("a1"))
		r.clock.Sleep(6 * time.Second) // subscription made
		for i := 0; i < 40; i++ {
			r.svc.Publish("fired", map[string]string{"n": fmt.Sprint(i)})
			r.clock.Sleep(5 * time.Second)
		}
		r.engine.mu.Lock()
		ra := r.engine.applets["a1"]
		r.engine.mu.Unlock()
		if got := ra.dedup.Len(); got > 8 {
			t.Errorf("dedup window grew to %d, want ≤ 8", got)
		}
		if got := cap(ra.dedup.w); got > 8+4 {
			t.Errorf("dedup storage grew to %d words, want ≤ 12", got)
		}
		r.engine.Stop()
	})
	// Every event still executed exactly once: eviction never outpaced
	// the 5 s polling round.
	if acked := len(r.tracesOf(TraceActionAcked)); acked != 40 {
		t.Errorf("acked %d actions, want 40", acked)
	}
}
