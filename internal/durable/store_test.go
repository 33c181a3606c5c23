package durable

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// staticDoer answers every trigger poll with the same fixed event set,
// so dedup windows — not upstream buffering — are the only thing
// standing between the engine and duplicate executions. Actions and
// subscription DELETEs succeed trivially.
type staticDoer struct {
	events  string
	polls   atomic.Int64
	deletes atomic.Int64
}

const soakEvents = `{"data":[` +
	`{"n":"1","meta":{"id":"ev-1","timestamp":100}},` +
	`{"n":"2","meta":{"id":"ev-2","timestamp":101}},` +
	`{"n":"3","meta":{"id":"ev-3","timestamp":102}}]}`

func (d *staticDoer) Do(req *http.Request) (*http.Response, error) {
	body := `{}`
	switch {
	case req.Method == http.MethodDelete:
		d.deletes.Add(1)
	case strings.Contains(req.URL.Path, "/triggers/"):
		d.polls.Add(1)
		body = d.events
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader(body)),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

// storeRig is one engine journaling to (and recovered from) a durable
// store, fed by a staticDoer, under its own simulated clock.
type storeRig struct {
	t     *testing.T
	clock *simtime.SimClock
	store *Store
	eng   *engine.Engine
	doer  *staticDoer

	mu     sync.Mutex
	traces []engine.TraceEvent
}

func newStoreRig(t *testing.T, dir string, seed uint64, mod func(*engine.Config), sopt func(*Options)) *storeRig {
	t.Helper()
	clock := simtime.NewSimDefault()
	opts := Options{Dir: dir, Clock: clock}
	if sopt != nil {
		sopt(&opts)
	}
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &storeRig{t: t, clock: clock, store: store, doer: &staticDoer{events: soakEvents}}
	cfg := engine.Config{
		Clock:   clock,
		RNG:     stats.NewRNG(seed).Split("engine"),
		Doer:    r.doer,
		Poll:    engine.FixedInterval{Interval: 5 * time.Second},
		Journal: store,
		Trace: func(ev engine.TraceEvent) {
			r.mu.Lock()
			r.traces = append(r.traces, ev)
			r.mu.Unlock()
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	r.eng = engine.New(cfg)
	if err := store.Restore(r.eng); err != nil {
		t.Fatal(err)
	}
	store.Start()
	return r
}

func soakApplet(id string) engine.Applet {
	return engine.Applet{
		ID:     id,
		Name:   "soak " + id,
		UserID: "u-" + id,
		Trigger: engine.ServiceRef{
			Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
			Fields: map[string]string{"which": id},
		},
		Action: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"},
	}
}

// acked folds the rig's action-acked traces into per (applet,event)
// execution counts, accumulating into counts.
func (r *storeRig) acked(counts map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.traces {
		if ev.Kind == engine.TraceActionAcked {
			counts[ev.AppletID+"/"+ev.EventID]++
		}
	}
}

func appletIDs(subs []*engine.SubscriptionSnapshot) map[string]bool {
	ids := make(map[string]bool)
	for _, ss := range subs {
		for _, m := range ss.Members {
			ids[m.Applet.ID] = true
		}
	}
	return ids
}

// naiveLiveSet independently replays dir's raw WAL records (no model,
// no snapshot — callers use it on pure-WAL crash images only) into the
// set of applet IDs that should be live. The test-local fold is the
// oracle the recovery model is checked against.
func naiveLiveSet(t *testing.T, dir string) map[string]bool {
	t.Helper()
	w, recs, err := openWAL(dir, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	live := make(map[string]bool)
	for _, rec := range recs {
		switch rec.Op {
		case OpInstall:
			live[rec.Applet.ID] = true
		case OpRemove:
			delete(live, rec.ID)
		}
	}
	return live
}

// TestStoreCleanRestartLifecycle: install/remove/churn, clean Close
// (final snapshot), recover into a fresh engine — membership, dedup
// windows, and the retired windows of removed applets all survive, so
// a post-restart reinstall still can't double-execute.
func TestStoreCleanRestartLifecycle(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 7, nil, nil)
	ids := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	r1.clock.Run(func() {
		for _, id := range ids {
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Errorf("install %s: %v", id, err)
			}
		}
		r1.clock.Sleep(12 * time.Second) // every applet polls and executes the 3 events
		for _, id := range ids[:3] {
			r1.eng.Remove(id)
		}
		r1.clock.Sleep(6 * time.Second)
		r1.eng.Stop()
		if err := r1.store.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	r2 := newStoreRig(t, dir, 7, nil, nil)
	if subs, applets := r2.store.RecoveredCounts(); applets != 7 {
		t.Fatalf("recovered %d applets in %d subs, want 7", applets, subs)
	}
	r2.clock.Run(func() {
		// Reinstalling a removed applet after the restart must reuse its
		// retained dedup window from the snapshot.
		if err := r2.eng.Install(soakApplet("a0")); err != nil {
			t.Errorf("reinstall a0: %v", err)
		}
		r2.clock.Sleep(12 * time.Second)
		r2.eng.Stop()
		r2.store.Close()
	})
	if got := len(r2.eng.Applets()); got != 8 {
		t.Fatalf("applets after restart+reinstall = %d, want 8", got)
	}

	counts := make(map[string]int)
	r1.acked(counts)
	r2.acked(counts)
	if len(counts) != len(ids)*3 {
		t.Fatalf("distinct executions = %d, want %d", len(counts), len(ids)*3)
	}
	for k, n := range counts {
		if n != 1 {
			t.Errorf("%s executed %d times across restart, want exactly once", k, n)
		}
	}
}

// TestStoreCrashRecovery: same churn, but the store is Abandoned — the
// directory is exactly what kill -9 leaves (WAL tail only, no final
// snapshot). Recovery replays the log; exactly-once still holds across
// the crash, including for an applet removed and reinstalled before it.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 7, nil, nil)
	ids := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
	r1.clock.Run(func() {
		for _, id := range ids {
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Errorf("install %s: %v", id, err)
			}
		}
		r1.clock.Sleep(12 * time.Second)
		r1.eng.Remove("a0") // stays removed
		r1.eng.Remove("a1") // removed then reinstalled pre-crash
		if err := r1.eng.Install(soakApplet("a1")); err != nil {
			t.Errorf("reinstall a1: %v", err)
		}
		r1.clock.Sleep(6 * time.Second)
		r1.eng.Stop()
		r1.store.Abandon()
	})
	if files := snapshotFiles(dir); len(files) != 0 {
		t.Fatalf("crash image unexpectedly contains snapshots %v", files)
	}

	r2 := newStoreRig(t, dir, 7, nil, nil)
	if _, applets := r2.store.RecoveredCounts(); applets != 9 {
		t.Fatalf("recovered %d applets, want 9", applets)
	}
	r2.clock.Run(func() {
		r2.clock.Sleep(20 * time.Second) // several polls re-serve every event
		r2.eng.Stop()
		r2.store.Abandon()
	})

	counts := make(map[string]int)
	r1.acked(counts)
	r2.acked(counts)
	for _, id := range ids {
		for _, ev := range []string{"ev-1", "ev-2", "ev-3"} {
			if n := counts[id+"/"+ev]; n != 1 {
				t.Errorf("%s/%s executed %d times across crash-restart, want exactly once", id, ev, n)
			}
		}
	}
}

// TestStoreRecoveryDeterministic is the satellite-3 guarantee: recover
// the same crash image twice into same-seeded engines and everything —
// recovered state, poll schedules, dispatch traces, budget admission —
// is bit-identical; and the recovered membership matches an independent
// naive fold of the raw WAL. The recovered engines run one shard with
// one worker: with more, shards reach the shared budget bucket at the
// same simulated instant and the Go scheduler picks the winner, so the
// timeline (not the outcome) differs between runs — see DESIGN.md,
// "Determinism".
func TestStoreRecoveryDeterministic(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 21, nil, nil)
	r1.clock.Run(func() {
		for i := 0; i < 12; i++ {
			id := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "c0", "c1"}[i]
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Errorf("install: %v", err)
			}
			r1.clock.Sleep(700 * time.Millisecond)
		}
		r1.clock.Sleep(10 * time.Second)
		r1.eng.Remove("b3")
		r1.eng.Remove("b7")
		r1.clock.Sleep(3 * time.Second)
		r1.eng.Stop()
		r1.store.Abandon()
	})

	dir2 := copyDir(t, dir)
	oracle := copyDir(t, dir)
	want := naiveLiveSet(t, oracle)

	run := func(d string) (*storeRig, map[string]bool, string, string, string) {
		r := newStoreRig(t, d, 21, func(cfg *engine.Config) {
			cfg.PollBudgetQPS = 2 // exercise admission state in the comparison
			cfg.Shards, cfg.ShardWorkers = 1, 1
		}, nil)
		recovered, retired := r.store.RecoveredState()
		recJSON, _ := json.Marshal(struct {
			Subs    []*engine.SubscriptionSnapshot
			Retired []engine.RetiredDedup
		}{recovered, retired})
		r.clock.Run(func() {
			r.clock.Sleep(time.Minute)
			r.eng.Stop()
			r.store.Abandon()
		})
		stats, _ := json.Marshal(r.eng.Stats())
		var lines []string
		r.mu.Lock()
		for _, ev := range r.traces {
			switch ev.Kind {
			case engine.TracePollSent, engine.TracePollResult, engine.TraceActionSent, engine.TraceActionAcked:
				lines = append(lines, ev.Time.Format(time.RFC3339Nano)+"|"+string(ev.Kind)+"|"+ev.AppletID+"|"+ev.EventID)
			}
		}
		r.mu.Unlock()
		return r, appletIDs(recovered), string(recJSON), string(stats), strings.Join(lines, "\n")
	}

	rA, liveA, recA, statsA, traceA := run(dir)
	_, liveB, recB, statsB, traceB := run(dir2)

	if len(liveA) != len(want) {
		t.Fatalf("recovered %d applets, naive WAL fold says %d", len(liveA), len(want))
	}
	for id := range want {
		if !liveA[id] {
			t.Errorf("applet %s in naive WAL fold but not recovered", id)
		}
	}
	if recA != recB {
		t.Error("two recoveries of the same image produced different recovered state")
	}
	if traceA == "" || traceA != traceB {
		t.Error("two recoveries of the same image produced different poll/dispatch schedules")
	}
	if statsA != statsB {
		t.Errorf("two recoveries diverged in engine stats:\n A %s\n B %s", statsA, statsB)
	}
	if len(liveB) != len(liveA) {
		t.Fatalf("recoveries disagree on membership: %d vs %d", len(liveA), len(liveB))
	}
	// Exactly-once must also hold for this rig's post-recovery window.
	counts := make(map[string]int)
	r1.acked(counts)
	rA.acked(counts)
	for k, n := range counts {
		if n > 1 {
			t.Errorf("%s executed %d times, want at most once", k, n)
		}
	}
}

// TestStoreRecoveryAtArbitraryWALOffset truncates the crash image's WAL
// at a sweep of byte offsets — every torn-write the kill could have
// produced — and requires recovery to (a) succeed, (b) equal the naive
// fold of the records that survived the cut, and (c) stay deterministic.
func TestStoreRecoveryAtArbitraryWALOffset(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 33, nil, nil)
	r1.clock.Run(func() {
		for _, id := range []string{"a0", "a1", "a2", "a3", "a4", "a5"} {
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Errorf("install: %v", err)
			}
		}
		r1.clock.Sleep(8 * time.Second)
		r1.eng.Remove("a2")
		r1.clock.Sleep(4 * time.Second)
		r1.eng.Stop()
		r1.store.Abandon()
	})
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	for off := st.Size(); off >= 0; off -= st.Size()/9 + 1 {
		cut := copyDir(t, dir)
		if err := os.Truncate(lastSegment(t, cut), off); err != nil {
			t.Fatal(err)
		}
		oracle := copyDir(t, cut)
		want := naiveLiveSet(t, oracle)

		r2 := newStoreRig(t, cut, 33, nil, nil)
		recovered, _ := r2.store.RecoveredState()
		got := appletIDs(recovered)
		if len(got) != len(want) {
			t.Fatalf("offset %d: recovered %d applets, naive fold says %d", off, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Errorf("offset %d: applet %s missing from recovery", off, id)
			}
		}
		// The recovered store must run and survive another restart.
		r2.clock.Run(func() {
			r2.clock.Sleep(6 * time.Second)
			r2.eng.Stop()
			r2.store.Close()
		})
		r3 := newStoreRig(t, cut, 33, nil, nil)
		if _, applets := r3.store.RecoveredCounts(); applets != len(want) {
			t.Fatalf("offset %d: second recovery has %d applets, want %d", off, applets, len(want))
		}
		r3.store.Close()
	}
}

// TestStoreSnapshotCompaction runs churn across several snapshot
// intervals with tiny segments and checks the loop takes snapshots,
// compaction bounds the on-disk log, and a crash after all of it still
// recovers the full state from newest-snapshot + tail.
func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 5, nil, func(o *Options) {
		o.SnapshotInterval = 10 * time.Second
		o.SegmentBytes = 2048
	})
	r1.clock.Run(func() {
		for i := 0; i < 30; i++ {
			id := "ch" + string(rune('a'+i/10)) + string(rune('0'+i%10))
			if err := r1.eng.Install(soakApplet(id)); err != nil {
				t.Errorf("install: %v", err)
			}
			if i >= 10 && i%3 == 0 {
				r1.eng.Remove("ch" + string(rune('a'+(i-10)/10)) + string(rune('0'+(i-10)%10)))
			}
			r1.clock.Sleep(2 * time.Second)
		}
		r1.clock.Sleep(5 * time.Second)
		r1.eng.Stop()
		r1.store.Abandon()
	})
	if n := r1.store.Snapshots(); n < 4 {
		t.Fatalf("snapshot loop wrote %d images over 65s at 10s cadence, want >= 4", n)
	}
	if files := snapshotFiles(dir); len(files) > snapKeep {
		t.Fatalf("%d snapshot generations on disk, want <= %d", len(files), snapKeep)
	}
	liveBefore := len(r1.eng.Applets())

	r2 := newStoreRig(t, dir, 5, nil, nil)
	if _, applets := r2.store.RecoveredCounts(); applets != liveBefore {
		t.Fatalf("recovered %d applets from snapshot+tail, engine had %d", applets, liveBefore)
	}
	// Compaction must have deleted covered segments: the surviving WAL is
	// a small tail, not the full churn history.
	if size := r2.store.WALSizeOnDisk(); size > 64*1024 {
		t.Fatalf("WAL still holds %d bytes after compaction", size)
	}
	r2.store.Close()
}

// TestStoreKillRecoverSoak is the -race soak: concurrent installers,
// removers, and the snapshot loop all journaling while polls execute;
// crash; recover; re-serve everything. Exactly-once holds for every
// (applet, event) pair across both lives, including the remove-then-
// reinstall cohort.
func TestStoreKillRecoverSoak(t *testing.T) {
	dir := t.TempDir()
	r1 := newStoreRig(t, dir, 99, nil, func(o *Options) {
		o.SnapshotInterval = 15 * time.Second
		o.SegmentBytes = 4096
	})
	stable := make([]string, 24)
	churn := make([]string, 12)
	for i := range stable {
		stable[i] = "s" + string(rune('a'+i/10)) + string(rune('0'+i%10))
	}
	for i := range churn {
		churn[i] = "c" + string(rune('a'+i/10)) + string(rune('0'+i%10))
	}
	r1.clock.Run(func() {
		gate := r1.clock.NewGate()
		var left atomic.Int64
		left.Store(3)
		done := func() {
			if left.Add(-1) == 0 {
				gate.Open()
			}
		}
		r1.clock.Go(func() { // stable cohort: installed once, never touched
			defer done()
			for _, id := range stable {
				if err := r1.eng.Install(soakApplet(id)); err != nil {
					t.Errorf("install %s: %v", id, err)
				}
				r1.clock.Sleep(300 * time.Millisecond)
			}
		})
		r1.clock.Go(func() { // churn cohort: install, let it execute, remove, reinstall
			defer done()
			for _, id := range churn {
				if err := r1.eng.Install(soakApplet(id)); err != nil {
					t.Errorf("install %s: %v", id, err)
				}
				r1.clock.Sleep(400 * time.Millisecond)
			}
			r1.clock.Sleep(12 * time.Second) // everyone polls at least once
			for _, id := range churn {
				r1.eng.Remove(id)
				r1.clock.Sleep(100 * time.Millisecond)
			}
			for _, id := range churn {
				if err := r1.eng.Install(soakApplet(id)); err != nil {
					t.Errorf("reinstall %s: %v", id, err)
				}
				r1.clock.Sleep(100 * time.Millisecond)
			}
		})
		r1.clock.Go(func() { // extra snapshot pressure while churn runs
			defer done()
			for i := 0; i < 4; i++ {
				r1.clock.Sleep(7 * time.Second)
				if err := r1.store.Snapshot(); err != nil {
					t.Errorf("manual snapshot: %v", err)
				}
			}
		})
		gate.Wait()
		r1.clock.Sleep(15 * time.Second) // drain: every live applet polls again
		r1.eng.Stop()
		r1.store.Abandon()
	})

	r2 := newStoreRig(t, dir, 99, nil, nil)
	if _, applets := r2.store.RecoveredCounts(); applets != len(stable)+len(churn) {
		t.Fatalf("recovered %d applets, want %d", applets, len(stable)+len(churn))
	}
	r2.clock.Run(func() {
		r2.clock.Sleep(25 * time.Second)
		r2.eng.Stop()
		r2.store.Abandon()
	})

	counts := make(map[string]int)
	r1.acked(counts)
	r2.acked(counts)
	all := append(append([]string{}, stable...), churn...)
	for _, id := range all {
		for _, ev := range []string{"ev-1", "ev-2", "ev-3"} {
			if n := counts[id+"/"+ev]; n != 1 {
				t.Errorf("%s/%s executed %d times across kill-recover, want exactly once", id, ev, n)
			}
		}
	}
	if len(counts) != len(all)*3 {
		t.Errorf("distinct executions = %d, want %d", len(counts), len(all)*3)
	}
}
