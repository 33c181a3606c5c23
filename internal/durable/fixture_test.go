package durable

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
)

// fixtureDir copies testdata/<name> into a fresh directory: Open cuts a
// torn tail in place, and the checked-in files must stay as written.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	return copyDir(t, filepath.Join("testdata", name))
}

// noDelay builds engines without a dispatch delay: a parked push
// dispatches inside Restore, and would otherwise sleep on a clock that
// is not running.
func noDelay(c *engine.Config) { c.DispatchDelay = -1 }

// recoverView restores dir into a fresh rig's engine and reads what
// the engine then holds.
func recoverView(t *testing.T, dir string) (recoveredView, *storeRig) {
	t.Helper()
	r := newStoreRig(t, dir, 3, noDelay, nil)
	return viewOf(r.eng.ExportSubscriptions(), r.eng.ExportRetiredDedup()), r
}

// recoveredView is what recovery must reproduce from a directory:
// membership per subscription key (join order) with each member's dedup
// ring, the migrated subscriptions' carried state, and the retained
// windows of removed applets.
type recoveredView struct {
	Members map[string][]string                    // key -> applet IDs
	Rings   map[string][]uint64                    // applet ID -> seen events' hashes, oldest first
	Carried map[string]engine.SubscriptionSnapshot // key -> Rate, FailStreak, BreakerOpen, PollCount, PendingPush (Members cleared)
	Retired []engine.RetiredDedup
}

// parkedPushes reads the push deliveries parked in testdata/<name>'s
// attach records as the reader decodes them, before any engine
// dispatches (and so consumes) them.
func parkedPushes(t *testing.T, name string) []engine.PendingPushSnapshot {
	t.Helper()
	img, err := Inspect(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var out []engine.PendingPushSnapshot
	for _, rec := range img.Records {
		if rec.Op == OpAttach && rec.Attach != nil {
			out = append(out, rec.Attach.PendingPush...)
		}
	}
	return out
}

func viewOf(subs []*engine.SubscriptionSnapshot, retired []engine.RetiredDedup) recoveredView {
	v := recoveredView{
		Members: map[string][]string{},
		Rings:   map[string][]uint64{},
		Carried: map[string]engine.SubscriptionSnapshot{},
		Retired: retired,
	}
	for _, ss := range subs {
		for _, m := range ss.Members {
			v.Members[ss.Key] = append(v.Members[ss.Key], m.Applet.ID)
			v.Rings[m.Applet.ID] = append([]uint64{}, m.SeenEvents...)
		}
		c := *ss
		c.Members, c.RateAt = nil, c.RateAt.UTC()
		v.Carried[ss.Key] = c
	}
	return v
}

// TestRecoverV1Fixture recovers testdata/v1 — a JSON-format directory:
// one snapshot image plus a WAL tail holding all five record ops and a
// torn final frame — into an engine and pins what the engine holds. The
// v1 reader exists for exactly this: an operator's existing directory
// must survive the codec changes with the same membership, dedup rings
// (the hashes of the fixture's event ID strings) and retired windows.
func TestRecoverV1Fixture(t *testing.T) {
	got, r := recoverView(t, fixtureDir(t, "v1"))
	defer r.crash()

	wantMembers := map[string][]string{
		"ti-a920b5cdfef92a31": {"a4"}, // reinstalled after removal
		"ti-attached-a6":      {"a6", "a7"},
		"ti-attached-a9":      {"a9"},
		"ti-b4670c3a881dd7a0": {"a3"},
		"ti-e3aa00b595df16a7": {"a1"},
	}
	wantRings := map[string][]uint64{
		"a1": hashIDs([]string{"e1", "e2"}),       // tail checkpoint onto a snapshot member
		"a3": {},                                  // never executed
		"a4": hashIDs([]string{"p1", "p2"}),       // retired window taken back at reinstall
		"a6": hashIDs([]string{"q1", "q3"}),       // attached in the tail, then the parked q3 dispatched
		"a7": hashIDs([]string{"q1", "q2", "q3"}), // attached, then checkpointed
		"a9": hashIDs([]string{"s1", "s2", "s3"}), // snapshot ring
	}
	wantRetired := []engine.RetiredDedup{{AppletID: "a5", SeenEvents: hashIDs([]string{"f1"})}}
	if !reflect.DeepEqual(got.Members, wantMembers) {
		t.Errorf("membership = %v, want %v", got.Members, wantMembers)
	}
	if !reflect.DeepEqual(got.Rings, wantRings) {
		t.Errorf("dedup rings = %v, want %v", got.Rings, wantRings)
	}
	if !reflect.DeepEqual(got.Retired, wantRetired) {
		t.Errorf("retired windows = %v, want %v", got.Retired, wantRetired)
	}

	a6 := got.Carried["ti-attached-a6"]
	if a6.Rate != 1.5 || !a6.BreakerOpen || a6.PollCount != 3 || len(a6.PendingPush) != 0 {
		t.Fatalf("attached subscription state = %+v", a6)
	}
	pending := parkedPushes(t, "v1")
	if len(pending) != 1 || pending[0].At.UnixNano() != 1488369600000000500 || len(pending[0].Events) != 1 {
		t.Fatalf("parked push as decoded = %+v", pending)
	}
	if ev := pending[0].Events[0]; ev.Meta.ID != "q3" || ev.Meta.TimestampNanos != 1488369600000000500 ||
		!reflect.DeepEqual(ev.Ingredients, map[string]string{"n": "9", "b": "x"}) {
		t.Fatalf("parked event as decoded = %+v", ev)
	}
	// The parked q3 dispatches once the tail is applied, against the
	// final rings: a7's checkpoint already holds it, so a6 alone acts.
	if sent := r.tracesOf(engine.TraceActionSent); len(sent) != 1 || sent[0].AppletID != "a6" || sent[0].EventID != "q3" ||
		!sent[0].EventTime.Equal(time.Unix(0, 1488369600000000500)) {
		t.Fatalf("actions dispatched by the restore = %+v, want q3 once, to a6", sent)
	}
	if body := r.doer.actionBodies(); len(body) != 1 || !reflect.DeepEqual(body[0]["msg"], "9 happened") {
		t.Fatalf("action fields = %v, want the parked event's ingredients expanded", body)
	}
	if a9 := got.Carried["ti-attached-a9"]; a9.Rate != 0.5 || a9.PollCount != 4 {
		t.Fatalf("snapshot subscription state = %+v", a9)
	}

	// Applet definitions survive verbatim (Conditions aside).
	for _, ss := range r.eng.ExportSubscriptions() {
		for _, m := range ss.Members {
			if m.Applet.ID != "a4" {
				continue
			}
			want := engine.Applet{
				ID: "a4", Name: "fixture a4", UserID: "u4",
				Trigger: engine.ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired",
					Fields: map[string]string{"which": "four"}, ServiceKey: "sk-1", UserToken: "tok-u4"},
				Action: engine.ServiceRef{Service: "act", BaseURL: "http://act.sim", Slug: "do",
					Fields: map[string]string{"msg": "{{n}} happened", "to": "u4"}, ServiceKey: "sk-2", UserToken: "atok-u4"},
			}
			if !reflect.DeepEqual(m.Applet, want) {
				t.Errorf("applet a4 = %+v\nwant %+v", m.Applet, want)
			}
		}
	}

}
