package durable

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/simtime"
)

// fixtureDir copies testdata/<name> into a fresh directory: Open cuts a
// torn tail in place, and the checked-in files must stay as written.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	return copyDir(t, filepath.Join("testdata", name))
}

// recoveredView is what recovery must reproduce from a directory:
// membership per subscription key (join order) with each member's dedup
// ring, the migrated subscriptions' carried state, and the retained
// windows of removed applets.
type recoveredView struct {
	Members map[string][]string                    // key -> applet IDs
	Rings   map[string][]string                    // applet ID -> seen events, oldest first
	Carried map[string]engine.SubscriptionSnapshot // key -> Rate, FailStreak, BreakerOpen, PollCount, PendingPush (Members cleared)
	Retired []engine.RetiredDedup
}

func viewOf(subs []*engine.SubscriptionSnapshot, retired []engine.RetiredDedup) recoveredView {
	v := recoveredView{
		Members: map[string][]string{},
		Rings:   map[string][]string{},
		Carried: map[string]engine.SubscriptionSnapshot{},
		Retired: retired,
	}
	for _, ss := range subs {
		for _, m := range ss.Members {
			v.Members[ss.Key] = append(v.Members[ss.Key], m.Applet.ID)
			v.Rings[m.Applet.ID] = append([]string{}, m.SeenEvents...)
		}
		c := *ss
		c.Members, c.RateAt = nil, c.RateAt.UTC()
		v.Carried[ss.Key] = c
	}
	return v
}

// TestRecoverV1Fixture recovers testdata/v1 — a JSON-format directory:
// one snapshot image plus a WAL tail holding all five record ops and a
// torn final frame — and pins what comes back. The v1 reader exists for
// exactly this: an operator's existing directory must survive the codec
// change with the same membership, dedup rings and retired windows.
func TestRecoverV1Fixture(t *testing.T) {
	dir := fixtureDir(t, "v1")
	st, err := Open(Options{Dir: dir, Clock: simtime.NewSimDefault()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Abandon()
	got := viewOf(st.RecoveredState())

	wantMembers := map[string][]string{
		"ti-a920b5cdfef92a31": {"a4"}, // reinstalled after removal
		"ti-attached-a6":      {"a6", "a7"},
		"ti-attached-a9":      {"a9"},
		"ti-b4670c3a881dd7a0": {"a3"},
		"ti-e3aa00b595df16a7": {"a1"},
	}
	wantRings := map[string][]string{
		"a1": {"e1", "e2"},       // tail checkpoint onto a snapshot member
		"a3": {},                 // never executed
		"a4": {"p1", "p2"},       // retired window taken back at reinstall
		"a6": {"q1"},             // attached in the tail
		"a7": {"q1", "q2", "q3"}, // attached, then checkpointed
		"a9": {"s1", "s2", "s3"}, // snapshot ring
	}
	wantRetired := []engine.RetiredDedup{{AppletID: "a5", SeenEvents: []string{"f1"}}}
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
	if a6.Rate != 1.5 || !a6.BreakerOpen || a6.PollCount != 3 || len(a6.PendingPush) != 1 {
		t.Fatalf("attached subscription state = %+v", a6)
	}
	p := a6.PendingPush[0]
	if p.At.UnixNano() != 1488369600000000500 || len(p.Events) != 1 {
		t.Fatalf("parked push = %+v", p)
	}
	if ev := p.Events[0]; ev.Meta.ID != "q3" || ev.Meta.TimestampNanos != 1488369600000000500 ||
		!reflect.DeepEqual(ev.Ingredients, map[string]string{"n": "9", "b": "x"}) {
		t.Fatalf("parked event = %+v", ev)
	}
	if a9 := got.Carried["ti-attached-a9"]; a9.Rate != 0.5 || a9.PollCount != 4 {
		t.Fatalf("snapshot subscription state = %+v", a9)
	}

	// Applet definitions survive verbatim (Conditions aside).
	subs, _ := st.RecoveredState()
	for _, ss := range subs {
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
