package engine

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// checkpointJournal copies each checkpoint during the call, as the
// Journal contract requires of an implementation that keeps one.
type checkpointJournal struct {
	last Checkpoint
	n    int
}

func (j *checkpointJournal) AppendInstall(Applet) error               { return nil }
func (j *checkpointJournal) AppendRemove(string) error                { return nil }
func (j *checkpointJournal) AppendAttach(*SubscriptionSnapshot) error { return nil }
func (j *checkpointJournal) AppendDetach(string, []string) error      { return nil }
func (j *checkpointJournal) AppendCheckpoint(cp Checkpoint) error     { j.n++; j.keep(cp); return nil }
func (j *checkpointJournal) keep(cp Checkpoint) {
	if j.n > 1 {
		return // the first call's copy is the one checked; later calls must not allocate
	}
	j.last = Checkpoint{Key: cp.Key}
	for _, m := range cp.Members {
		j.last.Members = append(j.last.Members, MemberEvents{AppletID: m.AppletID, EventIDs: append([]string(nil), m.EventIDs...)})
	}
}

// TestJournalCheckpointAllocs: an execution's checkpoint is built in its
// pooled decoder — one flat ID list sliced per member — so journaling
// it allocates nothing once the decoder is warm, and members with no
// fresh event are left out.
func TestJournalCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	j := &checkpointJournal{}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: emptyPollDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1, Coalesce: true, Journal: j})
	defer e.Stop()
	for _, id := range []string{"m1", "m2", "m3"} {
		a := residentApplet(1)
		a.ID = id
		if err := e.Install(a); err != nil {
			t.Fatal(err)
		}
	}
	sub := e.applets["m1"].sub
	if len(sub.members) != 3 {
		t.Fatalf("subscription has %d members, want the 3 coalesced applets", len(sub.members))
	}
	sub.shard.mu.Lock()
	dec := borrowDecoder(sub)
	sub.shard.mu.Unlock()
	defer dec.release()
	ev := func(id string) proto.TriggerEvent { return proto.TriggerEvent{Meta: proto.EventMeta{ID: id}} }
	dec.fresh = append(dec.fresh, ev("e1"), ev("e2"), ev("e2"))
	dec.ranges = append(dec.ranges,
		memberRange{ra: dec.members[0], start: 0, end: 2},
		memberRange{ra: dec.members[1], start: 2, end: 2},
		memberRange{ra: dec.members[2], start: 2, end: 3})

	e.journalCheckpoint(dec)
	want := Checkpoint{Key: sub.key, Members: []MemberEvents{
		{AppletID: "m1", EventIDs: []string{"e1", "e2"}},
		{AppletID: "m3", EventIDs: []string{"e2"}},
	}}
	if !reflect.DeepEqual(j.last, want) {
		t.Fatalf("journaled %+v, want %+v", j.last, want)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.journalCheckpoint(dec) }); allocs != 0 {
		t.Errorf("journalCheckpoint allocates %.1f/op, want 0", allocs)
	}
	if j.n != 202 {
		t.Errorf("journal saw %d checkpoints, want 202", j.n)
	}
}

// parentDeleteRequest is the DELETE the engine sent for key before it
// went through the interned endpoint: httpx.DoJSON on the trigger URL +
// "/trigger_identity/" + key, the service key set through WithHeader.
func parentDeleteRequest(t *testing.T, ref ServiceRef, key string) sentRequest {
	t.Helper()
	var d recordingDoer
	url := proto.TriggerURL(ref.BaseURL, ref.Slug) + "/trigger_identity/" + key
	if _, err := httpx.NewClient(&d, simtime.NewReal(), 0).DoJSON("DELETE", url, nil, nil,
		httpx.WithHeader(proto.ServiceKeyHeader, ref.ServiceKey)); err != nil {
		t.Fatal(err)
	}
	return d.last(t)
}

// TestDeleteRequestBytesUnchanged holds the subscription DELETE on the
// wire — method, URL, Host, headers, no body — to what DoJSON sent, and
// bounds what it costs: the joined path, plus the Doer's response.
func TestDeleteRequestBytesUnchanged(t *testing.T) {
	for _, base := range []string{"http://svc.sim:8080", "http://svc.sim/api%2Fv1/root"} {
		for _, coalesce := range []bool{false, true} {
			d := &recordingDoer{}
			e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: d,
				Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 2, Coalesce: coalesce})
			a := Applet{ID: "a1", UserID: "u1",
				Trigger: ServiceRef{Service: "svc", BaseURL: base, Slug: "fired",
					Fields: map[string]string{"n": "1"}, ServiceKey: "service-key", UserToken: "tok"},
				Action: ServiceRef{Service: "svc", BaseURL: base, Slug: "act", ServiceKey: "service-key", UserToken: "tok"}}
			if err := e.Install(a); err != nil {
				t.Fatal(err)
			}
			sub := e.applets["a1"].sub
			e.deleteUpstream(sub)
			got, want := d.last(t), parentDeleteRequest(t, a.Trigger, sub.key)
			if !reflect.DeepEqual(got, want) || want.Method != http.MethodDelete || !strings.HasSuffix(want.URL, sub.key) {
				t.Errorf("base %s coalesce %v: DELETE on the wire\n %+v\nwant\n %+v", base, coalesce, got, want)
			}
			e.Stop()
		}
	}

	if raceEnabled {
		return
	}
	e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: emptyPollDoer{},
		Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1})
	defer e.Stop()
	if err := e.Install(residentApplet(1)); err != nil {
		t.Fatal(err)
	}
	sub := e.applets[residentApplet(1).ID].sub
	e.deleteUpstream(sub)
	allocs := testing.AllocsPerRun(200, func() { e.deleteUpstream(sub) })
	t.Logf("deleteUpstream: %.1f allocs/op", allocs)
	if allocs > 3 {
		t.Errorf("deleteUpstream allocates %.1f/op, want <= 3", allocs)
	}
}
