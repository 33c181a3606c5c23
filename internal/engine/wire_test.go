package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestActionBodyBytesUnchanged holds the in-place action encoder to the
// construction it replaced: expand every field into a fresh map, wrap it
// in a proto.ActionRequest, json.Encoder.Encode it.
func TestActionBodyBytesUnchanged(t *testing.T) {
	old := func(a *Applet, ing map[string]string) []byte {
		fields := make(map[string]string, len(a.Action.Fields))
		for k, v := range a.Action.Fields {
			fields[k] = expandIngredients(v, ing)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(proto.ActionRequest{
			ActionFields: fields,
			User:         proto.UserInfo{ID: a.UserID},
			Source:       proto.Source{ID: a.ID},
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ing := map[string]string{
		"html": `<b>&"bold"</b>`, "sep": "a\u2028b\u2029c", "esc": "q\"uote back\\slash \n\t\x01",
		"uni": "é 日本 😀", "bad": "\xff\xfe", "head": "\xe2\x82", "tail": "\xac", "at": "1490400000", "": "empty",
	}
	manyFields := map[string]string{}
	for i := 0; i < 12; i++ {
		manyFields[fmt.Sprintf("f%02d<%d>", 11-i, i)] = fmt.Sprintf("{{at}}-%d-{{uni}}", i)
	}
	cases := []Applet{
		{ID: "a1", UserID: "u1", Action: ServiceRef{Fields: nil}},
		{ID: "a1", UserID: "u1", Action: ServiceRef{Fields: map[string]string{}}},
		{ID: "", UserID: "", Action: ServiceRef{Fields: map[string]string{"k": "v"}}},
		{ID: "a<1>", UserID: "u&1", Action: ServiceRef{Fields: map[string]string{
			"html": "{{html}}", "sep": "x{{sep}}y", "esc": "{{esc}}", "uni": "{{ uni }}", "bad": "{{bad}}!",
			"unknown": "[{{nope}}]", "unclosed": "{{at", "empty": "{{}}", "plain": `no <template> & "here"`,
			// A rune split across a template boundary must come out as
			// the concatenation encodes, not piece by piece.
			"split": "{{head}}{{tail}}", "kéy": "{{at}}{{at}}",
		}}},
		{ID: "a1", UserID: "u1", Action: ServiceRef{Fields: manyFields}},
	}
	var dec pollDecoder
	for i := range cases {
		a := &cases[i]
		ra := &runningApplet{id: a.ID, user: a.UserID, actionFields: a.Action.Fields, actionToken: "tok"}
		auth, got := dec.actionRequest(ra, mapIngredients(ing))
		if want := old(a, ing); string(got) != string(want) || auth != "Bearer tok" {
			t.Errorf("case %d: auth %q\n got %s\nwant %s", i, auth, got, want)
		}
	}
}

// TestCollectFreshEquivalence proves dedup-before-materialise changes
// nothing observable: over generated responses, scanning the body and
// recording only unseen events yields the same fresh events, the same
// member ranges and the same ring contents as the path it replaced —
// decode every event, then Add each to every member's ring. Rings are
// small and staggered so evictions, late joiners, IDs repeated within a
// response and empty IDs all occur.
func TestCollectFreshEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ringCap = 6
	for trial := 0; trial < 300; trial++ {
		nMembers := 1 + rng.Intn(3)
		seeds := make([][]string, nMembers)
		for m := range seeds {
			for n := rng.Intn(2 * ringCap); n > 0; n-- {
				seeds[m] = append(seeds[m], fmt.Sprint("e", rng.Intn(12)))
			}
		}
		mkMembers := func() []*runningApplet {
			ms := make([]*runningApplet, nMembers)
			for m := range ms {
				ms[m] = &runningApplet{id: fmt.Sprint("a", m), dedup: ringOf(ringCap, seeds[m])}
			}
			return ms
		}
		var body strings.Builder
		body.WriteString(`{"data":[`)
		for i, n := 0, rng.Intn(10); i < n; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			id := fmt.Sprint("e", rng.Intn(12))
			switch rng.Intn(8) {
			case 0:
				id = ""
			case 1:
				id = `e\u0031` // "e1", escaped: looked up after unquoting
			}
			fmt.Fprintf(&body, `{"n":"%d","meta":{"id":"%s","timestamp":%d},"trial":%d}`, i, id, 1000+i, trial)
		}
		body.WriteString(`]}`)

		// Reference: the engine's old poll path.
		var resp proto.TriggerPollResponse
		if err := json.Unmarshal([]byte(body.String()), &resp); err != nil {
			t.Fatal(err)
		}
		refMembers := mkMembers()
		var wantFresh []proto.TriggerEvent
		var wantRanges [][2]int
		for _, ra := range refMembers {
			start := len(wantFresh)
			for i := len(resp.Data) - 1; i >= 0; i-- {
				ev := resp.Data[i]
				if ev.Meta.ID == "" || !ra.dedup.Add(idHash(ev.Meta.ID)) {
					continue
				}
				wantFresh = append(wantFresh, ev)
			}
			wantRanges = append(wantRanges, [2]int{start, len(wantFresh)})
		}

		members := mkMembers()
		dec := &pollDecoder{members: members}
		if err := dec.DecodeBody(http.StatusOK, []byte(body.String())); err != nil {
			t.Fatal(err)
		}
		var gotFresh []proto.TriggerEvent
		for i := range dec.fresh {
			gotFresh = append(gotFresh, dec.materialise(&dec.fresh[i]))
		}
		if len(gotFresh) != len(wantFresh) || (len(wantFresh) > 0 && !reflect.DeepEqual(gotFresh, wantFresh)) {
			t.Fatalf("trial %d %s\nfresh %v\n want %v", trial, body.String(), gotFresh, wantFresh)
		}
		for m, mr := range dec.ranges {
			if mr.ra != members[m] || [2]int{mr.start, mr.end} != wantRanges[m] {
				t.Fatalf("trial %d: member %d range [%d,%d), want %v", trial, m, mr.start, mr.end, wantRanges[m])
			}
			if got, want := members[m].dedup.window(), refMembers[m].dedup.window(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: member %d ring %v, want %v", trial, m, got, want)
			}
		}

		// A 2xx that is not the 200 of a successful poll is validated but
		// must leave the rings alone: the poll is about to be failed.
		members = mkMembers()
		dec = &pollDecoder{members: members}
		if err := dec.DecodeBody(http.StatusAccepted, []byte(body.String())); err != nil || len(dec.fresh) != 0 {
			t.Fatalf("202: err %v, fresh %v", err, dec.fresh)
		}
		for m := range members {
			untouched := ringOf(ringCap, seeds[m])
			if got, want := members[m].dedup.window(), untouched.window(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: a 202 changed member %d's ring", trial, m)
			}
		}
	}
}

// TestMalformedPollBodyLeavesRingsUntouched: a response that turns out
// malformed after a fresh-looking event must not have marked that event
// seen — the retry (or the next poll) has to deliver it.
func TestMalformedPollBodyLeavesRingsUntouched(t *testing.T) {
	ra := &runningApplet{dedup: newDedupRing(8)}
	dec := &pollDecoder{members: []*runningApplet{ra}}
	for _, body := range []string{
		`{"data":[{"meta":{"id":"new"}},{"meta":{"id":"x"}]}`,
		`{"data":[{"meta":{"id":"new"}},{"no":"meta"}]}`,
		`{"data":[{"meta":{"id":"new"}}]} trailing`,
	} {
		if err := dec.DecodeBody(http.StatusOK, []byte(body)); err == nil {
			t.Fatalf("%s accepted", body)
		}
		if ra.dedup.Len() != 0 || len(dec.fresh) != 0 {
			t.Fatalf("%s: ring has %d ids, fresh %v", body, ra.dedup.Len(), dec.fresh)
		}
	}
}

// TestMalformedActionAckIsRetriedFailure: the engine no longer decodes
// the acknowledgement, but a 200 whose body is not an ActionResponse is
// still a failed action, and still retried once.
func TestMalformedActionAckIsRetriedFailure(t *testing.T) {
	for ack, wantOK := range map[string]bool{
		`{"data":[{"id":"ok"}]}`: true, `{}`: true, ``: true,
		`{"data":[{"id":"ok"}`: false, `{"data":{"id":"ok"}}`: false, `<html>200 OK</html>`: false,
	} {
		d := &cannedDoer{ack: []byte(ack)}
		e := New(Config{Clock: simtime.NewReal(), RNG: stats.NewRNG(1), Doer: d, DispatchDelay: -1,
			Poll: FixedInterval{Interval: time.Hour}, Shards: 1})
		e.client.SetBackoff(func(int) time.Duration { return 0 })
		a := Applet{ID: "a1", UserID: "u1",
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired"},
			Action:  ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"}}
		if err := e.Install(a); err != nil {
			t.Fatal(err)
		}
		dec := new(pollDecoder)
		ev := dec.typed(&proto.TriggerEvent{Meta: proto.EventMeta{ID: "e1"}})
		e.dispatchAction(dec, e.applets["a1"], &ev, Ingredients{})
		st := e.Stats()
		e.Stop()
		wantCalls := 1
		if !wantOK {
			wantCalls = 2 // the engine's client retries once
		}
		if (st.ActionsOK == 1) != wantOK || (st.ActionsFailed == 1) == wantOK || (st.ActionErrorsHTTP == 1) == wantOK || d.actions != wantCalls {
			t.Errorf("ack %q: ok=%d failed=%d http_errors=%d requests=%d, want ok=%v after %d requests",
				ack, st.ActionsOK, st.ActionsFailed, st.ActionErrorsHTTP, d.actions, wantOK, wantCalls)
		}
	}
}
