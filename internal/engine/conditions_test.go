package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func TestConditionPrimitives(t *testing.T) {
	now := time.Date(2017, 3, 25, 14, 30, 0, 0, time.UTC)
	ing := map[string]string{"subject": "Weekly Report", "temp": "31.5"}

	cases := []struct {
		cond Condition
		want bool
	}{
		{IngredientEquals{"subject", "weekly report"}, true},
		{IngredientEquals{"subject", "other"}, false},
		{IngredientEquals{"missing", ""}, true}, // empty == empty
		{IngredientContains{"subject", "report"}, true},
		{IngredientContains{"subject", "invoice"}, false},
		{IngredientAbove{"temp", 30}, true},
		{IngredientAbove{"temp", 32}, false},
		{IngredientAbove{"subject", 0}, false}, // non-numeric
		{TimeWindow{9, 17}, true},              // 14:30 in business hours
		{TimeWindow{17, 9}, false},             // wrapped window excludes 14:30
		{TimeWindow{22, 6}, false},
	}
	for _, c := range cases {
		if got := c.cond.Allows(now, mapIngredients(ing)); got != c.want {
			t.Errorf("%s = %v, want %v", c.cond.Describe(), got, c.want)
		}
		if c.cond.Describe() == "" {
			t.Errorf("empty Describe for %#v", c.cond)
		}
	}
}

func TestTimeWindowWrapsMidnight(t *testing.T) {
	night := TimeWindow{22, 6}
	at := func(h int) time.Time {
		return time.Date(2017, 3, 25, h, 0, 0, 0, time.UTC)
	}
	for _, h := range []int{22, 23, 0, 5} {
		if !night.Allows(at(h), Ingredients{}) {
			t.Errorf("hour %d should be inside [22,6)", h)
		}
	}
	for _, h := range []int{6, 12, 21} {
		if night.Allows(at(h), Ingredients{}) {
			t.Errorf("hour %d should be outside [22,6)", h)
		}
	}
}

// TestTimeWindowUsesDispatchTime: a time window filters on when the
// engine runs the filter, not on the event's own timestamp, as IFTTT's
// filter time does. An event stamped 21:59 and dispatched at 22:01 is
// inside [22,6); one stamped 22:01 and dispatched at 21:59 is not.
func TestTimeWindowUsesDispatchTime(t *testing.T) {
	at := func(h, m int) time.Time { return time.Date(2017, 3, 25, h, m, 0, 0, time.UTC) }
	for _, c := range []struct {
		stamped, dispatched time.Time
		want                bool
	}{
		{at(21, 59), at(22, 1), true},
		{at(22, 1), at(21, 59), false},
	} {
		clock := simtime.NewSim(c.dispatched)
		d := &cannedDoer{ack: []byte(`{"data":[{"id":"ok"}]}`)}
		e := New(Config{Clock: clock, RNG: stats.NewRNG(1), Doer: d,
			Poll: FixedInterval{Interval: time.Hour}, DispatchDelay: -1, Shards: 1})
		a := Applet{ID: "a1", UserID: "u1", Conditions: []Condition{TimeWindow{22, 6}},
			Trigger: ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "fired"},
			Action:  ServiceRef{Service: "svc", BaseURL: "http://svc.sim", Slug: "act"}}
		var st Stats
		clock.Run(func() {
			defer e.Stop()
			if err := e.Install(a); err != nil {
				t.Error(err)
				return
			}
			sub := e.applets["a1"].sub
			sub.shard.mu.Lock()
			dec := borrowDecoder(sub)
			sub.shard.mu.Unlock()
			dec.fresh = append(dec.fresh, dec.typed(&proto.TriggerEvent{Meta: proto.EventMeta{ID: "e1", Timestamp: c.stamped.Unix()}}))
			dec.ranges = append(dec.ranges, memberRange{ra: dec.members[0], start: 0, end: 1})
			e.dispatchFresh(dec)
			dec.release()
			st = e.Stats()
		})
		if ran := st.ActionsOK == 1 && st.ConditionSkips == 0; ran != c.want {
			t.Errorf("stamped %s, dispatched %s: actions %d, skips %d; want the action to run: %v",
				c.stamped.Format("15:04"), c.dispatched.Format("15:04"), st.ActionsOK, st.ConditionSkips, c.want)
		}
	}
}

// TestIngredientsViewMatchesEvent holds the poll path's ingredients view
// to the map the typed decoder builds for the same event, over seeded
// bodies with escaped keys and values, keys repeated (also spelled
// differently), null, numbers, objects and arrays as values, and empty
// and missing keys: every key's value, template expansion, and all four
// conditions agree. The body is overwritten once decoded, as the
// client's read buffer is before the dispatch delay ends.
func TestIngredientsViewMatchesEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Wire spellings of keys; `\u0061` is "a" again, escaped.
	keys := []string{`a`, `b`, `\u0061`, ``, `k\"q`, `caf\u00e9`, `é`, `x y`, `t\n`}
	vals := []string{`"v"`, `""`, `"A\nb\u00e9\"q"`, `"\ud83d\ude00 \ud800"`, `null`, `12`, `-3.5e2`, `0`,
		`{"x":[1,"}}",{}]}`, `[1, "two" ,null]`, `true`, `"31.5"`, `"` + strings.Repeat("long value ", 5) + `"`}
	probes := []string{"a", "b", "", `k"q`, "café", "é", "x y", "t\n", "missing", "A", " a"}
	now := time.Date(2017, 3, 25, 23, 0, 0, 0, time.UTC)
	for trial := 0; trial < 200; trial++ {
		var body strings.Builder
		body.WriteString(`{"data":[`)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteByte('{')
			for f := rng.Intn(6); f > 0; f-- {
				fmt.Fprintf(&body, `"%s":%s,`, keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))])
			}
			fmt.Fprintf(&body, `"meta":{"id":"e%d-%d","timestamp":%d}`, trial, i, 1000+i)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&body, `,"%s":%s`, keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))])
			}
			body.WriteByte('}')
		}
		body.WriteString(`]}`)

		var ref proto.EventScan
		if err := ref.ScanPollResponse([]byte(body.String())); err != nil {
			t.Fatalf("%s: %v", body.String(), err)
		}
		independent := jsonIngredients(t, body.String())
		dec := &pollDecoder{members: []*runningApplet{{dedup: newDedupRing(64)}}}
		buf := []byte(body.String())
		if err := dec.DecodeBody(http.StatusOK, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if len(dec.fresh) != n {
			t.Fatalf("%d fresh records of %d events", len(dec.fresh), n)
		}
		for k := range dec.fresh {
			ev := &dec.fresh[k]
			want := ref.Event(n - 1 - k) // records are oldest first
			meta := dec.materialise(ev).Meta
			if meta != want.Meta || ev.hash != idHash(want.Meta.ID) || !reflect.DeepEqual(want.Ingredients, independent[n-1-k]) {
				t.Fatalf("%s: record %d meta %+v (hash %x), want %+v; Event's ingredients %q, encoding/json's %q",
					body.String(), k, meta, ev.hash, want.Meta, want.Ingredients, independent[n-1-k])
			}
			ing, mapped := dec.ingredients(ev), mapIngredients(want.Ingredients)
			for _, key := range probes {
				if got := ing.Get(key); got != want.Ingredients[key] {
					t.Fatalf("%s: record %d: %q = %q, want %q", body.String(), k, key, got, want.Ingredients[key])
				}
			}
			for r := 0; r < 4; r++ {
				var tmpl strings.Builder
				for p := rng.Intn(4); p >= 0; p-- {
					fmt.Fprintf(&tmpl, "<{{ %s }}>{{%s}}", probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))])
				}
				if got, want := appendExpanded(nil, tmpl.String(), ing), appendExpanded(nil, tmpl.String(), mapped); string(got) != string(want) {
					t.Fatalf("%s: record %d: %q expands to %q, want %q", body.String(), k, tmpl.String(), got, want)
				}
			}
			for _, key := range probes {
				v := want.Ingredients[key]
				for _, c := range []Condition{
					IngredientEquals{key, strings.ToUpper(v)}, IngredientEquals{key, "v"},
					IngredientContains{key, "B"}, IngredientContains{key, ""},
					IngredientAbove{key, 0}, IngredientAbove{key, -1000},
					TimeWindow{rng.Intn(24), rng.Intn(24)},
				} {
					if got, want := c.Allows(now, ing), c.Allows(now, mapped); got != want {
						t.Fatalf("%s: record %d: %s = %v, want %v", body.String(), k, c.Describe(), got, want)
					}
				}
			}
		}
	}
}

// jsonIngredients decodes each event's ingredients of a poll body with
// encoding/json alone, as the protocol defines them: every key but
// "meta", the last occurrence winning, a string's value, "" for null,
// and the raw JSON text of anything else.
func jsonIngredients(t *testing.T, body string) []map[string]string {
	var resp struct {
		Data []map[string]json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	out := make([]map[string]string, len(resp.Data))
	for i, ev := range resp.Data {
		out[i] = map[string]string{}
		for k, raw := range ev {
			switch {
			case k == "meta":
			case string(raw) == "null":
				out[i][k] = ""
			case raw[0] == '"':
				var v string
				if err := json.Unmarshal(raw, &v); err != nil {
					t.Fatal(err)
				}
				out[i][k] = v
			default:
				out[i][k] = string(raw)
			}
		}
	}
	return out
}

// Property: an empty condition list always allows; adding an
// always-false condition always blocks.
func TestConditionsAllowProperty(t *testing.T) {
	f := func(key, val string, hour uint8) bool {
		now := time.Date(2017, 3, 25, int(hour%24), 0, 0, 0, time.UTC)
		ing := mapIngredients(map[string]string{key: val})
		if !conditionsAllow(nil, now, ing) {
			return false
		}
		blocked := []Condition{TimeWindow{0, 0}} // empty window
		return !conditionsAllow(blocked, now, ing)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConditionsGateDispatch(t *testing.T) {
	// "Blink the light when email arrives, but only if the subject
	// mentions ALERT and it's business hours."
	r := newRig(t, FixedInterval{Interval: 5 * time.Second}, nil)
	r.clock.Run(func() {
		a := r.applet("cond1")
		a.Conditions = []Condition{
			IngredientContains{"subject", "alert"},
		}
		r.engine.Install(a)
		r.clock.Sleep(6 * time.Second)

		r.svc.Publish("fired", map[string]string{"subject": "newsletter"})
		r.clock.Sleep(15 * time.Second)
		r.svc.Publish("fired", map[string]string{"subject": "ALERT: disk full"})
		r.clock.Sleep(15 * time.Second)
		r.engine.Stop()
	})
	acked := r.tracesOf(TraceActionAcked)
	skipped := r.tracesOf(TraceConditionSkip)
	if len(acked) != 1 {
		t.Fatalf("acked = %d, want 1 (only the ALERT email)", len(acked))
	}
	if len(skipped) != 1 {
		t.Fatalf("condition skips = %d, want 1", len(skipped))
	}
}

// Property: expandIngredients is the identity on strings without
// placeholders, and known placeholders always resolve to their value.
func TestExpandIngredientsProperty(t *testing.T) {
	f := func(prefix, suffix, key, val string) bool {
		// Skip what the template grammar reads differently from this
		// property: placeholder delimiters inside the parts (a prefix
		// ending in "{" or a key ending in "}" moves the delimiter), and
		// keys that are not already trimmed (expansion trims them).
		if strings.Contains(prefix, "{{") || strings.Contains(suffix, "{{") ||
			strings.Contains(key, "{{") || strings.Contains(key, "}}") || key == "" ||
			strings.HasSuffix(prefix, "{") || strings.HasSuffix(key, "}") ||
			strings.TrimSpace(key) != key {
			return true
		}
		plain := prefix + suffix
		if expandIngredients(plain, map[string]string{key: val}) != plain {
			return false
		}
		tmpl := prefix + "{{" + key + "}}" + suffix
		return expandIngredients(tmpl, map[string]string{key: val}) == prefix+val+suffix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
