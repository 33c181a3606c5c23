package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// trickyStrings exercise every branch of the string appender.
var trickyStrings = []string{
	"", "plain", `<script>alert("x&y")</script>`, "quote\" back\\slash /slash",
	"ctl \x00\x01\x1f \b\f\n\r\t \x7f", "sep \u2028 and \u2029", "é€ 日本語 😀",
	"bad \xff\xfe", "truncated \xe2\x82", "\xc3", "lone \xed\xa0\x80 surrogate", "\ufffd real",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			return false
		}
		return bytes.Equal(appendString(nil, s), want) && bytes.Equal(appendString(nil, []byte(s)), want)
	}
	for _, s := range trickyStrings {
		if !check(s) {
			t.Errorf("appendString(%q) = %s, json.Marshal = %s", s, appendString(nil, s), mustMarshal(t, s))
		}
	}
	// Random bytes are mostly invalid UTF-8; random runes mostly valid.
	if err := quick.Check(func(b []byte, s string) bool { return check(string(b)) && check(s) }, nil); err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTriggerEventMarshalBytesUnchanged holds MarshalJSON to the
// implementation it replaced: a map[string]any of the ingredients plus
// "meta", marshalled by encoding/json.
func TestTriggerEventMarshalBytesUnchanged(t *testing.T) {
	old := func(e TriggerEvent) []byte {
		obj := make(map[string]any, len(e.Ingredients)+1)
		for k, v := range e.Ingredients {
			obj[k] = v
		}
		obj["meta"] = e.Meta
		return mustMarshal(t, obj)
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	events := []TriggerEvent{
		{},
		{Ingredients: map[string]string{}, Meta: EventMeta{ID: "e"}},
		{Ingredients: map[string]string{"zeta": "1", "alpha": "2", "meta ": "3", "m": "4", "n": "5"},
			Meta: EventMeta{ID: "id<1>", Timestamp: -5, TimestampNanos: 7}},
	}
	for i := 0; i < 200; i++ {
		e := TriggerEvent{Ingredients: map[string]string{}, Meta: EventMeta{ID: pick(), Timestamp: rng.Int63() - 1<<62}}
		if i%2 == 0 {
			e.Meta.TimestampNanos = rng.Int63()
		}
		for n := rng.Intn(12); n > 0; n-- {
			k := pick() + fmt.Sprint(rng.Intn(4))
			if k != "meta" {
				e.Ingredients[k] = pick()
			}
		}
		events = append(events, e)
	}
	for _, e := range events {
		got, err := e.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := old(e); !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON = %s\nwant        %s", got, want)
		}
		// And through the encoder, which re-validates and compacts it.
		if got, want := mustMarshal(t, []TriggerEvent{e}), append(append([]byte{'['}, old(e)...), ']'); !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal = %s\nwant         %s", got, want)
		}
	}
}

func TestActionEncoderMatchesEncoder(t *testing.T) {
	cases := []ActionRequest{
		{ActionFields: map[string]string{}},
		{ActionFields: map[string]string{}, User: UserInfo{ID: "u1"}, Source: Source{ID: "a1"}},
		{ActionFields: map[string]string{"b": "<&>", "a": "x y", "c": "q\"\\", "d": "é\xff"},
			User: UserInfo{ID: "u<1>"}, Source: Source{ID: "a&1"}},
	}
	many := ActionRequest{ActionFields: map[string]string{}, User: UserInfo{ID: "u"}}
	for i, s := range trickyStrings {
		many.ActionFields[fmt.Sprintf("f%02d%s", i, s)] = s
	}
	cases = append(cases, many)
	verbatim := func(dst []byte, text string) []byte { return append(dst, text...) }
	var enc ActionEncoder // one encoder throughout: nothing of a body leaks into the next
	var buf []byte        // and one buffer, appended to after a prefix
	for _, req := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(req); err != nil {
			t.Fatal(err)
		}
		buf = enc.Append(append(buf[:0], "Bearer t"...), req.ActionFields, verbatim, req.User.ID, req.Source.ID)
		if got := buf[len("Bearer t"):]; !bytes.Equal(got, want.Bytes()) || string(buf[:8]) != "Bearer t" {
			t.Errorf("writer  %s\nencoder %s", buf, want.Bytes())
		}
	}
	// A nil field map is sent as {}, as the engine always sent it.
	if got, want := string(enc.Append(nil, nil, verbatim, "u", "")), `{"actionFields":{},"user":{"id":"u"},"ifttt_source":{}}`+"\n"; got != want {
		t.Errorf("nil fields: %s", got)
	}
}

// TestPollRequestAppendJSONMatchesMarshal holds the hand-written poll
// request encoder to json.Marshal over every member the struct has, not
// only the ones the engine sets.
func TestPollRequestAppendJSONMatchesMarshal(t *testing.T) {
	zero, fifty, neg := 0, 50, -3
	cases := []TriggerPollRequest{
		{},
		{TriggerIdentity: "ti-0123456789abcdef", TriggerFields: map[string]string{}},
		{TriggerIdentity: "ti-1", TriggerFields: map[string]string{"n": "7"}, Limit: &fifty,
			User: UserInfo{ID: "u1"}, Source: Source{ID: "a1"}},
		{TriggerIdentity: `id "<&>"`, TriggerFields: map[string]string{"b": "<&>", "a": "x y", "c": "q\"\\", "d": "é\xff"},
			Limit: &zero, User: UserInfo{ID: "u<1>", Timezone: "Europe/Paris"}, Source: Source{ID: "a&1", URL: "https://ifttt.sim/a?x=1&y=2"}},
		{Limit: &neg, User: UserInfo{Timezone: "UTC"}, Source: Source{URL: "u"}},
	}
	many := TriggerPollRequest{TriggerIdentity: "many", TriggerFields: map[string]string{}}
	for i, s := range trickyStrings { // more than the stack array holds
		many.TriggerFields[fmt.Sprintf("f%02d%s", i, s)] = s
	}
	cases = append(cases, many)
	scratch := []byte("prefix")
	for _, req := range cases {
		want := mustMarshal(t, req)
		if got := req.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("AppendJSON   %s\njson.Marshal %s", got, want)
		}
		if got := req.AppendJSON(scratch); !bytes.Equal(got[len(scratch):], want) || !bytes.HasPrefix(got, scratch) {
			t.Errorf("AppendJSON onto %q = %s", scratch, got)
		}
	}
	check := func(id string, fields map[string]string, user, src string) bool {
		req := TriggerPollRequest{TriggerIdentity: id, TriggerFields: fields, User: UserInfo{ID: user}, Source: Source{ID: src}}
		want, err := json.Marshal(req)
		return err == nil && bytes.Equal(req.AppendJSON(nil), want)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolKeysExactCase pins the one place the scanner is stricter
// than encoding/json was: a protocol key in another case is an unknown
// key. On the push ingress that means a batch spelled "Data" is an empty
// batch (answered 200 with nothing accepted) and a delivery spelled
// "Trigger_Identity" has no identity (its events are not counted).
func TestProtocolKeysExactCase(t *testing.T) {
	const ev = `{"k":"v","meta":{"id":"e1","timestamp":5}}`
	var batch PushBatch
	if err := json.Unmarshal([]byte(`{"Data":[{"trigger_identity":"ti","events":[`+ev+`]}]}`), &batch); err != nil || len(batch.Data) != 0 {
		t.Errorf(`"Data": err %v, %d deliveries, want an empty batch`, err, len(batch.Data))
	}
	if err := json.Unmarshal([]byte(`{"data":[{"Trigger_Identity":"ti","Events":[`+ev+`]}]}`), &batch); err != nil ||
		len(batch.Data) != 1 || batch.Data[0].TriggerIdentity != "" || batch.Data[0].Events != nil {
		t.Errorf(`"Trigger_Identity"/"Events": err %v, batch %+v, want one empty delivery`, err, batch)
	}
	var resp TriggerPollResponse
	if err := json.Unmarshal([]byte(`{"DATA":[`+ev+`]}`), &resp); err != nil || len(resp.Data) != 0 {
		t.Errorf(`"DATA": err %v, %d events, want none`, err, len(resp.Data))
	}
	// "meta" was exact before the scanner too: "Meta" is an ingredient,
	// and the event has no meta.
	if err := json.Unmarshal([]byte(`{"Meta":{"id":"e1"}}`), &TriggerEvent{}); err == nil {
		t.Error(`event with "Meta" but no "meta" decoded`)
	}
	var one TriggerEvent
	if err := json.Unmarshal([]byte(`{"meta":{"ID":"e1","Timestamp":5,"id":"e2"}}`), &one); err != nil || one.Meta != (EventMeta{ID: "e2"}) {
		t.Errorf(`"ID"/"Timestamp" inside meta: err %v, meta %+v, want only the exact-case id`, err, one.Meta)
	}
	// An absent "data" empties Data like a null one: a reused target
	// never carries one body's events into the next.
	batch.Data = []PushDelivery{{TriggerIdentity: "stale"}}
	if err := json.Unmarshal([]byte(`{}`), &batch); err != nil || len(batch.Data) != 0 {
		t.Errorf("{}: err %v, batch %+v, want no deliveries", err, batch)
	}
}

func TestPollResponseDecodeReplacesData(t *testing.T) {
	var r TriggerPollResponse
	two := `{"data":[{"k":"2","meta":{"id":"2","timestamp":2,"timestamp_ns":9}},{"k":"1","meta":{"id":"1"}}]}`
	if err := json.Unmarshal([]byte(two), &r); err != nil || len(r.Data) != 2 {
		t.Fatalf("decode: %v, %d events", err, len(r.Data))
	}
	backing := &r.Data[0]
	// A later, smaller response replaces the events and reuses the array;
	// nothing of the earlier events survives in the reused slot.
	if err := json.Unmarshal([]byte(`{"data":[{"meta":{"id":"3"}}]}`), &r); err != nil {
		t.Fatal(err)
	}
	want := []TriggerEvent{{Ingredients: map[string]string{}, Meta: EventMeta{ID: "3"}}}
	if !reflect.DeepEqual(r.Data, want) || &r.Data[0] != backing {
		t.Fatalf("second decode = %#v (reused backing array: %v)", r.Data, &r.Data[0] == backing)
	}
	for _, doc := range []string{`{}`, `{"data":null}`, `null`} {
		r.Data = append(r.Data[:0], TriggerEvent{})
		if err := json.Unmarshal([]byte(doc), &r); err != nil || len(r.Data) != 0 {
			t.Errorf("%s: err %v, Data %#v", doc, err, r.Data)
		}
	}
}

func TestEventInternsIngredientKeys(t *testing.T) {
	var s EventScan
	body := []byte(`{"data":[{"subject":"a","meta":{"id":"1"}},{"subject":"b","meta":{"id":"2"}}]}`)
	if err := s.ScanPollResponse(body); err != nil {
		t.Fatal(err)
	}
	key := func(e TriggerEvent) *byte {
		for k := range e.Ingredients {
			return unsafe.StringData(k)
		}
		return nil
	}
	if a, b := key(s.Event(0)), key(s.Event(1)); a == nil || a != b {
		t.Error("ingredient keys of two events are distinct strings, want one interned string")
	}
	// The table is bounded: hostile bodies cannot grow it without limit.
	var big strings.Builder
	big.WriteString(`{"data":[{"meta":{"id":"x"}`)
	for i := 0; i < 4*maxInternKeys; i++ {
		fmt.Fprintf(&big, `,"k%d":1`, i)
	}
	big.WriteString(`}]}`)
	if err := s.ScanPollResponse([]byte(big.String())); err != nil {
		t.Fatal(err)
	}
	if ev := s.Event(0); len(ev.Ingredients) != 4*maxInternKeys || len(s.intern) > maxInternKeys {
		t.Errorf("%d ingredients, intern table %d (cap %d)", len(ev.Ingredients), len(s.intern), maxInternKeys)
	}
}

// TestValidateActionResponseAgrees holds the ack shape check to what
// decoding into an ActionResponse accepts.
func TestValidateActionResponseAgrees(t *testing.T) {
	docs := []string{
		`{"data":[{"id":"ok"}]}`, `{"data":[{"id":"ok","url":"x"},{"id":null},null,{}]}`, `{"data":[]}`, `{"data":null}`,
		`{}`, `null`, `{"other":[1,{"a":null}]}`, ` {"data" : [ { "id" : "aé" } ] } `,
		`{"data":[{"id":5}]}`, `{"data":[5]}`, `{"data":{}}`, `{"data":"x"}`, `[]`, `5`, `"s"`, ``,
		`{"data":[{"id":"ok"}]`, `{"data":[{"id":"ok"}]} x`, `{"data":[{"id":"ok"},]}`, `{"data":[{"id":nope}]}`,
		`{"data":[{"id":"a"}],"data":5}`, `not json`, `{"data":[{"id":"\x"}]}`,
	}
	for _, doc := range docs {
		var ack ActionResponse
		want := json.Unmarshal([]byte(doc), &ack)
		if got := ValidateActionResponse([]byte(doc)); (got == nil) != (want == nil) {
			t.Errorf("%q: ValidateActionResponse err %v, json.Unmarshal err %v", doc, got, want)
		}
	}
}

func TestScanAllocs(t *testing.T) {
	body := []byte(`{"data":[` + strings.Repeat(`{"eid":"1234.17","at":"1490400000000000000","meta":{"id":"1234.17","timestamp":1490400000,"timestamp_ns":1490400000000000000}},`, 19) +
		`{"eid":"1234.0","at":"1490400000000000000","meta":{"id":"1234.0","timestamp":1490400000}}]}`)
	var s EventScan
	if err := s.ScanPollResponse(body); err != nil {
		t.Fatal(err)
	}
	s.Event(0) // warm the intern table
	if n := testing.AllocsPerRun(100, func() {
		if err := s.ScanPollResponse(body); err != nil || s.Len() != 20 || string(s.ID(19)) != "1234.0" {
			t.Fatal("scan failed")
		}
	}); n != 0 {
		t.Errorf("scanning a 20-event body allocates %.1f/op, want 0", n)
	}
	// Building one event costs its map, its ID and its two values.
	if n := testing.AllocsPerRun(100, func() { s.Event(3) }); n > 5 {
		t.Errorf("building one two-ingredient event allocates %.1f/op, want <= 5", n)
	}
}
