package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The reference oracle: the decoder this package shipped before the
// scanner — map[string]json.RawMessage, a nested Unmarshal for meta, one
// more per ingredient — driven by encoding/json's own struct decoding
// for the envelopes. The fuzz targets below hold the scanner to it:
// same accept/reject verdict, reflect.DeepEqual events.
//
// Two adjustments make the oracle state the scanner's documented
// semantics rather than encoding/json's accidents. The ref types reset
// themselves before decoding, because encoding/json decodes a duplicate
// "data"/"events" array into the previous array's elements and would
// leak the earlier meta into the later event. And inputs that spell a
// protocol key in another case are skipped: encoding/json matches
// struct fields case-insensitively, the scanner (like the old event
// decoder's "meta" lookup) matches exactly.

type refEvent struct {
	Ingredients map[string]string
	Meta        EventMeta
}

func (e *refEvent) UnmarshalJSON(data []byte) error {
	*e = refEvent{}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	metaRaw, ok := raw["meta"]
	if !ok {
		return fmt.Errorf("proto: trigger event missing meta")
	}
	if err := json.Unmarshal(metaRaw, &e.Meta); err != nil {
		return fmt.Errorf("proto: bad event meta: %w", err)
	}
	delete(raw, "meta")
	e.Ingredients = make(map[string]string, len(raw))
	for k, v := range raw {
		var s string
		if err := json.Unmarshal(v, &s); err != nil {
			// Tolerate non-string ingredients by re-encoding them
			// verbatim; real services occasionally send numbers.
			s = string(v)
		}
		e.Ingredients[k] = s
	}
	return nil
}

type refPollResponse struct {
	Data []refEvent `json:"data"`
}

type refDelivery struct {
	TriggerIdentity string     `json:"trigger_identity"`
	Events          []refEvent `json:"events"`
}

func (d *refDelivery) UnmarshalJSON(data []byte) error {
	type plain refDelivery
	var p plain
	err := json.Unmarshal(data, &p)
	*d = refDelivery(p)
	return err
}

type refPushBatch struct {
	Data []refDelivery `json:"data"`
}

func refEvents(in []refEvent) []TriggerEvent {
	if in == nil {
		return nil
	}
	out := make([]TriggerEvent, len(in))
	for i, e := range in {
		out[i] = TriggerEvent{Ingredients: e.Ingredients, Meta: e.Meta}
	}
	return out
}

var protocolKeys = []string{"data", "meta", "id", "timestamp", "timestamp_ns", "trigger_identity", "events"}

// caseVariant reports whether some string in data (key or value — the
// over-approximation is harmless) spells a protocol key in another case.
func caseVariant(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		s, ok := tok.(string)
		if !ok {
			continue
		}
		for _, k := range protocolKeys {
			if s != k && strings.EqualFold(s, k) {
				return true
			}
		}
	}
}

// eventSeeds are single events covering the corners the issue lists;
// each fuzz target wraps them in its own envelope.
var eventSeeds = []string{
	`{"k":"v","meta":{"id":"e1","timestamp":1490400000}}`,
	`{"meta":{"id":"e1","timestamp":1,"timestamp_ns":1000000000},"k":"v","n":7}`,
	`{"k":"line\nbreak \"quoted\" back\\slash \/ \b\f\r\t","meta":{"id":"x"}}`,
	`{"k":"é€ 😀 \ud800 \udc00 \ud800x \ud800A","meta":{"id":"e😀"}}`,
	"{\"k\":\"bad \xff\xfe utf8 \xc3\",\"\xff\":\"v\",\"meta\":{\"id\":\"\xffid\"}}",
	`{"a":null,"b":12.5e3,"c":{"x":[1,2,{"y":null}]},"d":[],"e":true,"f":false,"g":-0,"meta":{"id":"1"}}`,
	`{"k":"first","k":"second","k\u0000":"nul","meta":{"id":"dup"},"keta":"x"}`,
	`{"meta":{"id":"a","timestamp":5},"meta":{"id":"b"}}`,
	`{"meta":5,"meta":{"id":"late"}}`,
	`{"meta":{"id":"a"},"meta":null}`,
	`{"m\u0065ta":{"i\u0064":"escaped keys","timestamp":3},"\u006b":"v"}`,
	`{"meta":{"id":"a","id":null,"timestamp":1,"timestamp":null,"extra":{"deep":[1]}}}`,
	`{"meta":{"id":"a","id":7}}`,
	`{"k":"v"}`,
	`{"k":"v","meta":null}`,
	`{"k":"v","meta":[]}`,
	`{"k":"v","meta":"str"}`,
	`{"meta":{"id":"f","timestamp":1.5}}`,
	`{"meta":{"id":"f","timestamp":1e3}}`,
	`{"meta":{"id":"f","timestamp":"5"}}`,
	`{"meta":{"id":"f","timestamp":9223372036854775807,"timestamp_ns":-9223372036854775808}}`,
	`{"meta":{"id":"f","timestamp":9223372036854775808}}`,
	`{"meta":{"id":"f","timestamp":-9223372036854775809}}`,
	`{"meta":{"id":"f","timestamp":01}}`,
	`{"meta":{"ID":"case","Timestamp":1},"Meta":{"id":"x"}}`,
	`{"":"empty key","meta":{"id":""}}`,
	` { "k" : "v" , "meta" : { "id" : "ws" , "timestamp" : 1 } } `,
	`{"k":"v","meta":{"id":"e1"},}`,
	`{"k":"v" "meta":{"id":"e1"}}`,
	`{"k":"ctl` + "\x01" + `","meta":{"id":"e1"}}`,
	`{"k":"\x","meta":{"id":"e1"}}`,
	`{"k":"\u12g4","meta":{"id":"e1"}}`,
	`{"k":tru,"meta":{"id":"e1"}}`,
	`{"k":-,"meta":{"id":"e1"}}`,
	`{"k":1.,"meta":{"id":"e1"}}`,
	`{"k":"unterminated`,
	`null`, `5`, `"s"`, `[]`, `{}`, ``, `{`,
	`{"deep":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `,"meta":{"id":"d"}}`,
	`{"deep":` + strings.Repeat(`{"a":`, 64) + `1` + strings.Repeat("}", 64) + `,"meta":{"id":"d"}}`,
}

// envelopeSeeds are whole documents: %s is replaced by a comma-joined
// event list.
func seedEnvelopes(f *testing.F, envelopes []string, extra []string) {
	for _, ev := range eventSeeds {
		for _, env := range envelopes {
			f.Add([]byte(strings.ReplaceAll(env, "%s", ev)))
		}
	}
	for _, doc := range extra {
		f.Add([]byte(doc))
	}
}

// checkScratchBounded asserts "never allocates unbounded": whatever the
// input, a scanner going back to its pool keeps bounded scratch. It
// returns the scan's verdict on data.
func checkScratchBounded(t *testing.T, data []byte) error {
	var s EventScan
	err := s.ScanPollResponse(data)
	s.Release()
	if cap(s.events) > maxPooledSpans || cap(s.fields) > maxPooledSpans || len(s.intern) > maxInternKeys ||
		cap(s.arena)+cap(s.stack)+cap(s.tmp) > maxPooledBytes || s.data != nil {
		t.Fatalf("released scanner retains events=%d fields=%d bytes=%d intern=%d data=%v", cap(s.events),
			cap(s.fields), cap(s.arena)+cap(s.stack)+cap(s.tmp), len(s.intern), s.data != nil)
	}
	return err
}

func FuzzPollResponseDecode(f *testing.F) {
	seedEnvelopes(f,
		[]string{`{"data":[%s]}`, `{"data":[%s,%s]}`, `%s`, `{"x":1,"data":[%s],"y":[{}]}`},
		[]string{
			`{"data":null}`, `{"data":[]}`, `{}`, `null`, `[]`, `{"data":5}`, `{"data":{}}`, `{"data":[null]}`,
			`{"data":[5]}`, `{"data":[]} x`, `{"data":[]}{}`, `{"data":[],}`, `{"Data":[]}`, `{"data":[]}`,
			`{"data":[{"meta":{"id":"a","timestamp":5}}],"data":[{"meta":{}}]}`,
			`{"data":[{"meta":{"id":"a"}}],"data":null}`,
			`{"data":[{"meta":{"id":"a"}}],"data":[]}`,
		})
	f.Fuzz(checkPollResponseDecode)
}

// TestDecodeDepthLimit pins the nesting limit to encoding/json's, one
// level either side of it. (Not fuzz seeds: the fuzzer spends its whole
// budget minimising 10 KB inputs.)
func TestDecodeDepthLimit(t *testing.T) {
	for _, n := range []int{maxDepth - 1, maxDepth} {
		doc := `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"data":[]}`
		checkPollResponseDecode(t, []byte(doc))
		err := json.Unmarshal([]byte(doc), &TriggerPollResponse{})
		if (err == nil) != (n < maxDepth) {
			t.Errorf("%d nested arrays inside the document: err = %v", n, err)
		}
	}
	checkPollResponseDecode(t, []byte(strings.Repeat("[", 3*maxDepth)))
}

func checkPollResponseDecode(t *testing.T, data []byte) {
	scanErr := checkScratchBounded(t, data)

	var got TriggerPollResponse
	gotErr := json.Unmarshal(data, &got)
	// The engine scans raw bodies, with none of encoding/json's
	// validation in front: the scanner alone must refuse what
	// json.Unmarshal refuses.
	if (scanErr == nil) != (gotErr == nil) {
		t.Fatalf("ScanPollResponse (err %v) and json.Unmarshal (err %v) disagree", scanErr, gotErr)
	}
	var gotEv TriggerEvent
	gotEvErr := json.Unmarshal(data, &gotEv)
	if caseVariant(data) {
		return
	}

	var ref refPollResponse
	refErr := json.Unmarshal(data, &ref)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("poll response: scanner err %v, reference err %v", gotErr, refErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got.Data, refEvents(ref.Data)) {
		t.Fatalf("poll response: scanner %#v\nreference %#v", got.Data, refEvents(ref.Data))
	}

	var refEv refEvent
	refEvErr := json.Unmarshal(data, &refEv)
	if (gotEvErr == nil) != (refEvErr == nil) {
		t.Fatalf("event: scanner err %v, reference err %v", gotEvErr, refEvErr)
	}
	if want := (TriggerEvent{Ingredients: refEv.Ingredients, Meta: refEv.Meta}); gotEvErr == nil && !reflect.DeepEqual(gotEv, want) {
		t.Fatalf("event: scanner %#v\nreference %#v", gotEv, want)
	}
}

func FuzzPushBatchDecode(f *testing.F) {
	seedEnvelopes(f,
		[]string{
			`{"data":[{"trigger_identity":"ti-1","events":[%s]}]}`,
			`{"data":[{"events":[%s,%s],"trigger_identity":"ti-1"},{"trigger_identity":"ti-2","events":[%s]}]}`,
		},
		[]string{
			`{"data":null}`, `{"data":[]}`, `{}`, `null`, `[]`, `{"data":[null]}`, `{"data":[5]}`, `{"data":[{}]}`,
			`{"data":[{"trigger_identity":null,"events":null}]}`,
			`{"data":[{"trigger_identity":5}]}`, `{"data":[{"events":{}}]}`, `{"data":[{"events":[null]}]}`,
			`{"data":[{"trigger_identity":"a","trigger_identity":null,"events":[],"x":[1,{"y":2}]}]}`,
			`{"data":[{"trigger_identity":"ti\n","events":[{"meta":{"id":"1"}}],"events":[]}]}`,
			`{"data":[{"trigger_identity":"a","events":[{"meta":{"id":"1"}}]}],"data":[{"events":[{"meta":{}}]}]}`,
			`{"data":[{"Trigger_Identity":"a","Events":[]}]}`,
			`{"data":[]} trailing`,
		})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got PushBatch
		gotErr := json.Unmarshal(data, &got)
		if caseVariant(data) {
			return
		}
		var ref refPushBatch
		refErr := json.Unmarshal(data, &ref)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("push batch: scanner err %v, reference err %v", gotErr, refErr)
		}
		if gotErr != nil {
			return
		}
		var want []PushDelivery
		if ref.Data != nil {
			want = make([]PushDelivery, len(ref.Data))
			for i, d := range ref.Data {
				want[i] = PushDelivery{TriggerIdentity: d.TriggerIdentity, Events: refEvents(d.Events)}
			}
		}
		if !reflect.DeepEqual(got.Data, want) {
			t.Fatalf("push batch: scanner %#v\nreference %#v", got.Data, want)
		}
	})
}
