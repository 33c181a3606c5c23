package proto

import (
	"errors"
	"fmt"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// The event-path wire codec: one hand-written, single-pass JSON scanner
// behind every decoder of trigger events (TriggerEvent,
// TriggerPollResponse, PushBatch) and the action-ack shape check. It
// validates the full JSON grammar and records where each event's
// ingredients sit in the body, and for a push batch where each
// delivery's identity and events are. Reading an event out is up to the
// caller: Event builds a TriggerEvent, for the typed decoders; ID,
// Timestamps and EachIngredient hand out views of the body without
// building anything, which is what lets the engine's poll and push
// paths look an event's meta.id up in its dedup rings and copy an
// event's ingredient values into their own scratch, with no map and no
// string per value.
//
// Accepted input is what encoding/json accepted for the same types, with
// three deliberate differences: protocol keys ("data", "meta", "id",
// "timestamp", "timestamp_ns", "trigger_identity", "events") match in
// exact case only, every array element decodes into a fresh value, and
// an envelope without "data" empties its target's Data as a null does.
// Otherwise: unknown keys are skipped (but validated); duplicate keys
// are processed in order, so the last one wins; null is a no-op for a
// string or integer and nil for an array; an event must carry "meta"
// (null counts); non-string ingredients keep their raw JSON text and a
// null ingredient is ""; string escapes and invalid UTF-8 decode exactly
// as encoding/json decodes them; nesting deeper than 10000 and anything
// after the document but whitespace are errors.

// maxDepth is encoding/json's nesting limit, kept so the two agree on
// which documents are acceptable.
const maxDepth = 10000

// Scratch bounds. The intern table and the retained capacity are capped
// so one hostile body cannot pin memory in a pooled scanner.
const (
	maxInternKeys   = 256
	maxInternKeyLen = 64
	maxPooledSpans  = 4096     // events, fields, and deliveries
	maxPooledBytes  = 64 << 10 // arena + stack + tmp
)

var (
	errMissingMeta = errors.New("proto: trigger event missing meta")
	errBadMeta     = errors.New("proto: bad event meta")
)

// span is a half-open byte range of the scanned body (or of the arena,
// for an event ID that needed unquoting).
type span struct{ start, end int32 }

// strSpan locates a string literal's contents, quotes excluded. plain
// strings are escape-free ASCII: their bytes are their value.
type strSpan struct {
	span
	plain bool
}

type valueKind uint8

const (
	valString valueKind = iota // a string literal
	valNull                    // null: the ingredient is ""
	valRaw                     // anything else, kept verbatim
)

// fieldSpan is one ingredient of a scanned event.
type fieldSpan struct {
	key  strSpan
	val  strSpan
	kind valueKind
}

// eventSpan is one scanned event: decoded meta, located ingredients.
type eventSpan struct {
	id      span // into the body, or into the arena when idArena
	idArena bool
	ts      int64
	tsNanos int64
	fields  span // into EventScan.fields
}

// deliverySpan is one scanned push delivery: its trigger identity and
// its events, EventScan.events[events.start:events.end].
type deliverySpan struct {
	ident      span // into the body, or into the arena when identArena
	identArena bool
	events     span
	// isArray records that the events came from a JSON array (even an
	// empty one) rather than null or an absent key.
	isArray bool
}

// EventScan is the scanner plus the reusable scratch one decode needs.
// The zero value is ready; a scan is not safe for concurrent use. After
// a successful ScanPollResponse or ScanPushBatch the events stay
// addressable — Len, ID, Timestamps, EachIngredient, Event, and a push
// batch's Deliveries and Delivery — for as long as the scanned body
// does.
type EventScan struct {
	data  []byte
	pos   int
	depth int

	events     []eventSpan
	fields     []fieldSpan
	deliveries []deliverySpan
	arena      []byte // unquoted event IDs and trigger identities
	stack      []byte // open containers while skipping a value
	tmp        []byte // unquote scratch for keys and values
	// isArray records that the document's list — a poll response's
	// events, a push batch's deliveries — came from a JSON array (even
	// an empty one) rather than null or an absent key.
	isArray bool
	// intern shares ingredient key strings across events: a service
	// names the same few ingredients in every event it ever sends.
	intern map[string]string
}

// reset primes the scanner with a new document. Spans are 32-bit, so a
// document they cannot address is refused outright.
func (s *EventScan) reset(data []byte) error {
	if len(data) > math.MaxInt32 {
		return errors.New("proto: document too large")
	}
	s.data, s.pos, s.depth = data, 0, 0
	s.resetEvents()
	return nil
}

func (s *EventScan) resetEvents() {
	s.events, s.fields, s.deliveries, s.arena = s.events[:0], s.fields[:0], s.deliveries[:0], s.arena[:0]
	s.isArray = false
}

// Release drops the body reference and any outsized scratch; call it
// before the scan goes back to a pool.
func (s *EventScan) Release() {
	s.data = nil
	if cap(s.events) > maxPooledSpans || cap(s.fields) > maxPooledSpans || cap(s.deliveries) > maxPooledSpans ||
		cap(s.arena)+cap(s.stack)+cap(s.tmp) > maxPooledBytes {
		*s = EventScan{intern: s.intern}
	}
}

func (s *EventScan) syntax(msg string) error {
	return fmt.Errorf("proto: invalid JSON: %s at offset %d", msg, s.pos)
}

func (s *EventScan) mismatch(what string) error {
	return fmt.Errorf("proto: %s has the wrong JSON type at offset %d", what, s.pos)
}

func (s *EventScan) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *EventScan) peek() (byte, error) {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos], nil
	}
	return 0, s.syntax("unexpected end of input")
}

// open consumes the opening bracket of a container.
func (s *EventScan) open() error {
	if s.depth++; s.depth > maxDepth {
		return s.syntax("exceeded max depth")
	}
	s.pos++
	return nil
}

// more steps to the next member of the container that end closes,
// consuming the separator; it reports false once the container is
// closed. first is true until one member has been consumed.
func (s *EventScan) more(first bool, end byte) (bool, error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	if c == end {
		s.pos++
		s.depth--
		return false, nil
	}
	if first {
		return true, nil
	}
	if c != ',' {
		return false, s.syntax("expected a comma or a closing bracket")
	}
	s.pos++
	// A closer straight after the comma fails in the caller: it is
	// neither a key nor a value.
	_, err = s.peek()
	return err == nil, err
}

// finish requires that only whitespace follows the document.
func (s *EventScan) finish() error {
	if s.skipSpace(); s.pos < len(s.data) {
		return s.syntax("trailing data")
	}
	return nil
}

// plainChar marks the bytes a string fast path may step over: printable
// ASCII other than the quote and the backslash.
var plainChar = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return
}()

// str consumes the string literal at pos, validating escapes and
// rejecting raw control characters. Invalid UTF-8 is legal here, as in
// encoding/json; unquote replaces it.
func (s *EventScan) str() (strSpan, error) {
	d := s.data
	if s.pos >= len(d) || d[s.pos] != '"' {
		return strSpan{}, s.syntax("expected a string")
	}
	i := s.pos + 1
	sp := strSpan{span: span{start: int32(i)}, plain: true}
	for i < len(d) {
		c := d[i]
		switch {
		case plainChar[c]:
			i++
		case c == '"':
			sp.end = int32(i)
			s.pos = i + 1
			return sp, nil
		case c == '\\':
			sp.plain = false
			if i+1 >= len(d) {
				s.pos = len(d)
				return strSpan{}, s.syntax("unexpected end of input")
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d) || hex4(d[i+2:i+6]) < 0 {
					s.pos = i
					return strSpan{}, s.syntax("invalid \\u escape")
				}
				i += 6
			default:
				s.pos = i
				return strSpan{}, s.syntax("invalid escape")
			}
		case c < 0x20:
			s.pos = i
			return strSpan{}, s.syntax("control character in string")
		default: // non-ASCII
			sp.plain = false
			i++
		}
	}
	s.pos = len(d)
	return strSpan{}, s.syntax("unexpected end of input")
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the value of the validated string contents raw,
// following encoding/json to the letter: escapes resolve, a surrogate
// pair combines, a lone surrogate and every invalid UTF-8 byte become
// U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			r++
			switch raw[r] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(raw[r+1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					rr2 := rune(-1)
					if r+7 <= len(raw) && raw[r+1] == '\\' && raw[r+2] == 'u' {
						rr2 = hex4(raw[r+3:])
					}
					if dec := utf16.DecodeRune(rr, rr2); dec != utf8.RuneError {
						rr = dec
						r += 6
					} else {
						rr = utf8.RuneError
					}
				}
				dst = utf8.AppendRune(dst, rr)
			default: // '"', '\\', '/'
				dst = append(dst, raw[r])
			}
			r++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// text returns the value of a scanned string: a view of the body for a
// plain one, otherwise unquoted into tmp (valid until the next call).
func (s *EventScan) text(sp strSpan) []byte {
	raw := s.data[sp.start:sp.end]
	if sp.plain {
		return raw
	}
	s.tmp = appendUnquoted(s.tmp[:0], raw)
	return s.tmp
}

// key consumes an object key and its colon, leaving pos at the value.
func (s *EventScan) key() (strSpan, error) {
	k, err := s.str()
	if err != nil {
		return k, err
	}
	c, err := s.peek()
	if err != nil {
		return k, err
	}
	if c != ':' {
		return k, s.syntax("expected a colon after the object key")
	}
	s.pos++
	_, err = s.peek()
	return k, err
}

func (s *EventScan) keyIs(k strSpan, name string) bool {
	return string(s.text(k)) == name
}

// literal consumes one of true, false, null.
func (s *EventScan) literal(word string) error {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		return s.syntax("invalid literal")
	}
	s.pos += len(word)
	return nil
}

// number consumes a JSON number. ok reports that it is an integer
// literal (no fraction, no exponent) that fits an int64, which is what
// encoding/json requires of a number bound for an int64 field.
func (s *EventScan) number() (v int64, ok bool, err error) {
	d := s.data
	i := s.pos
	neg := false
	if i < len(d) && d[i] == '-' {
		neg = true
		i++
	}
	digits := i
	var mag uint64
	ok = true
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		if mag > (1<<63)/10 {
			ok = false
		}
		mag = mag*10 + uint64(d[i]-'0')
		if mag > 1<<63 {
			ok = false
		}
	}
	if i == digits || (d[digits] == '0' && i > digits+1) {
		s.pos = i
		return 0, false, s.syntax("invalid number")
	}
	if i < len(d) && d[i] == '.' {
		ok = false
		i++
		frac := i
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		}
		if i == frac {
			s.pos = i
			return 0, false, s.syntax("invalid number")
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		ok = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		exp := i
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		}
		if i == exp {
			s.pos = i
			return 0, false, s.syntax("invalid number")
		}
	}
	s.pos = i
	if ok && !neg && mag == 1<<63 {
		ok = false
	}
	if !ok {
		return 0, false, nil
	}
	if neg {
		return -int64(mag), true, nil
	}
	return int64(mag), true, nil
}

// skipValue validates and steps over the value at pos, whatever it is.
// Nested containers are walked with an explicit stack, so hostile depth
// costs bytes of scratch rather than goroutine stack.
func (s *EventScan) skipValue() error {
	s.stack = s.stack[:0]
	for {
		c, err := s.peek()
		if err != nil {
			return err
		}
		closed := false // an empty container needs no value
		switch {
		case c == '{' || c == '[':
			if err := s.open(); err != nil {
				return err
			}
			end := c + 2 // '{'+2 == '}', '['+2 == ']'
			s.stack = append(s.stack, end)
			if c, err = s.peek(); err != nil {
				return err
			}
			if c == end {
				closed = true
			} else if end == '}' {
				if _, err := s.key(); err != nil {
					return err
				}
				continue
			} else {
				continue
			}
		case c == '"':
			_, err = s.str()
		case c == '-' || ('0' <= c && c <= '9'):
			_, _, err = s.number()
		case c == 't':
			err = s.literal("true")
		case c == 'f':
			err = s.literal("false")
		case c == 'n':
			err = s.literal("null")
		default:
			err = s.syntax("expected a value")
		}
		if err != nil {
			return err
		}
		// A value just ended: close every container it completes, then
		// step to the next member of the innermost open one.
		for {
			if len(s.stack) == 0 {
				return nil
			}
			end := s.stack[len(s.stack)-1]
			if !closed {
				if c, err = s.peek(); err != nil {
					return err
				}
				if c == ',' {
					s.pos++
					if _, err := s.peek(); err != nil {
						return err
					}
					if end == '}' {
						if _, err := s.key(); err != nil {
							return err
						}
					}
					break
				}
				if c != end {
					return s.syntax("expected a comma or a closing bracket")
				}
			}
			closed = false
			s.pos++
			s.depth--
			s.stack = s.stack[:len(s.stack)-1]
		}
	}
}

// int64Field decodes a "timestamp"-like member into *dst. It reports
// bad when the value is neither null nor an int64-sized integer.
func (s *EventScan) int64Field(dst *int64) (bad bool, err error) {
	c := s.data[s.pos]
	switch {
	case c == '-' || ('0' <= c && c <= '9'):
		v, ok, err := s.number()
		if ok {
			*dst = v
		}
		return !ok, err
	case c == 'n':
		return false, s.literal("null")
	}
	return true, s.skipValue()
}

// meta decodes the value at pos as an EventMeta into ev, replacing
// whatever an earlier "meta" key left there. A member of the wrong JSON
// type is reported as bad rather than as an error, and scanning goes on:
// a later duplicate "meta" key overrides this one whole, exactly as it
// did when events were decoded through a map.
func (s *EventScan) meta(ev *eventSpan) (bad bool, err error) {
	ev.id, ev.idArena, ev.ts, ev.tsNanos = span{}, false, 0, 0
	switch s.data[s.pos] {
	case 'n':
		return false, s.literal("null")
	case '{':
	default:
		return true, s.skipValue()
	}
	if err := s.open(); err != nil {
		return false, err
	}
	for first := true; ; first = false {
		if ok, err := s.more(first, '}'); !ok {
			return bad, err
		}
		k, err := s.key()
		if err != nil {
			return false, err
		}
		var wrong bool
		switch string(s.text(k)) {
		case "id":
			switch s.data[s.pos] {
			case '"':
				var id strSpan
				if id, err = s.str(); err == nil {
					ev.id, ev.idArena = s.stable(id)
				}
			case 'n':
				err = s.literal("null")
			default:
				wrong, err = true, s.skipValue()
			}
		case "timestamp":
			wrong, err = s.int64Field(&ev.ts)
		case "timestamp_ns":
			wrong, err = s.int64Field(&ev.tsNanos)
		default:
			err = s.skipValue()
		}
		if err != nil {
			return false, err
		}
		bad = bad || wrong
	}
}

// stable locates the value of a string that must stay readable after the
// scan — an event ID, a trigger identity. One that needs unquoting is
// resolved now, into the arena (inArena), so the accessors can hand out
// its bytes without scratch.
func (s *EventScan) stable(sp strSpan) (v span, inArena bool) {
	if sp.plain {
		return sp.span, false
	}
	start := len(s.arena)
	s.arena = appendUnquoted(s.arena, s.data[sp.start:sp.end])
	return span{int32(start), int32(len(s.arena))}, true
}

// view returns the bytes a stable span locates.
func (s *EventScan) view(v span, inArena bool) []byte {
	if inArena {
		return s.arena[v.start:v.end]
	}
	return s.data[v.start:v.end]
}

// event scans the event object at pos and appends its span.
func (s *EventScan) event() error {
	switch s.data[s.pos] {
	case '{':
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		return errMissingMeta
	default:
		return s.mismatch("trigger event")
	}
	if err := s.open(); err != nil {
		return err
	}
	ev := eventSpan{fields: span{start: int32(len(s.fields))}}
	hasMeta, badMeta := false, false
	for first := true; ; first = false {
		ok, err := s.more(first, '}')
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k, err := s.key()
		if err != nil {
			return err
		}
		if s.keyIs(k, "meta") {
			hasMeta = true
			if badMeta, err = s.meta(&ev); err != nil {
				return err
			}
			continue
		}
		f := fieldSpan{key: k}
		switch s.data[s.pos] {
		case '"':
			f.val, err = s.str()
		case 'n':
			f.kind, err = valNull, s.literal("null")
		default:
			f.kind, f.val.start = valRaw, int32(s.pos)
			err = s.skipValue()
			f.val.end = int32(s.pos)
		}
		if err != nil {
			return err
		}
		s.fields = append(s.fields, f)
	}
	if !hasMeta {
		return errMissingMeta
	}
	if badMeta {
		return errBadMeta
	}
	ev.fields.end = int32(len(s.fields))
	s.events = append(s.events, ev)
	return nil
}

// array walks the elements of the array at pos, calling elem with pos at
// each. A null in its place is accepted and reported as no array.
func (s *EventScan) array(what string, elem func() error) (isArray bool, err error) {
	switch s.data[s.pos] {
	case 'n':
		return false, s.literal("null")
	case '[':
	default:
		return false, s.mismatch(what)
	}
	if err := s.open(); err != nil {
		return false, err
	}
	for first := true; ; first = false {
		if ok, err := s.more(first, ']'); !ok {
			return true, err
		}
		if err := elem(); err != nil {
			return false, err
		}
	}
}

// eventArray scans the value at pos as a list of events — null, or an
// array — replacing the events of an earlier duplicate key.
func (s *EventScan) eventArray(what string) (err error) {
	s.resetEvents()
	s.isArray, err = s.array(what, s.event)
	return err
}

// object walks the members of the document-level object at pos, handing
// each key to member with pos at its value. A null in its place is
// accepted and has no members, as for any encoding/json struct.
func (s *EventScan) object(what string, member func(k strSpan) error) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.mismatch(what)
	}
	if err := s.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		if ok, err := s.more(first, '}'); !ok {
			return err
		}
		k, err := s.key()
		if err != nil {
			return err
		}
		if err := member(k); err != nil {
			return err
		}
	}
}

// ScanPollResponse validates body as a TriggerPollResponse and records
// its events without building any of them. The scan keeps referring to
// body: read the events out before the buffer is reused.
func (s *EventScan) ScanPollResponse(body []byte) error {
	err := s.reset(body)
	if err == nil {
		err = s.pollResponse()
	}
	if err == nil {
		err = s.finish()
	}
	return err
}

func (s *EventScan) pollResponse() error {
	return s.object("poll response", func(k strSpan) error {
		if s.keyIs(k, "data") {
			return s.eventArray("poll response data")
		}
		return s.skipValue()
	})
}

// ScanPushBatch validates body as a PushBatch and records its deliveries
// without building any of them: each delivery's trigger identity, and
// its events, read through the same accessors as a poll response's. The
// whole body is validated before the scan returns, so a batch whose
// last delivery is malformed yields nothing. Duplicate "data", "events"
// and "trigger_identity" keys are processed in order, the last one
// winning, and a null "trigger_identity" leaves the identity as it was.
// The scan keeps referring to body, as ScanPollResponse's does.
func (s *EventScan) ScanPushBatch(body []byte) error {
	err := s.reset(body)
	if err == nil {
		err = s.pushBatch()
	}
	if err == nil {
		err = s.finish()
	}
	return err
}

func (s *EventScan) pushBatch() error {
	return s.object("push batch", func(k strSpan) error {
		if !s.keyIs(k, "data") {
			return s.skipValue()
		}
		s.resetEvents()
		var err error
		s.isArray, err = s.array("push batch data", s.delivery)
		return err
	})
}

// delivery scans the push delivery at pos — an object, or null for an
// empty one — and appends its span. Its events are the scan's last, so
// a later "events" key replaces them by truncating back to its start.
func (s *EventScan) delivery() error {
	d := deliverySpan{events: span{start: int32(len(s.events))}}
	fields := len(s.fields)
	err := s.object("push delivery", func(k strSpan) error {
		switch string(s.text(k)) {
		case "trigger_identity":
			switch s.data[s.pos] {
			case '"':
				id, err := s.str()
				if err == nil {
					d.ident, d.identArena = s.stable(id)
				}
				return err
			case 'n':
				return s.literal("null")
			}
			return s.mismatch("trigger_identity")
		case "events":
			s.events, s.fields = s.events[:d.events.start], s.fields[:fields]
			var err error
			d.isArray, err = s.array("push delivery events", s.event)
			return err
		}
		return s.skipValue()
	})
	d.events.end = int32(len(s.events))
	s.deliveries = append(s.deliveries, d)
	return err
}

// Deliveries returns the number of push deliveries ScanPushBatch found.
func (s *EventScan) Deliveries() int { return len(s.deliveries) }

// Delivery returns push delivery i's trigger identity — a view of the
// scanned body, not to be retained; empty when absent or null — and the
// range [lo, hi) of its events, oldest first as the wire carries them,
// for ID, Timestamps, EachIngredient and Event.
func (s *EventScan) Delivery(i int) (identity []byte, lo, hi int) {
	d := &s.deliveries[i]
	return s.view(d.ident, d.identArena), int(d.events.start), int(d.events.end)
}

// Len returns the number of scanned events.
func (s *EventScan) Len() int { return len(s.events) }

// ID returns event i's meta.id — a view of the scanned body, not to be
// retained. It is what the engine looks up in its dedup rings before
// deciding the event is worth building.
func (s *EventScan) ID(i int) []byte {
	ev := &s.events[i]
	return s.view(ev.id, ev.idArena)
}

// Timestamps returns event i's meta.timestamp and meta.timestamp_ns.
func (s *EventScan) Timestamps(i int) (ts, tsNanos int64) {
	ev := &s.events[i]
	return ev.ts, ev.tsNanos
}

// EachIngredient calls fn for every ingredient of event i, in wire
// order, with its interned key and its value: a string's decoded
// contents, any other value's raw JSON text, nil for null. A key that
// repeats is passed each time; the last one is the ingredient's value.
// val is a view of the scan's buffers, valid only during the call.
// Nothing is allocated once the intern table holds the event's keys.
func (s *EventScan) EachIngredient(i int, fn func(key string, val []byte)) {
	ev := &s.events[i]
	for _, f := range s.fields[ev.fields.start:ev.fields.end] {
		// The key first: text reuses tmp, so unquoting the value before
		// an escaped key was interned would overwrite the value.
		key := s.internKey(f.key)
		var val []byte
		switch f.kind {
		case valString:
			val = s.text(f.val)
		case valRaw:
			val = s.data[f.val.start:f.val.end]
		}
		fn(key, val)
	}
}

// Event builds event i. Everything it returns is freshly allocated
// except the ingredient keys, which are interned.
func (s *EventScan) Event(i int) TriggerEvent {
	ev := &s.events[i]
	out := TriggerEvent{
		Ingredients: make(map[string]string, ev.fields.end-ev.fields.start),
		Meta:        EventMeta{ID: string(s.ID(i)), Timestamp: ev.ts, TimestampNanos: ev.tsNanos},
	}
	s.EachIngredient(i, func(key string, val []byte) { out.Ingredients[key] = string(val) })
	return out
}

func (s *EventScan) internKey(k strSpan) string {
	b := s.text(k)
	if key, ok := s.intern[string(b)]; ok {
		return key
	}
	key := string(b)
	if len(key) <= maxInternKeyLen && len(s.intern) < maxInternKeys {
		if s.intern == nil {
			s.intern = make(map[string]string)
		}
		s.intern[key] = key
	}
	return key
}

// appendEvents builds every scanned event onto dst.
func (s *EventScan) appendEvents(dst []TriggerEvent) []TriggerEvent {
	for i := range s.events {
		dst = append(dst, s.Event(i))
	}
	return dst
}
