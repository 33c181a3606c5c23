package proto

import (
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim with HTML escaping on: everything printable but the quote,
// the backslash and <, >, &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

// appendString appends s as a JSON string literal, byte for byte what
// encoding/json's Marshal and Encoder write by default: HTML-sensitive
// characters, U+2028 and U+2029 escaped, each invalid UTF-8 byte replaced
// by the escape for U+FFFD.
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MarshalJSON flattens ingredients beside the meta object, matching the
// real protocol's event encoding. Keys are written in sorted order — the
// bytes are the ones marshalling a map of the same members produces.
func (e TriggerEvent) MarshalJSON() ([]byte, error) {
	var arr [8]string
	keys := append(arr[:0], "meta")
	size := 64 + len(e.Meta.ID)
	for k, v := range e.Ingredients {
		if k == "meta" {
			return nil, fmt.Errorf("proto: ingredient key %q is reserved", k)
		}
		keys = append(keys, k)
		size += len(k) + len(v) + 6
	}
	slices.Sort(keys)
	b := make([]byte, 0, size)
	for i, k := range keys {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		if k != "meta" {
			b = appendString(b, e.Ingredients[k])
			continue
		}
		b = append(b, `{"id":`...)
		b = appendString(b, e.Meta.ID)
		b = append(b, `,"timestamp":`...)
		b = strconv.AppendInt(b, e.Meta.Timestamp, 10)
		if e.Meta.TimestampNanos != 0 {
			b = append(b, `,"timestamp_ns":`...)
			b = strconv.AppendInt(b, e.Meta.TimestampNanos, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// AppendJSON appends the request as json.Marshal renders it, byte for
// byte — fields in sorted key order, a nil field map as null, the
// omitempty members left out when empty — without reflection. The
// engine renders each subscription's poll body with it once, when the
// subscription's lead member is decided.
func (r *TriggerPollRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"trigger_identity":`...)
	dst = appendString(dst, r.TriggerIdentity)
	dst = append(dst, `,"triggerFields":`...)
	if r.TriggerFields == nil {
		dst = append(dst, "null"...)
	} else {
		var arr [8]string
		keys := arr[:0]
		for k := range r.TriggerFields {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, '{')
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = appendString(dst, r.TriggerFields[k])
		}
		dst = append(dst, '}')
	}
	if r.Limit != nil {
		dst = append(dst, `,"limit":`...)
		dst = strconv.AppendInt(dst, int64(*r.Limit), 10)
	}
	dst = append(dst, `,"user":`...)
	dst = appendOptional(dst, "id", r.User.ID, "timezone", r.User.Timezone)
	dst = append(dst, `,"ifttt_source":`...)
	dst = appendOptional(dst, "id", r.Source.ID, "url", r.Source.URL)
	return append(dst, '}')
}

// appendOptional appends an object of two string members, each left out
// when empty: the shape of UserInfo and Source.
func appendOptional(dst []byte, k1, v1, k2, v2 string) []byte {
	dst = append(dst, '{')
	if v1 != "" {
		dst = appendString(dst, k1)
		dst = append(dst, ':')
		dst = appendString(dst, v1)
	}
	if v2 != "" {
		if v1 != "" {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k2)
		dst = append(dst, ':')
		dst = appendString(dst, v2)
	}
	return append(dst, '}')
}

// ActionEncoder renders ActionRequest bodies with scratch it reuses from
// one call to the next. The zero value is ready; an encoder is not safe
// for concurrent use.
type ActionEncoder struct {
	keys []string
	val  []byte // one field value, as value left it
}

// Append appends the request to dst: fields in sorted key order, each
// value being whatever value appends for the field's configured text
// (the engine resolves {{ingredient}} templates there), then the user and
// source members, empty IDs omitted as the struct tags say. The bytes
// are the ones json.NewEncoder(w).Encode(ActionRequest{...}) writes for
// the same members, trailing newline included; a nil field map renders
// as {}, like an empty one.
func (e *ActionEncoder) Append(dst []byte, fields map[string]string, value func(dst []byte, text string) []byte, userID, sourceID string) []byte {
	keys := e.keys[:0]
	for k := range fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := append(dst, `{"actionFields":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		e.val = value(e.val[:0], fields[k])
		b = appendString(b, e.val)
	}
	clear(keys) // the applet's strings are not the encoder's to keep alive
	e.keys = keys
	b = append(b, `},"user":{`...)
	if userID != "" {
		b = append(b, `"id":`...)
		b = appendString(b, userID)
	}
	b = append(b, `},"ifttt_source":{`...)
	if sourceID != "" {
		b = append(b, `"id":`...)
		b = appendString(b, sourceID)
	}
	return append(b, "}}\n"...)
}

// AppendJSON appends the response as json.NewEncoder(w).Encode writes
// it, trailing newline included, without reflection: the push ingress
// answers every batch with one.
func (r PushResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, `,"rejected":`...)
	dst = strconv.AppendInt(dst, int64(r.Rejected), 10)
	dst = append(dst, `,"unmatched":`...)
	dst = strconv.AppendInt(dst, int64(r.Unmatched), 10)
	return append(dst, "}\n"...)
}
