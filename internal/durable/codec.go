// The binary codec shared by WAL records and snapshot images, version 3
// (and version 2, read-only). The layout is given once, in the package
// comment (wal.go); this file is its only implementation. Encoding
// appends to a caller-owned buffer and allocates nothing once that
// buffer and the key scratch have grown.
// Decoding treats its input as hostile: every count and length is
// checked against the bytes left before anything is allocated for it,
// and the first violation poisons the decoder (every later read yields
// zero values) so a caller checks one error at the end.
package durable

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/proto"
)

// formatVersion is the on-disk version this build writes. It also reads
// version 2, whose dedup windows are lists of event ID strings, and
// version 1 (the JSON format, v1.go).
const formatVersion = 3

// errCorrupt reports bytes that are not a valid binary encoding.
var errCorrupt = errors.New("durable: malformed binary encoding")

// On-disk op codes, one byte after the seq.
const (
	opInstall byte = 1 + iota
	opRemove
	opCheckpoint
	opAttach
	opDetach
)

// encoder appends version 3 encodings to b. keys is scratch for sorting
// a map's keys, so map fields are written in key order and files stay
// byte-deterministic.
type encoder struct {
	b    []byte
	keys []string
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// window writes a dedup window as a count and raw 8-byte LE words.
func (e *encoder) window(w []uint64) {
	e.uvarint(uint64(len(w)))
	for _, h := range w {
		e.b = binary.LittleEndian.AppendUint64(e.b, h)
	}
}

// fields writes a map as a count and key-sorted pairs.
func (e *encoder) fields(m map[string]string) {
	e.uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.str(k)
		e.str(m[k])
	}
	clear(keys)
	e.keys = keys[:0]
}

// time writes 0 for the zero time, else 1, Unix seconds and nanoseconds.
func (e *encoder) time(t time.Time) {
	if t.IsZero() {
		e.b = append(e.b, 0)
		return
	}
	e.b = append(e.b, 1)
	e.varint(t.Unix())
	e.uvarint(uint64(t.Nanosecond()))
}

func (e *encoder) ref(r *engine.ServiceRef) {
	e.str(r.Service)
	e.str(r.BaseURL)
	e.str(r.Slug)
	e.fields(r.Fields)
	e.str(r.ServiceKey)
	e.str(r.UserToken)
}

// applet writes everything but Conditions, which have no portable
// encoding.
func (e *encoder) applet(a *engine.Applet) {
	e.str(a.ID)
	e.str(a.Name)
	e.str(a.UserID)
	e.ref(&a.Trigger)
	e.ref(&a.Action)
}

func (e *encoder) sub(ss *engine.SubscriptionSnapshot) {
	e.str(ss.Key)
	e.uvarint(uint64(len(ss.Members)))
	for i := range ss.Members {
		e.applet(&ss.Members[i].Applet)
		e.window(ss.Members[i].SeenEvents)
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(ss.Rate))
	e.time(ss.RateAt)
	e.varint(int64(ss.FailStreak))
	e.bool(ss.BreakerOpen)
	e.varint(ss.PollCount)
	e.uvarint(uint64(len(ss.PendingPush)))
	for _, p := range ss.PendingPush {
		e.time(p.At)
		e.uvarint(uint64(len(p.Events)))
		for i := range p.Events {
			ev := &p.Events[i]
			e.str(ev.Meta.ID)
			e.varint(ev.Meta.Timestamp)
			e.varint(ev.Meta.TimestampNanos)
			e.fields(ev.Ingredients)
		}
	}
}

// record writes one WAL payload: seq, op code, then the op's fields.
func (e *encoder) record(rec *Record) error {
	e.uvarint(rec.Seq)
	switch rec.Op {
	case OpInstall:
		if rec.Applet == nil {
			return errors.New("install record without applet")
		}
		e.b = append(e.b, opInstall)
		e.applet(rec.Applet)
	case OpRemove:
		e.b = append(e.b, opRemove)
		e.str(rec.ID)
	case OpCheckpoint:
		if rec.Checkpoint == nil {
			return errors.New("checkpoint record without checkpoint")
		}
		e.b = append(e.b, opCheckpoint)
		e.str(rec.Checkpoint.Key)
		e.uvarint(uint64(len(rec.Checkpoint.Members)))
		for _, m := range rec.Checkpoint.Members {
			e.str(m.AppletID)
			e.strs(m.EventIDs)
		}
	case OpAttach:
		if rec.Attach == nil {
			return errors.New("attach record without snapshot")
		}
		e.b = append(e.b, opAttach)
		e.sub(rec.Attach)
	case OpDetach:
		e.b = append(e.b, opDetach)
		e.str(rec.Key)
		e.strs(rec.AppletIDs)
	default:
		return errors.New("unknown record op")
	}
	return nil
}

// snapshotBody writes a snapshot image's body (between the file header
// and its trailing CRC).
func (e *encoder) snapshotBody(s *Snapshot) {
	e.uvarint(s.WALSeq)
	e.bool(s.Coalesce)
	e.uvarint(uint64(len(s.Subs)))
	for _, ss := range s.Subs {
		e.sub(ss)
	}
	e.uvarint(uint64(len(s.Retired)))
	for _, r := range s.Retired {
		e.str(r.AppletID)
		e.window(r.SeenEvents)
	}
}

// Smallest encodings, in bytes, of the repeated elements: a count is
// accepted only if that many elements could fit in the bytes left.
const (
	minStr     = 1                                  // length
	minPair    = 2 * minStr                         // key, value
	minRef     = 5*minStr + 1                       // five strings and a field count
	minApplet  = 3*minStr + 2*minRef                // ID, name, user, two refs
	minMember  = minApplet + 1                      // applet, seen count
	minSub     = minStr + 1 + 8 + 1 + 1 + 1 + 1 + 1 // key, members, rate, time, fail, breaker, polls, pushes
	minPush    = 1 + 1                              // time, event count
	minEvent   = minStr + 1 + 1 + 1                 // ID, two timestamps, ingredient count
	minCpEntry = minStr + 1                         // applet ID, event count
	minRetired = minStr + 1                         // applet ID, event count
)

// decoder reads encodings of the given version (2 or 3) from b. After
// the first error every read returns a zero value and b stays empty.
type decoder struct {
	b       []byte
	err     error
	version uint32
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

// count reads an element count and accepts it only if that many
// elements of at least minSize bytes fit in what is left.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// strs returns nil for an empty list, as the encoder cannot tell nil
// from empty.
func (d *decoder) strs() []string {
	n := d.count(minStr)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// window reads a dedup window: raw words in version 3, a list of event
// ID strings, hashed as the engine remembers them, in version 2. It
// returns nil for an empty window.
func (d *decoder) window() []uint64 {
	if d.version < 3 {
		return hashIDs(d.strs())
	}
	n := d.count(8)
	if n == 0 {
		return nil
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(d.b[8*i:])
	}
	d.b = d.b[8*n:]
	return w
}

// hashIDs is the dedup window of event IDs ids, nil when empty.
func hashIDs(ids []string) []uint64 {
	if len(ids) == 0 {
		return nil
	}
	w := make([]uint64, len(ids))
	for i, id := range ids {
		w[i] = engine.IDHash(id)
	}
	return w
}

// fields reads a map written by encoder.fields; keys must be strictly
// increasing, so each map has exactly one encoding.
func (d *decoder) fields() map[string]string {
	n := d.count(minPair)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail()
			return nil
		}
		m[k], prev = d.str(), k
	}
	return m
}

func (d *decoder) time() time.Time {
	switch d.byte() {
	case 0:
		return time.Time{}
	case 1:
		sec, nsec := d.varint(), d.uvarint()
		if nsec >= 1e9 {
			d.fail()
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec)).UTC()
	}
	d.fail()
	return time.Time{}
}

func (d *decoder) ref() engine.ServiceRef {
	return engine.ServiceRef{
		Service: d.str(), BaseURL: d.str(), Slug: d.str(),
		Fields: d.fields(), ServiceKey: d.str(), UserToken: d.str(),
	}
}

func (d *decoder) applet(a *engine.Applet) {
	a.ID, a.Name, a.UserID = d.str(), d.str(), d.str()
	a.Trigger = d.ref()
	a.Action = d.ref()
}

func (d *decoder) sub() *engine.SubscriptionSnapshot {
	ss := &engine.SubscriptionSnapshot{Key: d.str()}
	if n := d.count(minMember); n > 0 {
		ss.Members = make([]engine.MemberSnapshot, n)
		for i := range ss.Members {
			d.applet(&ss.Members[i].Applet)
			ss.Members[i].SeenEvents = d.window()
		}
	}
	if len(d.b) < 8 {
		d.fail()
		return ss
	}
	ss.Rate = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	ss.RateAt = d.time()
	ss.FailStreak = int(d.varint())
	ss.BreakerOpen = d.bool()
	ss.PollCount = d.varint()
	if n := d.count(minPush); n > 0 {
		ss.PendingPush = make([]engine.PendingPushSnapshot, n)
		for i := range ss.PendingPush {
			p := &ss.PendingPush[i]
			p.At = d.time()
			if m := d.count(minEvent); m > 0 {
				p.Events = make([]proto.TriggerEvent, m)
				for j := range p.Events {
					ev := &p.Events[j]
					ev.Meta.ID = d.str()
					ev.Meta.Timestamp = d.varint()
					ev.Meta.TimestampNanos = d.varint()
					ev.Ingredients = d.fields()
				}
			}
		}
	}
	return ss
}

// decodeRecord decodes one version 3 WAL payload; the whole payload
// must be used.
func decodeRecord(payload []byte) (Record, error) { return decodeRecordOf(3, payload) }

// decodeRecordV2 decodes one version 2 WAL payload.
func decodeRecordV2(payload []byte) (Record, error) { return decodeRecordOf(2, payload) }

func decodeRecordOf(version uint32, payload []byte) (Record, error) {
	d := decoder{b: payload, version: version}
	rec := Record{Seq: d.uvarint()}
	switch d.byte() {
	case opInstall:
		rec.Op, rec.Applet = OpInstall, new(engine.Applet)
		d.applet(rec.Applet)
	case opRemove:
		rec.Op, rec.ID = OpRemove, d.str()
	case opCheckpoint:
		cp := &engine.Checkpoint{Key: d.str()}
		if n := d.count(minCpEntry); n > 0 {
			cp.Members = make([]engine.MemberEvents, n)
			for i := range cp.Members {
				cp.Members[i] = engine.MemberEvents{AppletID: d.str(), EventIDs: d.strs()}
			}
		}
		rec.Op, rec.Checkpoint = OpCheckpoint, cp
	case opAttach:
		rec.Op, rec.Attach = OpAttach, d.sub()
	case opDetach:
		rec.Op, rec.Key, rec.AppletIDs = OpDetach, d.str(), d.strs()
	default:
		d.fail()
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return rec, d.err
}

// decodeSnapshotBody decodes the body of a snapshot image of the given
// version (2 or 3); the whole body must be used.
func decodeSnapshotBody(version uint32, body []byte) (*Snapshot, error) {
	d := decoder{b: body, version: version}
	s := &Snapshot{WALSeq: d.uvarint(), Coalesce: d.bool()}
	if n := d.count(minSub); n > 0 {
		s.Subs = make([]*engine.SubscriptionSnapshot, n)
		for i := range s.Subs {
			s.Subs[i] = d.sub()
		}
	}
	if n := d.count(minRetired); n > 0 {
		s.Retired = make([]engine.RetiredDedup, n)
		for i := range s.Retired {
			s.Retired[i] = engine.RetiredDedup{AppletID: d.str(), SeenEvents: d.window()}
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail()
	}
	return s, d.err
}
