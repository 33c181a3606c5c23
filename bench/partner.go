package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// population is the seeded input of one run: the applets, which of them
// are hot, and each hot applet's event phase. Everything the program
// under test receives is derived from it.
type population struct {
	applets []engine.Applet
	hotSlot []int32 // applet index -> hot slot, -1 when cold
	hotIdx  []int32 // hot slot -> applet index
	phase   []time.Duration
	idents  []string // hot slot -> trigger identity (push workloads)
}

const (
	partnerURL = "http://partner.sim"
	tokenPfx   = "Bearer t"
)

// newPopulation generates n applets of which hot are hot, their events
// phase-offset inside period. IDs, users, hot-set membership and phases
// all come from seed.
func newPopulation(seed uint64, n, hot int, period time.Duration) *population {
	rng := stats.NewRNG(seed).Split("population")
	p := &population{
		applets: make([]engine.Applet, n),
		hotSlot: make([]int32, n),
		hotIdx:  make([]int32, 0, hot),
		phase:   make([]time.Duration, 0, hot),
	}
	users := n/10 + 1
	for i := range p.applets {
		p.applets[i] = makeApplet(i, rng.IntN(4096), rng.IntN(users))
		p.hotSlot[i] = -1
	}
	for _, i := range rng.Perm(n)[:hot] {
		p.hotSlot[i] = int32(len(p.hotIdx))
		p.hotIdx = append(p.hotIdx, int32(i))
		p.phase = append(p.phase, time.Duration(rng.IntN(int(period))))
	}
	return p
}

// makeApplet builds applet i. The applet's index rides in its user
// token, which is how the partner stub recognises the caller without
// decoding the request body; the action fields are templated so every
// action body carries the event's id and creation time back out.
func makeApplet(i, tag, user int) engine.Applet {
	tok := "t" + strconv.Itoa(i)
	return engine.Applet{
		ID:     fmt.Sprintf("a%07d-%03x", i, tag),
		UserID: fmt.Sprintf("u%06d", user),
		Trigger: engine.ServiceRef{
			Service: "partner", BaseURL: partnerURL, Slug: "fired",
			Fields:     map[string]string{"n": strconv.Itoa(i)},
			ServiceKey: "bench-key", UserToken: tok,
		},
		Action: engine.ServiceRef{
			Service: "partner", BaseURL: partnerURL, Slug: "act",
			Fields:     map[string]string{"eid": "{{eid}}", "at": "{{at}}"},
			ServiceKey: "bench-key", UserToken: tok,
		},
	}
}

// appletIndex recovers i from an ID built by makeApplet.
func appletIndex(id string) int {
	if len(id) < 8 || id[0] != 'a' {
		return -1
	}
	n := 0
	for _, c := range []byte(id[1:8]) {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// identities fills in the hot applets' trigger identities.
func (p *population) identities() {
	p.idents = make([]string, len(p.hotIdx))
	for s, i := range p.hotIdx {
		p.idents[s] = p.applets[i].TriggerIdentity()
	}
}

const auditShards = 64

// hotState is the audit record of one hot applet: how often each of its
// events was executed, and how many of them a poll response or an
// accepted push has offered to the engine so far.
type hotState struct {
	exec    []uint8
	offered int
}

type auditShard struct {
	mu      sync.Mutex
	t2a     []float64 // seconds, events created at or after recordFrom
	t2aSeq  []int64   // push_storm: global event number per sample
	execSeq []uint8   // push_storm: executions per global event number / auditShards
	_       [40]byte
}

// partner is the in-process partner service: it answers trigger polls
// from a seeded event schedule, accepts actions, and audits from the
// outside that every (applet, event) pair offered to the engine is
// executed exactly once. T2A is measured here — action arrival minus
// event creation, read back out of the action body — not inside the
// engine.
type partner struct {
	clock  simtime.Clock
	pop    *population
	period time.Duration
	limit  int
	origin time.Time // event seq k of slot s is created at origin+phase[s]+k*period

	// until, when set, stops event creation at that instant; replay
	// additionally serves the frozen set regardless of the clock (a
	// recovered engine runs on a fresh clock).
	until  atomic.Int64 // unix ns, 0 = unbounded
	replay atomic.Bool
	// recordFrom and recordUntil gate the T2A samples: events created at
	// or after recordFrom whose action arrived before recordUntil.
	recordFrom, recordUntil atomic.Int64 // unix ns

	// global numbers events across all subscriptions (push_storm) rather
	// than per hot applet.
	global bool
	// corrupt is the smoke test's fault injection, to prove the audit
	// notices: "drop" hides every 97th action from the audit, "replay"
	// counts it twice.
	corrupt string

	polls, hotPolls, actions, deletes atomic.Int64
	eventsServed, bytesOut            atomic.Int64
	malformed                         atomic.Int64
	// expiredFresh counts events created inside the window that left the
	// buffer before any poll saw them.
	expiredFresh atomic.Int64

	hot    []hotState // guarded by shards[slot%auditShards].mu
	shards [auditShards]auditShard
}

func newPartner(clock simtime.Clock, pop *population, period time.Duration) *partner {
	p := &partner{
		clock: clock, pop: pop, period: period, limit: proto.DefaultLimit,
		origin: clock.Now(), hot: make([]hotState, len(pop.hotIdx)),
	}
	p.recordFrom.Store(math.MaxInt64) // nothing is a window sample until the window opens
	p.recordUntil.Store(math.MaxInt64)
	return p
}

// created returns how many events slot has created by t.
func (p *partner) created(slot int, t time.Time) int {
	if u := p.until.Load(); u != 0 && (p.replay.Load() || t.UnixNano() > u) {
		t = time.Unix(0, u)
	}
	d := t.Sub(p.origin) - p.pop.phase[slot]
	if d < 0 {
		return 0
	}
	return int(d/p.period) + 1
}

func (p *partner) createdAt(slot, seq int) time.Time {
	return p.origin.Add(p.pop.phase[slot] + time.Duration(seq)*p.period)
}

// stubResponse is the response shell and its body in one allocation.
type stubResponse struct {
	http.Response
	body stubBody
}

type stubBody struct {
	data []byte
	off  int
	buf  *[]byte // pooled backing of data, returned on Close
}

func (b *stubBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *stubBody) Close() error {
	if b.buf != nil {
		*b.buf = b.data[:0]
		bodyPool.Put(b.buf)
		b.buf, b.data = nil, nil
	}
	return nil
}

var (
	bodyPool    = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}
	emptyHeader = http.Header{}
	emptyPoll   = []byte(`{"data":[]}`)
	actionOK    = []byte(`{"data":[{"id":"ok"}]}`)
	emptyObject = []byte(`{}`)
)

func respond(req *http.Request, data []byte, buf *[]byte) *http.Response {
	r := &stubResponse{}
	r.body = stubBody{data: data, buf: buf}
	r.Response = http.Response{
		StatusCode: http.StatusOK, Header: emptyHeader, Request: req,
		Body: &r.body, ContentLength: int64(len(data)),
	}
	return &r.Response
}

// callerIndex reads the applet index out of the Authorization header.
func callerIndex(req *http.Request) int {
	v := req.Header["Authorization"]
	if len(v) == 0 || !strings.HasPrefix(v[0], tokenPfx) {
		return -1
	}
	n, err := strconv.Atoi(v[0][len(tokenPfx):])
	if err != nil {
		return -1
	}
	return n
}

// Do implements httpx.Doer.
func (p *partner) Do(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	switch {
	case strings.HasPrefix(path, proto.ActionsPath):
		p.action(req)
		p.bytesOut.Add(int64(len(actionOK)))
		return respond(req, actionOK, nil), nil
	case req.Method == http.MethodDelete:
		p.deletes.Add(1)
		return respond(req, emptyObject, nil), nil
	case strings.HasPrefix(path, proto.TriggersPath):
		return p.poll(req), nil
	}
	return nil, fmt.Errorf("partner stub: unexpected request %s %s", req.Method, path)
}

func (p *partner) poll(req *http.Request) *http.Response {
	p.polls.Add(1)
	idx := callerIndex(req)
	if idx < 0 {
		p.malformed.Add(1)
		return respond(req, emptyPoll, nil)
	}
	slot := -1 // applets generated after the population (churn) are cold
	if idx < len(p.pop.hotSlot) {
		slot = int(p.pop.hotSlot[idx])
	}
	if slot < 0 {
		p.bytesOut.Add(int64(len(emptyPoll)))
		return respond(req, emptyPoll, nil)
	}
	n := p.created(slot, p.clock.Now())
	first := n - p.limit
	if first < 0 {
		first = 0
	}
	sh := &p.shards[slot%auditShards]
	sh.mu.Lock()
	st := &p.hot[slot]
	for seq := st.offered; seq < first; seq++ {
		// The event fell out of the service's buffer before any poll saw
		// it: the engine was never offered it, so the audit sets it aside.
		st.exec = grown(st.exec, seq)
		st.exec[seq] = expiredMark
		if p.createdAt(slot, seq).UnixNano() >= p.recordFrom.Load() {
			p.expiredFresh.Add(1)
		}
	}
	if n > st.offered {
		st.offered = n
	}
	sh.mu.Unlock()
	if n == first {
		p.bytesOut.Add(int64(len(emptyPoll)))
		return respond(req, emptyPoll, nil)
	}
	p.hotPolls.Add(1)
	p.eventsServed.Add(int64(n - first))
	buf := bodyPool.Get().(*[]byte)
	b := append((*buf)[:0], `{"data":[`...)
	for seq := n - 1; seq >= first; seq-- { // newest first, per the poll wire contract
		b = appendEvent(b, idx, int64(seq), p.createdAt(slot, seq))
		if seq > first {
			b = append(b, ',')
		}
	}
	b = append(b, "]}"...)
	p.bytesOut.Add(int64(len(b)))
	return respond(req, b, buf)
}

// appendEvent renders one trigger event: two ingredients (its id and
// creation time, which the action template echoes back) and the
// protocol metadata with a nanosecond timestamp.
func appendEvent(b []byte, idx int, seq int64, at time.Time) []byte {
	ns := at.UnixNano()
	b = append(b, `{"eid":"`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `","at":"`...)
	b = strconv.AppendInt(b, ns, 10)
	b = append(b, `","meta":{"id":"`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `","timestamp":`...)
	b = strconv.AppendInt(b, ns/1e9, 10)
	b = append(b, `,"timestamp_ns":`...)
	b = strconv.AppendInt(b, ns, 10)
	b = append(b, "}}"...)
	return b
}

// triggerEvent is the same event as a decoded value, for push paths
// that hand deliveries to the router without JSON.
func triggerEvent(idx int, seq int64, at time.Time) proto.TriggerEvent {
	id := strconv.Itoa(idx) + "." + strconv.FormatInt(seq, 10)
	ns := at.UnixNano()
	return proto.TriggerEvent{
		Ingredients: map[string]string{"eid": id, "at": strconv.FormatInt(ns, 10)},
		Meta:        proto.EventMeta{ID: id, Timestamp: ns / 1e9, TimestampNanos: ns},
	}
}

// field extracts the string value of "key":"..." from a JSON body
// without decoding it.
func field(body []byte, key string) []byte {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// action audits one action request: which event of which applet it
// executes, and how long after the event's creation it arrived.
func (p *partner) action(req *http.Request) {
	n := p.actions.Add(1)
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	bb := bytes.NewBuffer((*buf)[:0])
	if _, err := bb.ReadFrom(req.Body); err != nil {
		p.malformed.Add(1)
		return
	}
	*buf = bb.Bytes()[:0]
	eid := field(bb.Bytes(), `"eid":"`)
	at, err := strconv.ParseInt(string(field(bb.Bytes(), `"at":"`)), 10, 64)
	dot := bytes.IndexByte(eid, '.')
	if err != nil || dot < 0 {
		p.malformed.Add(1)
		return
	}
	idx, err1 := strconv.Atoi(string(eid[:dot]))
	seq, err2 := strconv.ParseInt(string(eid[dot+1:]), 10, 64)
	if err1 != nil || err2 != nil || idx < 0 || idx >= len(p.pop.hotSlot) || seq < 0 {
		p.malformed.Add(1)
		return
	}
	count := uint8(1)
	if p.corrupt != "" && n%97 == 0 {
		count = map[string]uint8{"drop": 0, "replay": 2}[p.corrupt]
	}
	now := p.clock.Now().UnixNano()
	t2a := float64(now-at) / 1e9
	record := at >= p.recordFrom.Load() && now < p.recordUntil.Load()

	if p.global {
		sh := &p.shards[seq%auditShards]
		pos := int(seq / auditShards)
		sh.mu.Lock()
		sh.execSeq = grown(sh.execSeq, pos)
		sh.execSeq[pos] = satAdd(sh.execSeq[pos], count)
		if record {
			sh.t2a = append(sh.t2a, t2a)
			sh.t2aSeq = append(sh.t2aSeq, seq)
		}
		sh.mu.Unlock()
		return
	}
	slot := int(p.pop.hotSlot[idx])
	if slot < 0 {
		p.malformed.Add(1)
		return
	}
	sh := &p.shards[slot%auditShards]
	sh.mu.Lock()
	st := &p.hot[slot]
	st.exec = grown(st.exec, int(seq))
	st.exec[seq] = satAdd(st.exec[seq], count)
	if record {
		sh.t2a = append(sh.t2a, t2a)
	}
	sh.mu.Unlock()
}

// expiredMark in an execution count marks an event that expired unseen.
const expiredMark = 0xFF

// grown returns counts long enough to index i.
func grown(counts []uint8, i int) []uint8 {
	for len(counts) <= i {
		counts = append(counts, 0)
	}
	return counts
}

func satAdd(a, b uint8) uint8 {
	if a == expiredMark || int(a)+int(b) >= expiredMark {
		return expiredMark - 1 // executed although never offered, or far too often
	}
	return a + b
}

// offer marks events [0,n) of slot as handed to the engine by an
// accepted push.
func (p *partner) offer(slot, n int) {
	sh := &p.shards[slot%auditShards]
	sh.mu.Lock()
	if n > p.hot[slot].offered {
		p.hot[slot].offered = n
	}
	sh.mu.Unlock()
}

// auditReport is the outcome of the exactly-once check.
type auditReport struct {
	offered    int64 // events handed to the engine (poll response or accepted push)
	lost       int64 // offered, never executed
	duplicated int64 // executed more than once
	stale      int64 // created, never offered, for longer than maxWait: the engine starved a subscription
}

// audit checks every hot applet's events. now bounds what counts as
// created; maxWait is the longest an event may legitimately wait for
// its first poll.
func (p *partner) audit(now time.Time, maxWait time.Duration) auditReport {
	var r auditReport
	for slot := range p.hot {
		sh := &p.shards[slot%auditShards]
		sh.mu.Lock()
		st := &p.hot[slot]
		n := p.created(slot, now)
		for seq := 0; seq < n || seq < len(st.exec); seq++ {
			c := uint8(0)
			if seq < len(st.exec) {
				c = st.exec[seq]
			}
			switch {
			case c == expiredMark:
			case c > 1:
				r.duplicated++
			case seq < st.offered || c == 1:
				r.offered++
				if c == 0 {
					r.lost++
				}
			case now.Sub(p.createdAt(slot, seq)) > maxWait:
				r.stale++
			}
		}
		sh.mu.Unlock()
	}
	return r
}

// record adds the audit's verdict to a result.
func (a auditReport) record(res *result) {
	res.attempted += a.offered + a.duplicated + a.stale
	res.fail(a.lost, "event offered to the engine but never executed")
	res.fail(a.duplicated, "event executed more than once")
	res.fail(a.stale, "event never polled within the slowest cadence")
}

// sampleT2A opens the T2A sample at from for the d every run's window
// lasts at least, so that the sample does not depend on how many
// segments the box got through.
func (p *partner) sampleT2A(from time.Time, d time.Duration) {
	p.recordFrom.Store(from.UnixNano())
	p.recordUntil.Store(from.Add(d).UnixNano())
}

// t2aSamples gathers the window's T2A samples in seconds.
func (p *partner) t2aSamples() []float64 {
	var out []float64
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out = append(out, sh.t2a...)
		sh.mu.Unlock()
	}
	return out
}
