package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
)

// The traced run measures every layer from outside: spans are recorded
// by wrappers the bench installs at the interfaces the engine already
// accepts (httpx.Doer, engine.Journal, http.Handler, Config.Trace) and
// around the bench's own calls into a layer. No engine code changes.

type spanKind uint8

const (
	spExec spanKind = iota // one engine execution: poll_sent or push_dispatch to its last trace event
	spPartnerPoll
	spPartnerAction
	spPartnerDelete
	spJournalInstall
	spJournalRemove
	spJournalCheckpoint
	spJournalAttach
	spPushHandler
	spEngineInstall
	spEngineRemove
	spSnapshot
	spOpen
	spRestore
	spSweep
	spAddNode
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"engine.exec", "partner.poll", "partner.action", "partner.delete",
	"journal.install", "journal.remove", "journal.checkpoint", "journal.attach",
	"push.handler", "engine.install", "engine.remove",
	"durable.snapshot", "durable.open", "durable.restore", "cluster.sweep", "cluster.addnode",
}

const (
	aggStripes      = 8
	histBuckets     = 40 // log2(ns)
	spanSampleEvery = 64
	spanRecordCap   = 1 << 20
)

// aggStripe is one stripe of a span name's always-on aggregate. The
// engine's workers record concurrently, so each name is striped by
// applet index to keep them off one another's cache lines. child is the
// time covered by child spans: self time is total-child.
type aggStripe struct {
	count, total, child atomic.Int64
	hist                [histBuckets]atomic.Int64
	_                   [40]byte
}

// spanTotals is a span name's aggregate summed over its stripes.
type spanTotals struct {
	count, total, child int64
	hist                [histBuckets]int64
}

// spanRecord is one sampled span, times in ns since the run began.
type spanRecord struct {
	kind       spanKind
	start, end int64
	id, parent uint64
	exec       uint64
}

// openExec is the execution currently running for one applet. A
// subscription never executes concurrently, so the slot is only touched
// by the goroutine that owns the execution.
type openExec struct {
	id, span    uint64
	start, last int64
	child       int64
}

type tracer struct {
	t0   time.Time
	on   atomic.Bool
	agg  [nSpanKinds][aggStripes]aggStripe
	open []openExec // by applet index
	seq  atomic.Uint64

	// driver is the span the bench's one driver goroutine is inside
	// (install, remove, sweep, ...); journal records appended within it
	// are its children.
	driver struct {
		active  bool
		sampled bool
		id      uint64
		child   int64
	}

	mu      sync.Mutex
	records []spanRecord
	dropped int64

	// push_storm: when the handler returned for each event, and the wait
	// from there to action_sent.
	handlerRet []atomic.Int64
	waitMu     sync.Mutex
	waits      []float64

	profile *os.File
}

func newTracer(pop *population) *tracer {
	return &tracer{t0: time.Now(), open: make([]openExec, len(pop.applets))}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setOn switches recording; off, every wrapper passes straight through.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// recording reports whether spans are being recorded right now.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) observe(k spanKind, stripe int, d, child int64) {
	a := &t.agg[k][stripe&(aggStripes-1)]
	a.count.Add(1)
	a.total.Add(d)
	if child != 0 {
		a.child.Add(child)
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.hist[b].Add(1)
}

// totals sums one span name's stripes.
func (t *tracer) totals(k spanKind) (s spanTotals) {
	for i := range t.agg[k] {
		a := &t.agg[k][i]
		s.count += a.count.Load()
		s.total += a.total.Load()
		s.child += a.child.Load()
		for b := range a.hist {
			s.hist[b] += a.hist[b].Load()
		}
	}
	return s
}

// meanNs is a span name's mean duration.
func (t *tracer) meanNs(k spanKind) float64 {
	if s := t.totals(k); s.count > 0 {
		return float64(s.total) / float64(s.count)
	}
	return 0
}

// busySeconds is the time spent inside the given span names.
func (t *tracer) busySeconds(kinds ...spanKind) float64 {
	var ns int64
	for _, k := range kinds {
		ns += t.totals(k).total
	}
	return float64(ns) / 1e9
}

func (t *tracer) record(rec spanRecord) {
	t.mu.Lock()
	if len(t.records) < spanRecordCap {
		t.records = append(t.records, rec)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// child records a span made on behalf of applet idx: nested in that
// applet's open execution, or a root span when none is open. Full
// records are kept for one execution in spanSampleEvery, whole.
func (t *tracer) child(k spanKind, idx int, start, end int64) {
	d := end - start
	t.observe(k, idx, d, 0)
	if idx < 0 || idx >= len(t.open) || t.open[idx].id == 0 {
		if id := t.seq.Add(1); id%spanSampleEvery == 0 {
			t.record(spanRecord{kind: k, start: start, end: end, id: id})
		}
		return
	}
	ex := &t.open[idx]
	ex.child += d
	if ex.id%spanSampleEvery == 0 {
		t.record(spanRecord{kind: k, start: start, end: end, id: t.seq.Add(1), parent: ex.span, exec: ex.id})
	}
}

// closeExec finishes applet idx's open execution.
func (t *tracer) closeExec(idx int) {
	ex := &t.open[idx]
	if ex.id == 0 {
		return
	}
	t.observe(spExec, idx, ex.last-ex.start, ex.child)
	if ex.id%spanSampleEvery == 0 {
		t.record(spanRecord{kind: spExec, start: ex.start, end: ex.last, id: ex.span, exec: ex.id})
	}
	ex.id = 0
}

// onTrace is the engine's Config.Trace hook: it opens an execution span
// on poll_sent / push_dispatch and extends it on every later event of
// the same execution.
func (t *tracer) onTrace(ev engine.TraceEvent) {
	if !t.on.Load() {
		return
	}
	idx := appletIndex(ev.AppletID)
	if idx < 0 || idx >= len(t.open) {
		return
	}
	now := t.now()
	switch ev.Kind {
	case engine.TracePollSent, engine.TracePushDispatch:
		t.closeExec(idx)
		// Only a sampled execution is ever written out, so only it needs a
		// span id: the shared counter stays off the workers' hot path.
		var span uint64
		if ev.ExecID%spanSampleEvery == 0 {
			span = t.seq.Add(1)
		}
		t.open[idx] = openExec{id: ev.ExecID, span: span, start: now, last: now}
		return
	case engine.TraceActionSent:
		if t.handlerRet != nil {
			t.pushWait(ev.EventID, now)
		}
	}
	if ex := &t.open[idx]; ex.id == ev.ExecID && ex.id != 0 {
		ex.last = now
	}
}

// handlerReturned notes when the push handler returned for events
// [first,first+n).
func (t *tracer) handlerReturned(first int64, n int) {
	now := t.now()
	for i := first; i < first+int64(n) && i < int64(len(t.handlerRet)); i++ {
		t.handlerRet[i].Store(now)
	}
}

// pushWait records the wait between the push handler returning for an
// event and the engine starting its action.
func (t *tracer) pushWait(eventID string, now int64) {
	dot := strings.IndexByte(eventID, '.')
	if dot < 0 {
		return
	}
	seq, err := strconv.ParseInt(eventID[dot+1:], 10, 64)
	if err != nil || seq < 0 || seq >= int64(len(t.handlerRet)) {
		return
	}
	ret := t.handlerRet[seq].Load()
	if ret == 0 {
		return
	}
	w := float64(now-ret) / 1e6
	if w < 0 {
		w = 0 // dispatched before the handler had returned
	}
	t.waitMu.Lock()
	t.waits = append(t.waits, w)
	t.waitMu.Unlock()
}

// flush closes every execution still open when the run ends.
func (t *tracer) flush() {
	for i := range t.open {
		t.closeExec(i)
	}
}

// --- wrappers ------------------------------------------------------------

type tracedDoer struct {
	t    *tracer
	next httpx.Doer
}

func (t *tracer) doer(next httpx.Doer) httpx.Doer { return tracedDoer{t, next} }

func (d tracedDoer) Do(req *http.Request) (*http.Response, error) {
	t := d.t
	if !t.on.Load() {
		return d.next.Do(req)
	}
	start := t.now()
	resp, err := d.next.Do(req)
	end := t.now()
	k := spPartnerPoll
	switch {
	case strings.Contains(req.URL.Path, "/actions/"):
		k = spPartnerAction
	case req.Method == http.MethodDelete:
		k = spPartnerDelete
	}
	t.child(k, callerIndex(req), start, end)
	return resp, err
}

type tracedJournal struct {
	t    *tracer
	next engine.Journal
}

func (t *tracer) journal(next engine.Journal) engine.Journal { return tracedJournal{t, next} }

// span times one append. Installs and removes come from the driver
// goroutine, inside its engine.install / engine.remove span; checkpoints
// come from the worker that owns applet idx's execution.
func (j tracedJournal) span(k spanKind, idx int, f func() error) error {
	t := j.t
	if !t.on.Load() {
		return f()
	}
	start := t.now()
	err := f()
	end := t.now()
	if d := &t.driver; d.active && idx < 0 {
		t.observe(k, 0, end-start, 0)
		d.child += end - start
		if d.sampled {
			t.record(spanRecord{kind: k, start: start, end: end, id: t.seq.Add(1), parent: d.id})
		}
		return err
	}
	t.child(k, idx, start, end)
	return err
}

func (j tracedJournal) AppendInstall(a engine.Applet) error {
	return j.span(spJournalInstall, -1, func() error { return j.next.AppendInstall(a) })
}

func (j tracedJournal) AppendRemove(id string) error {
	return j.span(spJournalRemove, -1, func() error { return j.next.AppendRemove(id) })
}

func (j tracedJournal) AppendCheckpoint(cp engine.Checkpoint) error {
	idx := -1
	if len(cp.Members) > 0 {
		idx = appletIndex(cp.Members[0].AppletID)
	}
	return j.span(spJournalCheckpoint, idx, func() error { return j.next.AppendCheckpoint(cp) })
}

func (j tracedJournal) AppendAttach(s *engine.SubscriptionSnapshot) error {
	return j.span(spJournalAttach, -1, func() error { return j.next.AppendAttach(s) })
}

// AppendDetach passes through unrecorded: no workload migrates a
// subscription off a journaled engine.
func (j tracedJournal) AppendDetach(key string, ids []string) error {
	return j.next.AppendDetach(key, ids)
}

// handler wraps the engine's HTTP surface; the generator is the only
// caller, so the span is a driver span.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.timed(spPushHandler, func() error { next.ServeHTTP(w, r); return nil })
	})
}

// timed runs f as a span of the driver goroutine. A nil tracer (the
// end-to-end run) just runs f.
func (t *tracer) timed(k spanKind, f func() error) error {
	if t == nil || !t.on.Load() {
		return f()
	}
	d := &t.driver
	d.active, d.id, d.child = true, t.seq.Add(1), 0
	d.sampled = d.id%spanSampleEvery == 0
	start := t.now()
	err := f()
	end := t.now()
	d.active = false
	t.observe(k, 0, end-start, d.child)
	if d.sampled {
		t.record(spanRecord{kind: k, start: start, end: end, id: d.id})
	}
	return err
}

// phase runs f as a driver span whether or not the current segment
// records: the driver's one-off steps (snapshot, recovery, membership
// changes) sit outside the measured segments, so recording them costs
// the overhead comparison nothing.
func (t *tracer) phase(k spanKind, f func() error) error {
	if t == nil {
		return f()
	}
	defer t.on.Store(t.on.Swap(true))
	return t.timed(k, f)
}

// --- output ---------------------------------------------------------------

// writeTrace writes the aggregates and the sampled spans to
// <out>/trace-<workload>.json.
func (t *tracer) writeTrace(o options) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.outDir, "trace-"+o.workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"sample_every\":%d,\"dropped\":%d,\n\"aggregates\":{", o.workload, spanSampleEvery, t.dropped)
	first := true
	for k := spanKind(0); k < nSpanKinds; k++ {
		a := t.totals(k)
		if a.count == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"log2_ns_hist\":[",
			spanNames[k], a.count, a.total, a.total-a.child)
		for i, c := range a.hist {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.FormatInt(c, 10))
		}
		w.WriteString("]}")
	}
	w.WriteString("},\n\"spans\":[")
	for i, s := range t.records {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start\":%d,\"end\":%d,\"id\":%d,\"parent\":%d,\"exec\":%d}",
			spanNames[s.kind], s.start, s.end, s.id, s.parent, s.exec)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
