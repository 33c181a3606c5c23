package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// --- push_storm ----------------------------------------------------------

// runPushStorm: the one real-clock workload. A single generator
// goroutine POSTs push batches into the engine's own HTTP handler (no
// sockets): first an open loop at three fixed rates, each event timed
// from the instant its batch was due, then a closed loop at saturation.
// Ingress-bound: push decode, the bounded ingress queues, the merge and
// the dispatch they feed.
func runPushStorm(o options) *result {
	n := o.n(pushSubs)
	r := newRun(o, newPopulation(o.seed, n, n, time.Second))
	r.pop.identities()
	// The measuring time is split: a sixteenth for each of the three fixed
	// rates, the rest for the saturation segments, whose median carries
	// the end-to-end metrics and needs the numbers.
	phaseLen, warm := time.Duration(o.seconds/16*float64(time.Second)), time.Second/2
	if o.segments > 0 { // the smoke test
		phaseLen, warm = 100*time.Millisecond, 50*time.Millisecond
	}
	r.seconds = o.seconds * 13 / 16
	if r.tr != nil {
		r.tr.handlerRet = make([]atomic.Int64, 1<<22)
	}
	segBatches := o.n(pushSegBatches)

	for {
		clock := simtime.NewReal()
		stub := newPartner(clock, r.pop, time.Second)
		stub.global = true
		eng := engine.New(engine.Config{
			Clock: clock, RNG: stats.NewRNG(o.seed), Doer: r.doer(stub),
			Poll:          engine.FixedInterval{Interval: time.Hour}, // the poll path stays idle
			DispatchDelay: -1, Shards: 2, ShardWorkers: 4,
			Push: true, IngressQueue: pushQueue, Trace: r.traceFunc(),
		})
		h := eng.Handler()
		if r.tr != nil {
			h = r.tr.handler(h)
		}
		g := &pushGen{h: h, eng: eng, pop: r.pop, seed: o.seed, res: r.res, tr: r.tr}
		stop := func() {
			eng.Stop()
			clock.Wait()
		}

		t0 := time.Now()
		r.installAll(eng.Install)
		g.open(o.rate(pushWarmRate), warm) // warm the decode and dispatch paths
		g.settle()
		r.setupDone(t0)
		if r.setupAgain() {
			stop()
			continue
		}

		// Open loop: fixed rates, lateness and refusals reported per rate.
		stub.recordFrom.Store(0)
		before := eng.Stats()
		var phases []pushPhase
		for _, rate := range pushRates {
			ph := pushPhase{rate: o.rate(rate), first: g.next}
			refused0 := g.refused
			ph.late = g.open(ph.rate, phaseLen)
			ph.drain = g.settle()
			ph.last, ph.refused = g.next, g.refused-refused0
			phases = append(phases, ph)
		}
		r.res.fail(g.refused, "pushed event rejected or unmatched at a fixed rate")

		// Closed loop: the next batch goes out when the previous returns; a
		// 429 backs off and re-sends. A segment ends when its backlog has
		// drained, so it executes exactly the events it pushed.
		satStart, rej0 := g.next, g.rejected
		r.loop(nil, func() int64 {
			first := g.next
			for b := 0; b < segBatches; b++ {
				g.closed()
			}
			g.settle()
			return g.next - first
		})
		after := eng.Stats()
		r.finish()
		stop()

		total := g.next
		r.res.attempted += total
		lost, dup := stub.auditGlobal(total)
		r.res.fail(lost, "pushed event accepted but never executed")
		r.res.fail(dup, "event executed more than once")
		r.res.fail(after.ActionsFailed+stub.malformed.Load(), "action failed")

		lat := stub.latencies(total)
		r.pushLayers(phases, lat, g, satStart, rej0)
		r.engineLayers(before, after, after.IngressAccepted-before.IngressAccepted)
		r.partnerLayers(stub)
		r.layers["ingest.depth_max"] = float64(g.depthMax)
		return r.done()
	}
}

type pushPhase struct {
	rate        int
	first, last int64 // global event numbers [first,last)
	late        []float64
	drain       time.Duration
	refused     int64
}

// pushLayers derives the real-latency metrics from the stub's arrival
// times. lat[i] is event i's due-to-action latency in ms (NaN-free: an
// unexecuted event already failed the audit).
func (r *run) pushLayers(phases []pushPhase, lat []float64, g *pushGen, satStart, rej0 int64) {
	const limitMs = 50
	best := 0.0
	var late []float64
	for i, ph := range phases {
		s := append([]float64(nil), lat[ph.first:ph.last]...)
		sort.Float64s(s)
		tag := []string{"r5k", "r20k", "r40k"}[i]
		p99 := quantileSorted(s, 0.99)
		r.layers["ingest.t2a_real_p99_ms."+tag] = p99
		r.layers["ingest.samples."+tag] = float64(len(s))
		if i == 1 {
			r.res.extra = append(r.res.extra, metric{Name: "t2a_real_p50_ms", Value: quantileSorted(s, 0.5), Unit: "ms"})
		}
		if p99 <= limitMs && ph.refused == 0 && ph.drain <= 100*time.Millisecond {
			best = float64(ph.rate)
		}
		late = append(late, ph.late...)
	}
	r.layers["ingest.max_rate_ok_eps"] = best
	r.layers["ingest.gen_late_p99_ms"] = quantile(late, 0.99)
	if sent := g.next - satStart; sent > 0 {
		rej := g.rejected - rej0
		r.layers["ingest.rejected_ratio"] = float64(rej) / float64(sent+rej)
	}
}

// pushGen is the load generator: one goroutine, deterministic batches.
// Event number i always goes to the same subscription, so a re-sent
// batch is byte-identical and the engine must dedup what it had accepted.
type pushGen struct {
	h    http.Handler
	eng  *engine.Engine
	pop  *population
	seed uint64
	res  *result
	tr   *tracer // nil in the end-to-end run

	next     int64 // next global event number
	refused  int64 // events answered rejected/unmatched in the open loop
	rejected int64 // events answered rejected in the closed loop (re-sent)
	depthMax int64
	body     []byte
	rw       pushWriter
}

// pushWriter is the minimal http.ResponseWriter the handler needs.
type pushWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *pushWriter) Header() http.Header         { return w.header }
func (w *pushWriter) WriteHeader(code int)        { w.status = code }
func (w *pushWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

var pushURL = &url.URL{Path: proto.PushPath}

// subOf maps an event number to its subscription: a seeded hash, so the
// interleaving varies with the seed and a batch can be rebuilt.
func (g *pushGen) subOf(i int64) int {
	x := uint64(i) + g.seed*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(g.pop.idents)))
}

// send POSTs events [first,first+pushBatch) stamped with due and
// returns the engine's verdict.
func (g *pushGen) send(first int64, due time.Time) (int, proto.PushResponse) {
	b := append(g.body[:0], `{"data":[`...)
	for i := first; i < first+pushBatch; i++ {
		if i > first {
			b = append(b, ',')
		}
		sub := g.subOf(i)
		b = append(b, `{"trigger_identity":"`...)
		b = append(b, g.pop.idents[sub]...)
		b = append(b, `","events":[`...)
		b = appendEvent(b, int(g.pop.hotIdx[sub]), i, due)
		b = append(b, "]}"...)
	}
	g.body = append(b, "]}"...)
	req := &http.Request{
		Method: http.MethodPost, URL: pushURL, Header: http.Header{},
		Body: &stubBody{data: g.body}, ContentLength: int64(len(g.body)),
	}
	g.rw.header, g.rw.status = http.Header{}, http.StatusOK
	g.rw.body.Reset()
	g.h.ServeHTTP(&g.rw, req)
	if g.tr.recording() {
		g.tr.handlerReturned(first, pushBatch)
	}
	var resp proto.PushResponse
	if err := json.Unmarshal(g.rw.body.Bytes(), &resp); err != nil {
		g.res.fail(1, fmt.Sprintf("push answered %d with an undecodable body", g.rw.status))
	}
	if d := g.eng.Stats().IngressDepth; d > g.depthMax {
		g.depthMax = d
	}
	return g.rw.status, resp
}

// open runs the open loop at rate events/s for d: batch k is due at
// start+k*interval whatever the engine does. It returns how late each
// batch left, in ms.
func (g *pushGen) open(rate int, d time.Duration) (late []float64) {
	interval := time.Duration(float64(time.Second) * pushBatch / float64(rate))
	start := time.Now()
	for k := 0; time.Duration(k)*interval < d; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(due))/1e6)
		status, resp := g.send(g.next, due)
		if status != http.StatusOK || resp.Accepted != pushBatch {
			g.refused += int64(resp.Rejected + resp.Unmatched)
		}
		g.next += pushBatch
	}
	return late
}

// closed sends one batch and re-sends it until the engine takes it all.
func (g *pushGen) closed() {
	due := time.Now()
	for {
		status, resp := g.send(g.next, due)
		if status == http.StatusOK {
			if resp.Accepted != pushBatch {
				g.res.fail(int64(resp.Unmatched), "pushed event unmatched")
			}
			break
		}
		g.rejected += int64(resp.Rejected)
		time.Sleep(pushBackoff)
	}
	g.next += pushBatch
}

// settle waits for the ingress backlog to drain and returns how long
// that took.
func (g *pushGen) settle() time.Duration {
	t0 := time.Now()
	for g.eng.Stats().IngressDepth > 0 && time.Since(t0) < 5*time.Second {
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(t0)
}

// auditGlobal checks that each of the first total globally numbered
// events ran exactly once.
func (p *partner) auditGlobal(total int64) (lost, dup int64) {
	for i := int64(0); i < total; i++ {
		sh := &p.shards[i%auditShards]
		pos := int(i / auditShards)
		c := uint8(0)
		if pos < len(sh.execSeq) {
			c = sh.execSeq[pos]
		}
		switch {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	return lost, dup
}

// latencies returns each event's due-to-action latency in ms.
func (p *partner) latencies(total int64) []float64 {
	out := make([]float64, total)
	for i := range p.shards {
		sh := &p.shards[i]
		for k, seq := range sh.t2aSeq {
			if seq < total {
				out[seq] = sh.t2a[k] * 1e3
			}
		}
	}
	return out
}

// --- the cluster workload's push source ------------------------------------

// simPusher hands the hot events to the cluster router once per virtual
// second, as a push-mode partner would; the polls deliver the same
// events again later and must dedup.
type simPusher struct {
	r     *run
	stub  *partner
	clock simtime.Clock
	cl    *cluster.Cluster

	buckets  [][]int // hot slots by the virtual second their phase falls in
	nextSeq  []int   // per slot, first event not yet pushed
	sec      int
	accepted int64
	refused  int64
	fwdNs    int64
	sent     int64
}

func newSimPusher(r *run, stub *partner, clock simtime.Clock, cl *cluster.Cluster) *simPusher {
	period := int(stub.period / time.Second)
	p := &simPusher{r: r, stub: stub, clock: clock, cl: cl,
		buckets: make([][]int, period), nextSeq: make([]int, len(r.pop.hotIdx))}
	for slot, ph := range r.pop.phase {
		b := int((ph+time.Second-1)/time.Second) % period
		p.buckets[b] = append(p.buckets[b], slot)
	}
	return p
}

// advance moves virtual time forward by d, pushing each second's events.
func (p *simPusher) advance(d time.Duration) {
	for i := 0; i < int(d/time.Second); i++ {
		p.clock.Sleep(time.Second)
		p.sec++
		p.push(p.buckets[p.sec%len(p.buckets)])
	}
}

func (p *simPusher) push(slots []int) {
	now := p.clock.Now()
	ds := make([]proto.PushDelivery, 0, len(slots))
	for _, slot := range slots {
		idx := int(p.r.pop.hotIdx[slot])
		for n := p.stub.created(slot, now); p.nextSeq[slot] < n; p.nextSeq[slot]++ {
			seq := p.nextSeq[slot]
			ds = append(ds, proto.PushDelivery{
				TriggerIdentity: p.r.pop.idents[slot],
				Events:          []proto.TriggerEvent{triggerEvent(idx, int64(seq), p.stub.createdAt(slot, seq))},
			})
		}
	}
	if len(ds) == 0 {
		return
	}
	t0 := time.Now()
	resp := p.cl.PushDeliveries(ds)
	p.fwdNs += time.Since(t0).Nanoseconds()
	p.sent += int64(len(ds))
	p.accepted += int64(resp.Accepted)
	p.refused += int64(resp.Rejected + resp.Unmatched)
	if resp.Accepted == len(ds) {
		for _, slot := range slots {
			p.stub.offer(slot, p.nextSeq[slot])
		}
	}
}

func (p *simPusher) forwardNs() float64 {
	if p.sent == 0 {
		return 0
	}
	return float64(p.fwdNs) / float64(p.sent)
}

// drain lets the ingress queues empty before the engines stop (a
// stopping engine drops what is still queued).
func (p *simPusher) drain() {
	for i := 0; i < 1000 && p.cl.Stats().IngressDepth > 0; i++ {
		p.clock.Sleep(10 * time.Millisecond)
	}
}

// rate scales an open-loop rate like a population, never below ten
// batches a second.
func (o options) rate(eps int) int {
	if r := eps / o.scale; r > 10*pushBatch {
		return r
	}
	return 10 * pushBatch
}
