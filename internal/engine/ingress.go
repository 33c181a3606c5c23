// The push ingestion tier (Config.Push): partner services POST
// fully-formed event batches to /v1/push and the engine dispatches them
// without a poll round-trip. A delivery goes into its subscription's
// mailbox and the subscription onto its shard's ready queue, in one
// critical section; the shard's workers, which also run its polls, run
// every delivery waiting in the mailbox as one execution.
//
// Backpressure is explicit: each shard holds at most IngressQueue
// deliveries accepted and not yet executed, a delivery above the bound
// is rejected, and the whole batch answers 429 with per-event counts —
// the pushing service keeps the events buffered and the still-running
// poll path reconciles them later. Exactly-once across the two paths
// falls out of the per-applet dedupRing, which only the subscription's
// one executor touches: whichever path sees an event ID first marks it,
// the other path's copy dedups away.
package engine

import (
	"net/http"
	"sync"

	"repro/internal/httpx"
	"repro/internal/proto"
)

// pushScratch is what one /v1/push request is handled in: the scanner
// its body is read with, the ID hashes of the delivery being admitted,
// and the response bytes.
type pushScratch struct {
	scan   proto.EventScan
	hashes []uint64
	out    []byte
}

var pushScratches = sync.Pool{New: func() any { return new(pushScratch) }}

// handlePush accepts a PushBatch over HTTP: the body is scanned where
// httpx read it, validated whole before anything is accepted, and each
// delivery's events are copied from it straight into its subscription's
// mailbox, with no PushBatch built. It answers as PushDeliveries counts:
// 429 when any event was rejected, so the service backs off and lets
// polling reconcile.
func (e *Engine) handlePush(w http.ResponseWriter, r *http.Request) {
	p := pushScratches.Get().(*pushScratch)
	var resp proto.PushResponse
	err := httpx.ReadBody(r, func(body []byte) error {
		if err := p.scan.ScanPushBatch(body); err != nil {
			return err
		}
		resp = e.pushScanned(p)
		return nil
	})
	p.scan.Release()
	if cap(p.hashes) > maxPooledBuilt {
		p.hashes = nil
	}
	if err != nil {
		httpx.WriteBodyError(w, err)
	} else {
		status := http.StatusOK
		if resp.Rejected > 0 {
			status = http.StatusTooManyRequests
		}
		p.out = resp.AppendJSON(p.out[:0])
		httpx.WriteJSONBytes(w, status, p.out)
	}
	pushScratches.Put(p)
}

// pushScanned is PushDeliveries for the batch p.scan holds. A delivery's
// IDs are hashed before its shard lock is taken; its IDs and ingredients
// are copied into the mailbox under the lock. Nothing is allocated per
// event.
func (e *Engine) pushScanned(p *pushScratch) proto.PushResponse {
	scan := &p.scan
	now := e.clock.Now()
	var resp proto.PushResponse
	for i := range scan.Deliveries() {
		identity, lo, hi := scan.Delivery(i)
		if len(identity) == 0 || lo == hi {
			continue
		}
		hashes := p.hashes[:0]
		for j := lo; j < hi; j++ {
			hashes = append(hashes, idHash(scan.ID(j)))
		}
		if sub, m := admitPush(e, identity, hi-lo, &resp); sub != nil {
			m.pushScanned(scan, lo, hashes, now)
			e.commitPush(sub)
			resp.Accepted += hi - lo
		}
		p.hashes = hashes
	}
	e.countPush(resp)
	return resp
}

// PushDeliveries hands each delivery to its subscription's executor —
// the typed twin of the /v1/push endpoint, exported so a cluster router
// can forward routed deliveries without an HTTP round-trip. The
// response accounts every event: accepted into a mailbox, rejected by a
// full shard or a stopped engine, or unmatched to any installed
// subscription. The engine copies what it keeps — IDs and ingredient
// values into the mailbox's arena; key strings are immutable and shared
// — so the caller may reuse its slices and maps once the call returns.
// Every event of a batch is rejected when the engine was built without
// Config.Push.
func (e *Engine) PushDeliveries(ds []proto.PushDelivery) proto.PushResponse {
	now := e.clock.Now()
	var resp proto.PushResponse
	for i := range ds {
		d := &ds[i]
		if d.TriggerIdentity == "" || len(d.Events) == 0 {
			continue
		}
		if sub, m := admitPush(e, d.TriggerIdentity, len(d.Events), &resp); sub != nil {
			m.pushTyped(d.Events, now)
			e.commitPush(sub)
			resp.Accepted += len(d.Events)
		}
	}
	e.countPush(resp)
	return resp
}

// admitPush finds identity's subscription and returns it with its shard
// locked and its mailbox, when the shard can take one more delivery, of
// n events. Otherwise it counts the events rejected or unmatched in resp
// and returns nil.
func admitPush[S string | []byte](e *Engine, identity S, n int, resp *proto.PushResponse) (*subscription, *mailbox) {
	if !e.push {
		resp.Rejected += n
		return nil, nil
	}
	sub := lockIdentity(e, identity)
	if sub == nil {
		resp.Unmatched += n
		return nil, nil
	}
	s := sub.shard
	if s.stopped || s.pushDepth >= e.ingressCap {
		s.mu.Unlock()
		resp.Rejected += n
		return nil, nil
	}
	return sub, s.mailLocked(sub)
}

// commitPush completes the admission of the delivery just recorded in
// sub's mailbox: sub goes onto its shard's ready queue. It drops the
// shard lock admitPush took.
func (e *Engine) commitPush(sub *subscription) {
	s := sub.shard
	s.pushDepth++
	start := s.enqueueLocked(sub)
	s.mu.Unlock()
	if start {
		e.clock.Go(s.workFn)
	}
}

func (e *Engine) countPush(resp proto.PushResponse) {
	e.ingressAccepted.Add(int64(resp.Accepted))
	e.ingressRejected.Add(int64(resp.Rejected))
	e.ingressUnmatch.Add(int64(resp.Unmatched))
}

// pushLocked runs every delivery waiting in sub's mailbox as one
// execution: their events, ingredients and all, are copied into a
// decoder and the mailbox is emptied for the deliveries that arrive
// meanwhile. Deliveries free their place under the IngressQueue bound
// only once the execution is done. Caller holds s.mu and runs sub; the
// lock is dropped around the dispatch.
func (s *shard) pushLocked(sub *subscription) {
	m := sub.mail
	n := len(m.push)
	dec := borrowDecoder(sub)
	dec.pushAt = m.push[0].at
	dec.push = append(dec.push, m.events...)
	dec.ings = append(dec.ings, m.ings...)
	dec.vals = append(dec.vals, m.vals...)
	m.dropPush()
	s.mu.Unlock()

	s.e.dispatchPush(dec)
	dec.release()

	s.mu.Lock()
	s.pushDepth -= n
}

// dispatchPush fans the pushed events dec holds out to the
// subscription's members, mirroring pollSubscription's result half:
// per-member dedup against the same rings the poll path uses
// (exactly-once across paths), the engine's dispatch delay, conditions,
// and the shared action path. Each member walks the deliveries in
// arrival order and their events oldest first, so unlike the poll wire
// no reversal is needed; a fresh event's record is a copy of its pushed
// one, ingredients in dec's arena. The caller owns the subscription dec
// carries.
func (e *Engine) dispatchPush(dec *pollDecoder) {
	sub := dec.sub
	sh := sub.shard

	fresh, ranges := dec.fresh, dec.ranges
	for _, ra := range dec.members {
		start := len(fresh)
		for j := range dec.push {
			ev := &dec.push[j]
			if ev.id == ev.idEnd || !ra.remember(ev.hash) { // an event without an ID never runs
				continue
			}
			fresh = append(fresh, *ev)
		}
		ranges = append(ranges, memberRange{ra: ra, start: start, end: len(fresh)})
	}
	dec.fresh, dec.ranges = fresh, ranges

	sh.counters.pushBatches.Add(1)
	sh.counters.pushEvents.Add(int64(len(fresh)))
	if e.observes(dec) {
		at := e.clock.Now()
		if e.trace != nil {
			e.trace(TraceEvent{Time: at, Kind: TracePushDispatch, AppletID: dec.members[0].id,
				Service: sub.ep.ref.Service, ExecID: dec.execID, N: len(fresh), IngestAt: dec.pushAt})
		}
		if e.spans {
			// A push execution has no poll round-trip: both poll
			// timestamps of its spans are the dispatch start.
			dec.stamps = spanStamps{ingestAt: dec.pushAt, sentAt: at, resultAt: at, pushed: true}
		}
	}
	if len(fresh) == 0 {
		return
	}
	// Same checkpoint-before-dispatch ordering as the poll path: a
	// crashed engine never re-executes an event an action was issued
	// for, whichever path delivered it.
	if e.journal != nil {
		e.journalCheckpoint(dec)
	}
	if e.fanout != nil {
		e.fanout.Observe(float64(len(dec.members)))
	}
	e.dispatchFresh(dec)
}
