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

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/proto"
)

// handlePush accepts a PushBatch over HTTP and feeds it to
// PushDeliveries; 429 when any event was rejected so the service backs
// off and lets polling reconcile.
func (e *Engine) handlePush(w http.ResponseWriter, r *http.Request) {
	var batch proto.PushBatch
	if err := httpx.ReadJSON(r, &batch); err != nil {
		httpx.WriteBodyError(w, err)
		return
	}
	resp := e.PushDeliveries(batch.Data)
	status := http.StatusOK
	if resp.Rejected > 0 {
		status = http.StatusTooManyRequests
	}
	httpx.WriteJSON(w, status, resp)
}

// PushDeliveries hands each delivery to its subscription's executor —
// the body of the /v1/push endpoint, exported so a cluster router can
// forward routed deliveries without an HTTP round-trip. The response
// accounts every event: accepted into a mailbox, rejected by a full
// shard or a stopped engine, or unmatched to any installed
// subscription. Deliveries hold ownership of their Events slices from
// here on. Every event of a batch is rejected when the engine was built
// without Config.Push.
func (e *Engine) PushDeliveries(ds []proto.PushDelivery) proto.PushResponse {
	now := e.clock.Now()
	var resp proto.PushResponse
	for _, d := range ds {
		if d.TriggerIdentity == "" || len(d.Events) == 0 {
			continue
		}
		if !e.push {
			resp.Rejected += len(d.Events)
			continue
		}
		sub := e.lockIdentity(d.TriggerIdentity)
		if sub == nil {
			resp.Unmatched += len(d.Events)
			continue
		}
		s := sub.shard
		if s.stopped || s.pushDepth >= e.ingressCap {
			s.mu.Unlock()
			resp.Rejected += len(d.Events)
			continue
		}
		m := s.mailLocked(sub)
		m.push = append(m.push, pendingPush{events: d.Events, at: now})
		s.pushDepth++
		start := s.enqueueLocked(sub)
		s.mu.Unlock()
		if start {
			e.clock.Go(s.workFn)
		}
		resp.Accepted += len(d.Events)
	}
	e.ingressAccepted.Add(int64(resp.Accepted))
	e.ingressRejected.Add(int64(resp.Rejected))
	e.ingressUnmatch.Add(int64(resp.Unmatched))
	return resp
}

// pushLocked runs every delivery waiting in sub's mailbox as one
// execution; deliveries free their place under the IngressQueue bound
// only once it is done. Caller holds s.mu and runs sub; the lock is
// dropped around the dispatch.
func (s *shard) pushLocked(sub *subscription) {
	m := sub.mail
	n := len(m.push)
	dec := borrowDecoder(sub)
	dec.push = append(dec.push, m.push...)
	clear(m.push)
	m.push = m.push[:0]
	s.mu.Unlock()

	s.e.dispatchPush(dec)
	dec.release()

	s.mu.Lock()
	s.pushDepth -= n
}

// dispatchPush fans the push deliveries dec holds out to the
// subscription's members, mirroring pollSubscription's result half:
// per-member dedup against the same rings the poll path uses
// (exactly-once across paths), the engine's dispatch delay, conditions,
// and the shared action path. Each member walks the deliveries in
// arrival order and their events oldest first, so unlike the poll wire
// no reversal is needed; a fresh event's record refers to its
// delivery's own ingredient map. The caller owns the subscription dec
// carries.
func (e *Engine) dispatchPush(dec *pollDecoder) {
	sub := dec.sub
	execID := e.execSeq.Add(1)
	at := dec.push[0].at

	dec.resetFresh()
	fresh, ranges := dec.fresh, dec.ranges
	for _, ra := range dec.members {
		start := len(fresh)
		for d, p := range dec.push {
			for j := range p.events {
				meta := &p.events[j].Meta
				if meta.ID == "" || !ra.dedup.Add(meta.ID) {
					continue
				}
				fresh = append(fresh, event{meta: *meta, lo: ^int32(d), hi: int32(j)})
			}
		}
		ranges = append(ranges, memberRange{ra: ra, start: start, end: len(fresh)})
	}
	dec.fresh, dec.ranges = fresh, ranges

	// A push execution has no poll round-trip: both poll timestamps of
	// its spans are the dispatch start.
	dec.span = obs.ExecSpan{ExecID: execID, TriggerService: sub.ep.ref.Service, IngestAt: at, Pushed: true}
	start := e.emit(sub.shard, TraceEvent{Kind: TracePushDispatch, AppletID: dec.members[0].id,
		Service: sub.ep.ref.Service, ExecID: execID, N: len(fresh), IngestAt: at})
	dec.span.PollSentAt, dec.span.PollResultAt = start, start
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
