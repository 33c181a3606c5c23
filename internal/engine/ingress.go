// The push ingestion tier (Config.Push): partner services POST
// fully-formed event batches to /v1/push and the engine dispatches them
// without a poll round-trip. The flow is
//
//	handlePush (HTTP)  →  shard ingress queue (ingest.Queue, bounded)
//	                   →  deliverPush (consumer actor, micro-batch)
//	                   →  execPush / dispatchPush (existing action path)
//
// Backpressure is explicit: each shard's queue is bounded in pending
// deliveries, an Offer above the bound rejects, and the whole batch
// answers 429 with per-event counts — the pushing service keeps the
// events buffered and the still-running poll path reconciles them
// later. Exactly-once across the two paths falls out of the per-applet
// dedupRing: whichever path sees an event ID first marks it, the other
// path's copy dedups away.
//
// Concurrency follows the scheduler's ownership model: the subscription
// polling flag is claimed (under the shard lock) before dispatching, so
// a push execution and a poll never run concurrently for one
// subscription. Deliveries that find the flag taken park on
// sub.parked and the current owner drains them before releasing —
// nothing accepted into a queue is ever silently lost.
package engine

import (
	"net/http"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/proto"
)

// pushItem is one accepted push delivery queued on a shard: the
// resolved subscription, its events (oldest first, per the push wire
// contract), and the ingress-accept instant for the span's ingest
// segment.
type pushItem struct {
	sub    *subscription
	events []proto.TriggerEvent
	at     time.Time
}

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

// PushDeliveries resolves each delivery's trigger identity to its
// subscription and offers it to the owning shard's ingress queue — the
// body of the /v1/push endpoint, exported so a cluster router can
// forward routed deliveries without an HTTP round-trip. The response
// accounts every event: accepted into a queue, rejected by a full
// queue, or unmatched to any installed subscription. Deliveries hold
// ownership of their Events slices from here on. Every event of a
// batch is rejected when the engine was built without Config.Push.
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
		sub, _, _ := e.byIdentity(d.TriggerIdentity)
		if sub == nil {
			resp.Unmatched += len(d.Events)
			continue
		}
		// The decoded events slice is owned by this delivery from here
		// on (the batch struct is not reused), so no copy is needed.
		if sub.shard.ingress.Offer(pushItem{sub: sub, events: d.Events, at: now}) {
			resp.Accepted += len(d.Events)
		} else {
			resp.Rejected += len(d.Events)
		}
	}
	e.ingressAccepted.Add(int64(resp.Accepted))
	e.ingressRejected.Add(int64(resp.Rejected))
	e.ingressUnmatch.Add(int64(resp.Unmatched))
	return resp
}

// deliverPush is the shard's ingress-consumer callback: one micro-batch
// of co-arriving deliveries. Deliveries for the same subscription merge
// into a single execution (adaptive micro-batching — the merge width
// tracks the arrival rate); distinct subscriptions dispatch
// sequentially on this consumer, which is what bounds the shard's push
// concurrency exactly like a poll worker bounds its poll concurrency.
func (s *shard) deliverPush(batch []pushItem) {
	for i := range batch {
		it := &batch[i]
		if it.sub == nil {
			continue
		}
		events := it.events
		merged := false
		for j := i + 1; j < len(batch); j++ {
			if batch[j].sub == it.sub {
				if !merged {
					// Copy before extending: the original slice came from
					// the HTTP decode and must not alias the next append.
					events = append(append([]proto.TriggerEvent(nil), events...), batch[j].events...)
					merged = true
				} else {
					events = append(events, batch[j].events...)
				}
				batch[j].sub = nil
			}
		}
		s.execPush(it.sub, events, it.at)
	}
}

// execPush claims the subscription and dispatches one push delivery,
// then drains whatever parked meanwhile. Runs on the shard's single
// ingress consumer.
func (s *shard) execPush(sub *subscription, events []proto.TriggerEvent, at time.Time) {
	s.mu.Lock()
	if sub.removed || s.stopped {
		s.mu.Unlock()
		return
	}
	if sub.polling {
		// A poll worker (or an earlier push still draining) owns the
		// subscription; park the delivery for the owner to drain.
		p := sub.park()
		p.push = append(p.push, pendingPush{events: events, at: at})
		s.mu.Unlock()
		return
	}
	sub.polling = true
	dec := borrowDecoder(sub)
	s.mu.Unlock()

	s.e.dispatchPush(dec, events, at)

	s.mu.Lock()
	s.drainPushPendingLocked(dec)
	dec.release()
	s.mu.Unlock()
}

// drainPushPendingLocked dispatches every delivery parked on dec's
// subscription while the caller owned it, then releases the polling
// flag. Caller holds s.mu and owns the subscription (sub.polling ==
// true); the lock is dropped around each dispatch round. Both release
// paths — poll worker and push consumer — funnel through here so the
// flag can never leak set.
func (s *shard) drainPushPendingLocked(dec *pollDecoder) {
	sub := dec.sub
	for sub.parked != nil && len(sub.parked.push) > 0 && !sub.removed && !s.stopped {
		pend := sub.parked.push
		sub.parked.push = nil
		dec.members = append(dec.members[:0], sub.members...)
		s.mu.Unlock()
		for _, p := range pend {
			s.e.dispatchPush(dec, p.events, p.at)
		}
		s.mu.Lock()
	}
	if p := sub.parked; p != nil {
		// Members removed while this execution owned the subscription
		// have final rings now: retain their dedup windows for
		// reinstallation before anyone else can claim the flag.
		for _, ra := range p.retire {
			s.e.retainDedup(ra)
		}
		p.retire = nil
		if len(p.push) == 0 { // else left for a detach to carry away
			sub.parked = nil
		}
	}
	sub.polling = false
}

// dispatchPush fans one push delivery out to the subscription's
// members, mirroring pollSubscription's result half: per-member dedup
// against the same rings the poll path uses (exactly-once across
// paths), the engine's dispatch delay, conditions, and the shared
// action path. events arrive oldest first, so unlike the poll wire no
// reversal is needed. The caller owns the subscription dec carries.
func (e *Engine) dispatchPush(dec *pollDecoder, events []proto.TriggerEvent, at time.Time) {
	sub := dec.sub
	execID := e.execSeq.Add(1)

	dec.resetFresh()
	fresh, ranges := dec.fresh, dec.ranges
	for _, ra := range dec.members {
		start := len(fresh)
		for _, ev := range events {
			if ev.Meta.ID == "" || !ra.dedup.Add(ev.Meta.ID) {
				continue
			}
			fresh = append(fresh, ev)
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
