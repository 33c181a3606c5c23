// The sharded poll scheduler. The engine used to run one goroutine per
// applet, each sleeping through its own polling gap — simple, but at
// dataset scale (320K applets, §3) that is 320K goroutines and a global
// mutex on every gap draw and counter bump. Instead, each shard keeps a
// min-heap of its subscriptions ordered by due time and one re-armable
// clock timer on the heap's head. The actor the clock starts when that
// timer comes due is the worker: it pops the due subscriptions, admits
// or defers each against the poll budget in heap order, re-arms the
// timer, starts further workers only for what it cannot poll itself,
// and polls. Goroutine count is O(in-flight polls), independent of the
// installed population; nothing is allocated between timer and poll.
//
// Scheduling semantics are identical to the per-goroutine design: each
// subscription's next poll is drawn from its own RNG stream *after* the
// previous poll (and its action dispatches) complete, so inter-poll
// spacing is gap + poll duration, exactly as before; realtime pokes
// reschedule a pending poll to now and are dropped while the
// subscription is mid-poll, matching the old stopper behaviour. The
// timer is armed only while the heap is non-empty, so an idle engine
// holds no timers and a simulation can quiesce.
package engine

import (
	"math"
	"time"
)

// unarmed is shard.timerAt while the timer holds no deadline.
const unarmed = math.MaxInt64

// pollHeap is a min-heap of the subscriptions with a pending poll,
// ordered by (due, seq) — a total order, so pop order does not depend
// on the heap's shape. Each subscription records its own heapPos.
type pollHeap []*subscription

func (h pollHeap) less(i, j int) bool {
	return h[i].due < h[j].due || h[i].due == h[j].due && h[i].seq < h[j].seq
}

func (h pollHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapPos = i + 1
	h[j].heapPos = j + 1
}

func (h pollHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

func (h pollHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

func (h *pollHeap) push(sub *subscription) {
	*h = append(*h, sub)
	sub.heapPos = len(*h)
	h.up(len(*h) - 1)
}

// fix restores the order after sub's due changed.
func (h pollHeap) fix(sub *subscription) {
	h.down(sub.heapPos - 1)
	h.up(sub.heapPos - 1)
}

// remove takes a pending subscription out of the heap.
func (h *pollHeap) remove(sub *subscription) {
	i, last := sub.heapPos-1, len(*h)-1
	h.swap(i, last)
	(*h)[last] = nil
	*h = (*h)[:last]
	sub.heapPos = 0
	if i < last {
		h.fix((*h)[i])
	}
}

// sinceEpoch is t on the scheduler's integer time axis, ns since the
// engine was built; timeAt is its inverse.
func (e *Engine) sinceEpoch(t time.Time) int64 { return int64(t.Sub(e.epoch)) }
func (e *Engine) timeAt(ns int64) time.Time    { return e.epoch.Add(time.Duration(ns)) }

// scheduleLocked queues sub's next poll at due and moves the shard
// timer when that is the new head. Caller holds s.mu.
func (s *shard) scheduleLocked(sub *subscription, due time.Time) {
	if sub.removed || s.stopped {
		return
	}
	s.queueLocked(sub, due)
	s.armLocked()
}

// queueLocked is scheduleLocked without the timer: fire re-queues
// through it mid-burst and arms once after its last pop.
func (s *shard) queueLocked(sub *subscription, due time.Time) {
	s.seq++
	sub.due, sub.seq = s.e.sinceEpoch(due), s.seq
	s.heap.push(sub)
}

// unscheduleLocked cancels sub's pending poll, if it has one; the last
// one takes the timer with it, so a simulation can quiesce. Caller
// holds s.mu.
func (s *shard) unscheduleLocked(sub *subscription) {
	if sub.heapPos > 0 {
		s.heap.remove(sub)
		s.armLocked()
	}
}

// armLocked keeps the shard timer on the heap's head, disarmed when
// there is none. A timer that came due but whose actor has not taken
// s.mu yet still reads as armed for the old head, which is right: that
// actor re-arms. Caller holds s.mu.
func (s *shard) armLocked() {
	at := int64(unarmed)
	if len(s.heap) > 0 && !s.stopped {
		at = s.heap[0].due
	}
	if at == s.timerAt {
		return
	}
	s.timerAt = at
	if at == unarmed {
		s.timer.Stop()
	} else {
		s.timer.Reset(s.e.epoch.Add(time.Duration(at)))
	}
}

// pokeLocked moves sub's pending poll up to due (the realtime-hint
// path). A poke for a subscription that is mid-poll or already due
// sooner is dropped, as with the old per-goroutine stopper. Caller
// holds s.mu.
func (s *shard) pokeLocked(sub *subscription, due time.Time) {
	if sub.heapPos == 0 || sub.removed || s.stopped {
		return
	}
	if at := s.e.sinceEpoch(due); at < sub.due {
		sub.due = at
		sub.hintAt = at
		s.heap.fix(sub)
		s.armLocked()
	}
}

// fire is the actor the shard timer starts when the heap's head comes
// due. It takes the due subscriptions that pass admission off the heap,
// which makes each owed a poll, and queues them; then it re-arms the
// timer and becomes a worker, starting others only for the queued
// subscriptions beyond its own, within the concurrency cap. With all of
// them deferred, already queued or running, or every slot busy, it
// starts none.
func (s *shard) fire() {
	s.mu.Lock()
	s.timerAt = unarmed
	if s.stopped || s.e.replaying.Load() { // a replay window re-arms when it closes
		s.mu.Unlock()
		return
	}
	now := s.e.clock.Now()
	at := s.e.sinceEpoch(now)
	n := 0
	for len(s.heap) > 0 && s.heap[0].due <= at {
		sub := s.heap[0]
		s.heap.remove(sub)
		if s.admitLocked(sub, now) && s.enqueueLocked(sub) {
			n++
		}
	}
	s.armLocked()
	if n == 0 {
		s.mu.Unlock()
		return
	}
	for ; n > 1; n-- {
		s.e.clock.Go(s.workFn)
	}
	s.mu.Unlock()
	s.work()
}

// enqueueLocked puts an idle sub on the ready queue. It returns true
// when the caller must start a worker: fewer than ShardWorkers run, the
// new one is already counted into s.inflight, and no replay window is
// open (Replay works the queue itself when the window closes). A sub
// already queued or running needs nothing: its worker finds the new
// work. Caller holds s.mu.
func (s *shard) enqueueLocked(sub *subscription) bool {
	if sub.run != idle {
		return false
	}
	sub.run = queued
	s.ready = append(s.ready, sub)
	if s.inflight >= s.e.workers || s.e.replaying.Load() {
		return false
	}
	s.inflight++
	return true
}

// admitLocked decides whether a subscription fire just popped polls
// now; if not, it is back on the heap on return (timer untouched) and
// has cost no goroutine. Caller holds s.mu.
func (s *shard) admitLocked(sub *subscription, now time.Time) bool {
	// Admission: a scheduled poll charges the upstream service's
	// token bucket. When the bucket is empty the poll is deferred —
	// rescheduled to the exact instant its reserved token accrues —
	// never dropped; sub.reserved marks the token as held until the
	// poll starts, so it is not charged twice. Polls of tripped
	// subscriptions (breaker open: the worker turns them into
	// half-open probes) bypass the budget entirely, so a blacked-out
	// service consumes zero budget while its breakers are open.
	if adm := s.e.admission; adm != nil && !sub.reserved &&
		!(s.e.resilient && sub.brState != brClosed) {
		sub.reserved = true
		if wait := adm.reserve(sub.ep.ref.Service, now); wait > 0 {
			s.counters.pollsDeferred.Add(1)
			s.queueLocked(sub, now.Add(wait))
			return false
		}
	}
	return true
}

func (s *shard) readyLenLocked() int { return len(s.ready) - s.readyHead }

// takeReadyLocked pops the oldest ready subscription. Caller holds s.mu.
func (s *shard) takeReadyLocked() *subscription {
	sub := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return sub
}

// work drains the shard's ready queue, one subscription at a time, and
// runs each until it owes nothing: a poll whenever it is off the heap
// (invariant: a live subscription that is not in the heap is owed a
// poll), else every push delivery in its mailbox as one merged
// execution (ingress.go). The poll check comes first on every round, so
// an owed poll runs right after the push execution in progress and a
// steady push stream cannot starve it. Workers are transient actors —
// when the queue empties they end, keeping the engine's goroutine count
// at O(in-flight executions). The caller has already counted this
// worker into s.inflight.
func (s *shard) work() {
	s.mu.Lock()
	for !s.stopped && s.readyLenLocked() > 0 {
		sub := s.takeReadyLocked()
		sub.run = running
		for !s.stopped && !sub.removed {
			if sub.heapPos == 0 {
				s.pollLocked(sub)
			} else if sub.mail != nil && len(sub.mail.push) > 0 {
				s.pushLocked(sub)
			} else {
				break
			}
		}
		s.releaseLocked(sub)
	}
	s.inflight--
	s.mu.Unlock()
}

// pollLocked polls sub, fans the result out to the members, then draws
// the subscription's next gap and puts it back on the heap. Caller
// holds s.mu and runs sub; the lock is dropped around the poll.
func (s *shard) pollLocked(sub *subscription) {
	sub.reserved = false
	sub.pollCount++
	// An open breaker means this poll is the half-open probe: the
	// next outcome decides whether the breaker closes or re-opens.
	probe := false
	if s.e.resilient && sub.brState == brOpen {
		sub.brState = brHalfOpen
		s.counters.breakerProbes.Add(1)
		probe = true
	}
	// Consume hint provenance and snapshot the membership and the
	// request under the shard lock: applets joining mid-poll see only
	// the next poll, and a member leaving mid-poll still receives
	// this poll's dispatches — exactly the semantics an uncoalesced
	// applet had when removed mid-flight.
	var hintAt time.Time
	if sub.hintAt != 0 {
		hintAt, sub.hintAt = s.e.timeAt(sub.hintAt), 0
	}
	dec := borrowDecoder(sub)
	auth, body := sub.blob[:sub.authLen], sub.blob[sub.authLen:]
	s.mu.Unlock()

	if probe {
		s.e.emit(s, TraceEvent{Kind: TraceBreakerProbe, AppletID: dec.members[0].id})
	}
	ok, events := s.e.pollSubscription(dec, hintAt, auth, body)
	dec.release()

	s.mu.Lock()
	due, brEv := s.nextPollDueLocked(sub, ok, events)
	s.scheduleLocked(sub, due)
	if brEv.Kind != "" {
		s.mu.Unlock()
		s.e.emit(s, brEv)
		s.mu.Lock()
	}
}

// releaseLocked ends sub's run. Members removed during it have final
// rings now, so their dedup windows are retained; a retired
// subscription's undelivered pushes and admission token are given up;
// an emptied mailbox goes back to the free list. Caller holds s.mu.
func (s *shard) releaseLocked(sub *subscription) {
	sub.run = idle
	if sub.removed && sub.reserved { // retired after admission: token back
		sub.reserved = false
		s.e.admission.refund(sub.ep.ref.Service)
	}
	m := sub.mail
	if m == nil {
		return
	}
	for _, ra := range m.retire {
		s.e.retainDedup(ra)
	}
	clear(m.retire)
	m.retire = m.retire[:0]
	if sub.removed {
		s.dropPushLocked(sub)
	} else if len(m.push) == 0 {
		s.freeMailLocked(sub)
	}
}

// dropPushLocked gives up the push deliveries waiting in sub's mailbox,
// which has no retirements pending, and recycles it. Caller holds s.mu.
func (s *shard) dropPushLocked(sub *subscription) {
	m := sub.mail
	s.pushDepth -= len(m.push)
	m.dropPush()
	s.freeMailLocked(sub)
}

// freeMailLocked puts sub's emptied mailbox on the free list, unless its
// buffers grew past the bounds a pooled decoder keeps: one outsized
// delivery must not pin its memory on the free list. Caller holds s.mu.
func (s *shard) freeMailLocked(sub *subscription) {
	m := sub.mail
	sub.mail = nil
	if cap(m.push) > maxPooledBuilt || cap(m.events) > maxPooledBuilt || m.outsized() {
		return
	}
	m.next, s.freeMail = s.freeMail, m
}
