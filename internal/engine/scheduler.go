// The sharded poll scheduler. The engine used to run one goroutine per
// applet, each sleeping through its own polling gap — simple, but at
// dataset scale (320K applets, §3) that is 320K goroutines and a global
// mutex on every gap draw and counter bump. Instead, each shard keeps a
// min-heap of its subscriptions ordered by due time and one re-armable
// clock timer on the heap's head. The actor the clock starts when that
// timer comes due sweeps every shard: it pops the due subscriptions,
// admits or defers each against the poll budget in heap order, re-arms
// the timers, and gives each shard that got work a worker, being one
// of them itself. A shard's further workers, up to ShardWorkers, come
// from a second re-armable timer per shard, the spare, armed for now
// whenever work is queued behind a running worker: on the simulated
// clock it fires once every actor is blocked, so a helper starts only
// when the workers running block. Goroutine count is O(in-flight
// polls), independent of the installed population; nothing is
// allocated between timer and poll.
//
// Scheduling semantics are identical to the per-goroutine design: each
// subscription's next poll is drawn from its own RNG stream *after* the
// previous poll (and its action dispatches) complete, so inter-poll
// spacing is gap + poll duration, exactly as before; realtime pokes
// reschedule a pending poll to now and are dropped while the
// subscription is mid-poll, matching the old stopper behaviour. The
// timers are armed only while there is something to do, so an idle
// engine holds no timers and a simulation can quiesce.
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
	if at == s.timerAt.Load() {
		return
	}
	s.timerAt.Store(at)
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

// fire is the actor a shard timer starts when its heap's head comes
// due. A fixed cadence puts the rounds of every shard on one instant, so
// it sweeps every shard with something due, in shard-index order
// (popDueLocked), and each shard that gets work and has no worker gets
// one: the actor becomes the worker of its own shard if that has work,
// else of the first that has, and Go starts the others. Shards due
// together thus run in parallel, and their timers, re-armed past the
// instant, do not fire for it. Further workers on a shard come from its
// spare timer (enqueueLocked).
func (s *shard) fire() {
	var held *shard // a shard with work whose worker is not started yet
	now := s.e.sinceEpoch(s.e.clock.Now())
	for _, sh := range s.e.shards {
		if sh != s && sh.timerAt.Load() > now {
			continue // nothing due; what comes due meanwhile fires its own timer
		}
		sh.mu.Lock()
		if sh == s {
			sh.timerAt.Store(unarmed)
		}
		start := sh.popDueLocked()
		sh.mu.Unlock()
		if !start {
			continue
		}
		if held == nil || sh == s {
			held, sh = sh, held
		}
		if sh != nil {
			s.e.clock.Go(sh.workFn)
		}
	}
	if held != nil {
		held.work()
	}
}

// popDueLocked takes the due subscriptions that pass admission off the
// heap, which makes each owed a poll, queues them and re-arms the
// timer. It returns true when the caller must start a worker
// (enqueueLocked). A replay window holds every poll; it re-arms the
// timers when it closes. Caller holds s.mu.
func (s *shard) popDueLocked() bool {
	if s.stopped || s.e.replaying.Load() {
		return false
	}
	now := s.e.clock.Now()
	at := s.e.sinceEpoch(now)
	start := false
	for len(s.heap) > 0 && s.heap[0].due <= at {
		sub := s.heap[0]
		s.heap.remove(sub)
		if s.admitLocked(sub, now) && s.enqueueLocked(sub) {
			start = true
		}
	}
	s.armLocked()
	return start
}

// enqueueLocked puts an idle sub on the ready queue. It returns true
// when the caller must start a worker: none runs, the new one is
// already counted into s.inflight, and no replay window is open (Replay
// works the queue itself when the window closes). While a worker runs,
// another can only help once it blocks, so the spare timer is armed
// instead (spareLocked). A sub already queued or running needs nothing:
// its worker finds the new work. Caller holds s.mu.
func (s *shard) enqueueLocked(sub *subscription) bool {
	if sub.run != idle {
		return false
	}
	sub.run = queued
	s.ready = append(s.ready, sub)
	if s.e.replaying.Load() {
		return false
	}
	if s.inflight == 0 {
		s.inflight++
		return true
	}
	s.spareLocked()
	return false
}

// spareLocked arms the spare timer for now, unless it is armed already,
// the shard is stopped or every worker slot is taken. On the simulated
// clock it fires once every actor is blocked and before time moves, so
// a worker blocked in a poll or a dispatch delay gets its helper at the
// instant it blocked, while a worker that never blocks drains the queue
// alone; on the real clock it fires at once. Caller holds s.mu.
func (s *shard) spareLocked() {
	if s.spareArmed || s.stopped || s.inflight >= s.e.workers {
		return
	}
	s.spareArmed = true
	s.spare.Reset(s.e.clock.Now())
}

// spareWork is the actor the spare timer starts. It becomes one more
// worker if work and a slot remain, and re-arms the timer while more is
// queued than it takes itself.
func (s *shard) spareWork() {
	s.mu.Lock()
	s.spareArmed = false
	if s.stopped || s.e.replaying.Load() || s.readyLenLocked() == 0 || s.inflight >= s.e.workers {
		s.mu.Unlock()
		return
	}
	s.inflight++
	if s.readyLenLocked() > 1 {
		s.spareLocked()
	}
	s.mu.Unlock()
	s.work()
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
		s.e.emit(TraceEvent{Kind: TraceBreakerProbe, AppletID: dec.members[0].id})
	}
	ok, events := s.e.pollSubscription(dec, hintAt, auth, body)
	dec.release()

	s.mu.Lock()
	due, brEv := s.nextPollDueLocked(sub, ok, events)
	s.scheduleLocked(sub, due)
	if brEv.Kind != "" {
		s.mu.Unlock()
		s.e.emit(brEv)
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
