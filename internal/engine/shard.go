package engine

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/proto"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// subscription is the unit the poll scheduler works in: one upstream
// trigger subscription shared by every member applet whose trigger
// configuration hashes to the same key. Without coalescing the key is
// the applet's own TriggerIdentity, so every subscription has exactly
// one member and the engine polls per applet as the paper observed
// (Fig 7). With coalescing (Config.Coalesce) the key drops the applet
// ID, so applets of one user watching the same trigger share one
// upstream poll whose fresh events fan out to every member.
//
// Silent subscriptions are most of what an engine keeps resident, hence
// the integer times and the one pointer-free string (DESIGN.md, "What is
// resident"). key, shard and ep never change; the rest but rng is guarded
// by the owning shard's mutex. rng is touched only by the actor that has
// the subscription in flight: polling is the execution-ownership flag —
// set by a poll worker or by the push ingress consumer (ingress.go) under
// the shard lock before dispatching, cleared (after draining what parked
// meanwhile) when done — so a subscription never executes on two
// goroutines at once.
type subscription struct {
	key   string // grouping key, presented on the wire as trigger_identity
	shard *shard
	rng   *stats.RNG // gap stream, split when the subscription is created
	ep    *endpoint  // the trigger all members watch

	// blob is what a poll sends beyond the endpoint: "Bearer <token>" in
	// its first authLen bytes, then the rendered TriggerPollRequest, both
	// of the lead member — members[0], the oldest surviving one, whose ID
	// also anchors gap draws.
	blob    string
	members []*runningApplet
	// The pending poll, in place (there is at most one, so the shard's
	// heap orders the subscriptions themselves): due in ns since the
	// engine's epoch, seq the FIFO tie-break, heapPos the heap index + 1
	// (0 while none is pending: in flight, queued ready, or retired).
	due     int64
	seq     uint64
	heapPos int
	// hintAt records when a realtime poke rescheduled the pending poll (0:
	// none did); the worker consumes it so the poll's trace carries hint
	// provenance.
	hintAt int64

	// Adaptive-polling state (adaptive.go). rate is the EWMA event-rate
	// estimate (events/sec); rateAt is the estimate's last update instant.
	// pollCount tallies polls issued for this subscription.
	rate      float64
	rateAt    int64
	pollCount int64

	// parked holds what arrived for the subscription while an execution
	// owned it; nil nearly always.
	parked *parked

	// failStreak counts consecutive poll failures and brState is the
	// circuit breaker (resilience.go).
	failStreak int32
	authLen    int32
	brState    breakerState
	polling    bool
	removed    bool
	// reserved marks a poll the admission controller deferred — it
	// already holds its budget token, so it must not be charged again
	// when its turn comes.
	reserved bool
}

// parked is what an execution's owner settles before it releases the
// polling flag: push deliveries that arrived meanwhile, and members
// removed meanwhile, whose dedup rings may still be absorbing the
// execution's events and are retained (journal.go) once final.
type parked struct {
	push   []pendingPush
	retire []*runningApplet
}

// park returns sub's parking area. Caller holds the shard's mutex.
func (sub *subscription) park() *parked {
	if sub.parked == nil {
		sub.parked = new(parked)
	}
	return sub.parked
}

// pendingPush is one deferred push delivery: events for a subscription
// that was mid-execution when they arrived, plus their ingress-accept
// instant for the span's ingest segment.
type pendingPush struct {
	events []proto.TriggerEvent
	at     time.Time
}

// memberRange marks one member's slice of an execution's shared
// fresh-event buffer.
type memberRange struct {
	ra         *runningApplet
	start, end int
}

// renderPollLocked renders sub's blob from its lead member. Caller
// holds s.mu.
func (s *shard) renderPollLocked(sub *subscription) {
	lead := sub.members[0]
	req := proto.TriggerPollRequest{
		TriggerIdentity: sub.key,
		TriggerFields:   lead.triggerFields,
		User:            proto.UserInfo{ID: lead.user},
		Source:          proto.Source{ID: lead.id},
	}
	if limit := s.e.pollLimit; limit > 0 {
		req.Limit = &limit
	}
	b := append(append(s.blobBuf[:0], "Bearer "...), lead.triggerToken...)
	sub.authLen = int32(len(b))
	b = req.AppendJSON(b)
	sub.blob, s.blobBuf = string(b), b
}

// shard owns a partition of the poll subscriptions: the identity index
// used for hint routing, a min-heap of pending polls with one clock
// timer on its head, and the worker actors that timer starts. All shard
// state is guarded by mu; the counters are atomics updated lock-free on
// the poll hot path and merged by Engine.Stats.
type shard struct {
	e      *Engine
	id     int
	timer  simtime.Timer // runs fire; Reset/Stop only under mu
	workFn func()        // s.work, bound once so starting a worker allocates nothing

	mu  sync.Mutex
	rng *stats.RNG // shard-split stream; per-subscription streams split off it
	// heap orders pending polls by due time (seq breaks ties FIFO).
	heap pollHeap
	seq  uint64
	// subs indexes the shard's subscriptions by key (the wire
	// trigger_identity), for realtime hint routing.
	subs map[string]*subscription
	// ready queues due subscriptions awaiting a free worker.
	ready     []*subscription
	readyHead int
	inflight  int    // worker actors currently running
	timerAt   int64  // the deadline timer is armed for (invariant: heap[0].due, or unarmed)
	blobBuf   []byte // renderPollLocked's scratch
	stopped   bool

	// ingress is the shard's bounded push-delivery queue (ingress.go),
	// nil unless Config.Push. Set once in New, before any traffic.
	ingress *ingest.Queue[pushItem]

	counters shardCounters
}

// shardCounters are the shard-local halves of Stats, bumped atomically
// so concurrent workers never contend on a lock.
type shardCounters struct {
	polls          atomic.Int64
	pollFailures   atomic.Int64
	pollsCoalesced atomic.Int64
	eventsReceived atomic.Int64
	actionsOK      atomic.Int64
	actionsFailed  atomic.Int64
	conditionSkips atomic.Int64

	// Failure classification: transport errors got no HTTP response at
	// all, HTTP errors carry a real non-200 status (httpx reports the
	// last received status on retry exhaustion).
	pollErrTransport   atomic.Int64
	pollErrHTTP        atomic.Int64
	actionErrTransport atomic.Int64
	actionErrHTTP      atomic.Int64

	// Circuit-breaker transitions and half-open probes (resilience.go).
	breakerOpens  atomic.Int64
	breakerCloses atomic.Int64
	breakerProbes atomic.Int64

	// Polls the admission controller pushed past their due time because
	// the upstream service's token bucket was empty (adaptive.go).
	pollsDeferred atomic.Int64

	// Push-path executions and the fresh events they delivered
	// (ingress.go); the push analogue of polls/eventsReceived.
	pushBatches atomic.Int64
	pushEvents  atomic.Int64
}

func newShard(e *Engine, id int, rng *stats.RNG) *shard {
	s := &shard{
		e:       e,
		id:      id,
		rng:     rng,
		subs:    make(map[string]*subscription),
		timerAt: unarmed,
	}
	s.timer = e.clock.NewTimer(s.fire)
	s.workFn = s.work
	return s
}

// shardFor maps a scheduling key (applet ID, or subscription key under
// coalescing) to its owning shard.
func (e *Engine) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return e.shards[h.Sum32()%uint32(len(e.shards))]
}

// newSubLocked creates, indexes and renders the subscription for key
// with the given members (at least one), unscheduled. Caller holds s.mu.
// The RNG split label is the founding applet's, so with coalescing off
// (one applet per subscription) the poll schedule is draw-for-draw
// identical to scheduling applets directly.
func (s *shard) newSubLocked(key string, members []*runningApplet) *subscription {
	sub := &subscription{
		key:     key,
		shard:   s,
		rng:     s.rng.Split("applet-" + members[0].id),
		ep:      members[0].trigger,
		members: members,
	}
	for _, ra := range members {
		ra.sub = sub
	}
	s.subs[key] = sub
	s.renderPollLocked(sub)
	return sub
}

// joinLocked adds ra to the subscription for key, creating and
// scheduling the subscription when ra is its first member. Caller holds
// s.mu.
func (s *shard) joinLocked(ra *runningApplet, key string) {
	if sub := s.subs[key]; sub != nil {
		sub.members = append(sub.members, ra)
		ra.sub = sub
		return
	}
	sub := s.newSubLocked(key, []*runningApplet{ra})
	now := s.e.clock.Now()
	var gap time.Duration
	if ap := s.e.adaptive; ap != nil {
		// New subscriptions start presumed-cold with a spread first
		// poll; the first result (or a hint) reveals their heat.
		sub.rateAt = s.e.sinceEpoch(now)
		gap = ap.initialGap(sub.rng)
	} else {
		gap = s.e.poll.NextGap(ra.id, sub.ep.ref.Service, sub.rng)
	}
	s.scheduleLocked(sub, now.Add(gap))
}

// leaveLocked removes ra from its subscription; when ra was the last
// member the subscription itself is retired (pending poll cancelled,
// unindexed) and leaveLocked reports true so the caller can notify the
// trigger service. Caller holds s.mu.
func (s *shard) leaveLocked(ra *runningApplet) (last bool) {
	sub := ra.sub
	wasLead := sub.members[0] == ra
	for i, m := range sub.members {
		if m == ra {
			copy(sub.members[i:], sub.members[i+1:])
			sub.members[len(sub.members)-1] = nil
			sub.members = sub.members[:len(sub.members)-1]
			break
		}
	}
	if len(sub.members) == 0 {
		sub.removed = true
		if sub.brState != brClosed {
			// Retiring a tripped subscription settles the open-breaker
			// gauge; nextPollDueLocked skips removed subscriptions, so
			// this is the only closing path it can take.
			sub.brState = brClosed
			s.e.breakerOpen.Add(-1)
		}
		delete(s.subs, sub.key)
		s.unscheduleLocked(sub)
		return true
	}
	if wasLead {
		s.renderPollLocked(sub)
	}
	return false
}

// byIdentity resolves a wire trigger identity to its live subscription
// on whichever shard owns it (uncoalesced ones shard by applet ID), plus
// the first member's applet ID and the member count under the shard lock.
func (e *Engine) byIdentity(identity string) (sub *subscription, firstID string, members int) {
	for _, s := range e.shards {
		s.mu.Lock()
		if sub = s.subs[identity]; sub != nil && len(sub.members) > 0 {
			firstID, members = sub.members[0].id, len(sub.members)
			s.mu.Unlock()
			return sub, firstID, members
		}
		s.mu.Unlock()
	}
	return nil, "", 0
}

// stop marks the shard stopped and disarms its timer, so nothing of
// the shard stays pending on the clock. Pending polls are abandoned;
// in-flight polls finish their current round.
func (s *shard) stop() {
	s.mu.Lock()
	s.stopped = true
	s.armLocked()
	s.mu.Unlock()
}
