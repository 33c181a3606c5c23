package engine

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
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
// The mutable scheduling fields (members, due, seq, heapPos, polling,
// removed, hintAt, prep, leadID) are guarded by the owning shard's
// mutex. rng and the scratch fields are touched only by the actor that has
// the subscription in flight: polling is the execution-ownership flag —
// set by a poll worker or by the push ingress consumer (ingress.go)
// under the shard lock before dispatching, cleared (after draining
// pushPending) when done — so a subscription never executes on two
// goroutines at once and the scratch buffers need no further locking.
type subscription struct {
	key     string // grouping key, presented on the wire as trigger_identity
	shard   *shard
	rng     *stats.RNG // gap stream, split when the subscription is created
	trigger ServiceRef // trigger config shared by all members
	user    string     // owning user (part of the key under coalescing)

	// leadID is the applet whose ID anchors gap draws and the request
	// prototype's Source; it is the oldest surviving member.
	leadID  string
	members []*runningApplet
	// The pending poll, in place (there is at most one, so the shard's
	// heap orders the subscriptions themselves): due in ns since the
	// engine's epoch, seq the FIFO tie-break, heapPos the heap index + 1
	// (0 while none is pending: in flight, queued ready, or retired).
	due     int64
	seq     uint64
	heapPos int
	polling bool
	removed bool
	// hintAt records when a realtime poke rescheduled the pending poll;
	// the worker consumes it so the poll's trace carries hint provenance.
	hintAt time.Time
	// prep is the precomputed poll request (URL, headers, body); rebuilt
	// under the shard lock whenever the lead member changes. Nil when
	// the trigger's base URL does not parse — the poll path then falls
	// back to building requests per call.
	prep *httpx.Prepared

	// Failure-handling state (resilience.go), guarded by the shard's
	// mutex like the scheduling fields above. failStreak counts
	// consecutive poll failures; brState is the circuit breaker.
	failStreak int
	brState    breakerState

	// Adaptive-polling state (adaptive.go), guarded by the shard's
	// mutex. rate is the EWMA event-rate estimate (events/sec); rateAt
	// is the estimate's last update instant. reserved marks a poll the
	// admission controller deferred — it already holds its budget
	// token, so it must not be charged again when its turn comes.
	// pollCount tallies polls issued for this subscription.
	rate      float64
	rateAt    time.Time
	reserved  bool
	pollCount int64

	// pushPending parks push deliveries that arrived while another
	// execution (poll or push) owned the subscription; the owner drains
	// it before releasing the polling flag, so pushed events are never
	// lost to the ownership race and never dispatch concurrently.
	// Guarded by the shard's mutex.
	pushPending []pendingPush

	// retire parks members removed while an execution owned the
	// subscription: their dedup rings may still be absorbing this
	// execution's events, so the owner retains them (journal.go) on its
	// release path, when the rings are final. Guarded by the shard's
	// mutex.
	retire []*runningApplet

	// Worker-owned scratch, reused across polls so the steady-state poll
	// path allocates nothing for the common empty-result case.
	fresh  []proto.TriggerEvent
	ranges []memberRange
	snap   []*runningApplet
}

// pendingPush is one deferred push delivery: events for a subscription
// that was mid-execution when they arrived, plus their ingress-accept
// instant for the span's ingest segment.
type pendingPush struct {
	events []proto.TriggerEvent
	at     time.Time
}

// memberRange marks one member's slice of a poll's shared fresh-event
// buffer.
type memberRange struct {
	ra         *runningApplet
	start, end int
}

// rebuildPrepLocked recomputes the subscription's request prototype from
// its lead member. Caller holds the shard's mutex.
func (sub *subscription) rebuildPrepLocked(e *Engine) {
	lead := &sub.members[0].def
	sub.leadID = lead.ID
	req := proto.TriggerPollRequest{
		TriggerIdentity: sub.key,
		TriggerFields:   lead.Trigger.Fields,
		User:            proto.UserInfo{ID: lead.UserID},
		Source:          proto.Source{ID: lead.ID},
	}
	if e.pollLimit > 0 {
		limit := e.pollLimit
		req.Limit = &limit
	}
	prep, err := httpx.NewPrepared("POST",
		proto.TriggerURL(lead.Trigger.BaseURL, lead.Trigger.Slug), req,
		httpx.WithHeader(proto.ServiceKeyHeader, lead.Trigger.ServiceKey),
		httpx.WithHeader("Authorization", "Bearer "+lead.Trigger.UserToken),
	)
	if err != nil {
		if e.log != nil {
			e.log.Warn("poll prototype build failed", "applet", lead.ID, "err", err)
		}
		sub.prep = nil
		return
	}
	sub.prep = prep
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
	inflight  int   // worker actors currently running
	timerAt   int64 // the deadline timer is armed for (invariant: heap[0].due, or unarmed)
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

// joinLocked adds ra to the subscription for key, creating and
// scheduling the subscription when ra is its first member. Caller holds
// s.mu. The RNG split label and gap-draw ID are the founding applet's,
// so with coalescing off (one applet per subscription) the poll
// schedule is draw-for-draw identical to scheduling applets directly.
func (s *shard) joinLocked(ra *runningApplet, key string) {
	sub := s.subs[key]
	if sub == nil {
		sub = &subscription{
			key:     key,
			shard:   s,
			trigger: ra.def.Trigger,
			user:    ra.def.UserID,
			rng:     s.rng.Split("applet-" + ra.def.ID),
			members: []*runningApplet{ra},
		}
		ra.sub = sub
		s.subs[key] = sub
		sub.rebuildPrepLocked(s.e)
		now := s.e.clock.Now()
		var gap time.Duration
		if ap := s.e.adaptive; ap != nil {
			// New subscriptions start presumed-cold with a spread first
			// poll; the first result (or a hint) reveals their heat.
			sub.rateAt = now
			gap = ap.initialGap(sub.rng)
		} else {
			gap = s.e.poll.NextGap(sub.leadID, sub.trigger.Service, sub.rng)
		}
		s.scheduleLocked(sub, now.Add(gap))
		return
	}
	sub.members = append(sub.members, ra)
	ra.sub = sub
}

// leaveLocked removes ra from its subscription; when ra was the last
// member the subscription itself is retired (pending poll cancelled,
// unindexed) and leaveLocked reports true so the caller can notify the
// trigger service. Caller holds s.mu.
func (s *shard) leaveLocked(ra *runningApplet) (last bool) {
	sub := ra.sub
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
	if ra.def.ID == sub.leadID {
		sub.rebuildPrepLocked(s.e)
	}
	return false
}

// byIdentity resolves a wire trigger identity within this shard,
// returning the subscription plus a member snapshot taken under the
// lock (first member's applet ID and the member count).
func (s *shard) byIdentity(identity string) (sub *subscription, firstID string, members int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub = s.subs[identity]
	if sub == nil || len(sub.members) == 0 {
		return nil, "", 0
	}
	return sub, sub.members[0].def.ID, len(sub.members)
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
