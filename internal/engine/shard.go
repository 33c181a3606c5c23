package engine

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// Silent subscriptions are most of what an engine keeps resident, so a
// subscription is one object besides its blob (DESIGN.md, "What is
// resident"): the gap stream and a lone member are held by value, and
// the key is a view of the blob. shard and ep never change; key, blob
// and members change only under both the engine's and the owning
// shard's mutex, and the rest but rng is guarded by the shard's mutex.
// The subscription is the unit of execution: the shard's workers are
// its only executor, and run says whether one has it queued or running
// (scheduler.go), so it never executes on two goroutines at once. rng
// is touched only by that worker, or under the shard's mutex while no
// worker runs the subscription.
type subscription struct {
	// key is the grouping key, presented on the wire as trigger_identity:
	// the bytes of blob that spell it (renderPollLocked), so the key costs
	// no object of its own.
	key   string
	shard *shard
	ep    *endpoint // the trigger all members watch

	// blob is what a poll sends beyond the endpoint: "Bearer <token>" in
	// its first authLen bytes, then the rendered TriggerPollRequest, both
	// of the lead member — members[0], the oldest surviving one, whose ID
	// also anchors gap draws.
	blob string
	// members is one[:] while the subscription has one member, and a
	// slice of its own from the second member on.
	members []*runningApplet
	one     [1]*runningApplet
	// The pending poll, in place (there is at most one, so the shard's
	// heap orders the subscriptions themselves): due in ns since the
	// engine's epoch, seq the FIFO tie-break, heapPos the heap index + 1
	// (0 while none is pending: owed a poll, or retired).
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

	// mail holds pending push deliveries and members removed mid-run;
	// nil nearly always.
	mail *mailbox

	// rng is the gap stream, split in place when the subscription is
	// created; the subscription is never copied.
	rng stats.RNG

	// failStreak counts consecutive poll failures and brState is the
	// circuit breaker (resilience.go).
	failStreak int32
	authLen    int32
	brState    breakerState
	run        runState
	removed    bool
	// reserved marks a poll the admission controller deferred — it
	// already holds its budget token, so it must not be charged again
	// when its turn comes.
	reserved bool
}

// runState is where a subscription is in the shard's executor.
type runState uint8

const (
	idle    runState = iota
	queued           // on the ready queue
	running          // a worker owns it
)

// mailbox is the work a subscription holds for its executor: push
// deliveries waiting to run, and members removed while it ran, whose
// dedup rings may still be absorbing the run's events and are retained
// (journal.go) once final. A delivery is a range of events, each
// recorded as it arrived, its ingredients in the mailbox's arena. Shards
// recycle emptied mailboxes.
type mailbox struct {
	push   []pendingPush
	events []event
	eventArena
	retire []*runningApplet
	next   *mailbox // free-list link
}

// pushScanned records a delivery of scanned events lo, lo+1, … whose ID
// hashes are hashes, accepted at at.
func (m *mailbox) pushScanned(scan *proto.EventScan, lo int, hashes []uint64, at time.Time) {
	first := len(m.events)
	for j, h := range hashes {
		m.events = append(m.events, m.scanned(scan, lo+j, h))
	}
	m.push = append(m.push, pendingPush{at: at, lo: int32(first), hi: int32(len(m.events))})
}

// pushTyped records a delivery of typed events, accepted at at.
func (m *mailbox) pushTyped(events []proto.TriggerEvent, at time.Time) {
	first := len(m.events)
	for i := range events {
		m.events = append(m.events, m.typed(&events[i]))
	}
	m.push = append(m.push, pendingPush{at: at, lo: int32(first), hi: int32(len(m.events))})
}

// dropPush empties the mailbox of push deliveries, dropping the
// references their events held.
func (m *mailbox) dropPush() {
	clear(m.push)
	clear(m.events)
	m.push, m.events = m.push[:0], m.events[:0]
	m.reset()
}

// mailLocked returns sub's mailbox, taking one from the free list when
// it has none. Caller holds s.mu.
func (s *shard) mailLocked(sub *subscription) *mailbox {
	if sub.mail == nil {
		if m := s.freeMail; m != nil {
			sub.mail, s.freeMail, m.next = m, m.next, nil
		} else {
			sub.mail = new(mailbox)
		}
	}
	return sub.mail
}

// pendingPush is one accepted push delivery: the ingress-accept instant,
// for the span's ingest segment, and its events, oldest first,
// mailbox.events[lo:hi].
type pendingPush struct {
	at     time.Time
	lo, hi int32
}

// memberRange marks one member's slice of an execution's shared
// fresh-event buffer.
type memberRange struct {
	ra         *runningApplet
	start, end int
}

// identityField is what a rendered poll request starts with, the key's
// bytes following it.
const identityField = `{"trigger_identity":"`

// renderPollLocked renders sub's blob from its lead member, polling
// under key, and points sub.key at the key's bytes in the blob. A key
// that JSON escaping changes keeps a string of its own; key itself may
// live on the caller's stack. Caller holds s.mu.
func (s *shard) renderPollLocked(sub *subscription, key string) {
	lead := sub.members[0]
	req := proto.TriggerPollRequest{
		TriggerIdentity: key,
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
	if k, ok := strings.CutPrefix(sub.blob[sub.authLen:], identityField); ok &&
		len(k) > len(key) && k[:len(key)] == key && k[len(key)] == '"' {
		sub.key = k[:len(key)]
	} else {
		sub.key = strings.Clone(key)
	}
}

// shard owns a partition of the poll subscriptions: the identity index
// used for hint and push routing, a min-heap of pending polls with one
// clock timer on its head, and the worker actors that run the queued
// subscriptions' polls and pushes. All shard
// state is guarded by mu; the counters are atomics updated lock-free on
// the poll hot path and merged by Engine.Stats.
type shard struct {
	e      *Engine
	id     int
	timer  simtime.Timer // runs fire; Reset/Stop only under mu
	spare  simtime.Timer // runs spareWork; Reset/Stop only under mu
	workFn func()        // s.work, bound once so starting a worker allocates nothing

	mu  sync.Mutex
	rng *stats.RNG // shard-split stream; per-subscription streams split off it
	// heap orders pending polls by due time (seq breaks ties FIFO).
	heap pollHeap
	seq  uint64
	// subs indexes the shard's subscriptions by key (the wire
	// trigger_identity), for realtime hint routing.
	subs map[string]*subscription
	// ready queues subscriptions awaiting a free worker.
	ready     []*subscription
	readyHead int
	inflight  int    // worker actors currently running
	blobBuf   []byte // renderPollLocked's scratch
	stopped   bool
	// spareArmed: spare is armed and its actor has not taken mu yet.
	spareArmed bool
	// timerAt is the deadline timer is armed for (invariant: heap[0].due,
	// or unarmed). It is written under mu; fire's sweep reads it without,
	// to pass over shards with nothing due.
	timerAt atomic.Int64
	// pushDepth counts push deliveries accepted and not yet executed,
	// bounded by Config.IngressQueue; freeMail lists emptied mailboxes.
	pushDepth int
	freeMail  *mailbox

	counters shardCounters
	// execSeq numbers the shard's observed executions (nextExecID).
	execSeq atomic.Uint64
}

// execSeqBits is how many low bits of an exec ID number the executions
// of one shard; the shard's index is above them.
const execSeqBits = 48

// nextExecID draws the ID every trace event and span of one execution
// carries: the shard's index above the shard's own sequence, so shards
// never share a counter and IDs stay unique within the engine (while a
// shard draws fewer than 2^48). It is never 0, the ID of events outside
// an execution. Only an execution something observes draws one.
func (s *shard) nextExecID() uint64 {
	return uint64(s.id)<<execSeqBits | s.execSeq.Add(1)
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
		e:    e,
		id:   id,
		rng:  rng,
		subs: make(map[string]*subscription),
	}
	s.timerAt.Store(unarmed)
	s.timer = e.clock.NewTimer(s.fire)
	s.spare = e.clock.NewTimer(s.spareWork)
	s.workFn = s.work
	return s
}

// homeShard is the shard a subscription keyed key with lead leadID
// lives on. Without coalescing, subscriptions shard by applet ID — the
// exact placement (and therefore RNG stream assignment) of the
// per-applet design. With coalescing they shard by key, so every member
// of a subscription lands on the shard that owns it.
func (e *Engine) homeShard(key, leadID string) *shard {
	if e.coalesce {
		return e.shardFor(key)
	}
	return e.shardFor(leadID)
}

// shardFor maps a scheduling key (applet ID, or subscription key under
// coalescing) to its owning shard: FNV-32a of the key, modulo the shard
// count.
func (e *Engine) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return e.shards[h%uint32(len(e.shards))]
}

// newSubLocked creates, indexes and renders the subscription for key
// with lead as its one member, unscheduled; key may live on the
// caller's stack. Caller holds s.mu. The RNG split label is the lead's,
// so with coalescing off (one applet per subscription) the poll
// schedule is draw-for-draw identical to scheduling applets directly.
func (s *shard) newSubLocked(key string, lead *runningApplet) *subscription {
	sub := &subscription{shard: s, ep: lead.trigger}
	sub.one[0] = lead
	sub.members = sub.one[:]
	s.rng.SplitInto(&sub.rng, "applet-"+lead.id)
	lead.sub = sub
	s.renderPollLocked(sub, key)
	s.subs[sub.key] = sub
	return sub
}

// addMembersLocked appends ras to sub's members. Caller holds s.mu.
func (s *shard) addMembersLocked(sub *subscription, ras ...*runningApplet) {
	// one holds at most one member, so a second one always moves the
	// members to a slice of their own and one is stale from then on.
	sub.members = append(sub.members, ras...)
	sub.one[0] = nil
	for _, ra := range ras {
		ra.sub = sub
	}
}

// joinLocked adds ra to the subscription for key, creating and
// scheduling the subscription when ra is its first member. Caller holds
// s.mu.
func (s *shard) joinLocked(ra *runningApplet, key []byte) {
	if sub := s.subs[string(key)]; sub != nil {
		s.addMembersLocked(sub, ra)
		return
	}
	sub := s.newSubLocked(string(key), ra)
	now := s.e.clock.Now()
	var gap time.Duration
	if ap := s.e.adaptive; ap != nil {
		// New subscriptions start presumed-cold with a spread first
		// poll; the first result (or a hint) reveals their heat.
		sub.rateAt = s.e.sinceEpoch(now)
		gap = ap.initialGap(&sub.rng)
	} else {
		gap = s.e.poll.NextGap(sub.ep.ref.Service, &sub.rng)
	}
	s.scheduleLocked(sub, now.Add(gap))
}

// leaveLocked removes ra from its subscription; when ra was the last
// member the subscription itself is retired (pending poll cancelled,
// unindexed) and leaveLocked reports true so the caller can notify the
// trigger service. When ra led, the blob is rendered again for the new
// lead and the index re-keyed to the new blob's key, so the old blob
// is garbage. Caller holds e.mu and s.mu.
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
		s.retireLocked(sub)
		return true
	}
	if wasLead {
		old := sub.key
		s.renderPollLocked(sub, old)
		delete(s.subs, old)
		s.subs[sub.key] = sub
	}
	return false
}

// retireLocked takes sub out of service: removed, pending poll
// cancelled, unindexed. Retiring a tripped subscription settles the
// open-breaker gauge; nextPollDueLocked skips removed subscriptions, so
// this is the only closing path it can take. Caller holds s.mu.
func (s *shard) retireLocked(sub *subscription) {
	sub.removed = true
	if sub.brState != brClosed {
		sub.brState = brClosed
		s.e.breakerOpen.Add(-1)
	}
	delete(s.subs, sub.key)
	s.unscheduleLocked(sub)
}

// lockIdentity resolves a wire trigger identity to its live
// subscription on whichever shard owns it (uncoalesced ones shard by
// applet ID) and returns it with that shard's mutex held; nil, with no
// lock held, when none is live.
func lockIdentity[S string | []byte](e *Engine, identity S) *subscription {
	for _, s := range e.shards {
		s.mu.Lock()
		if sub := s.subs[string(identity)]; sub != nil && len(sub.members) > 0 {
			return sub
		}
		s.mu.Unlock()
	}
	return nil
}

// stop marks the shard stopped and disarms its timers, so nothing of
// the shard stays pending on the clock. Pending polls are abandoned;
// in-flight polls finish their current round.
func (s *shard) stop() {
	s.mu.Lock()
	s.stopped = true
	s.armLocked()
	if s.spareArmed {
		s.spareArmed = false
		s.spare.Stop()
	}
	s.mu.Unlock()
}
