// Subscription snapshot API: detach a live subscription — members,
// dedup windows, EWMA rate, breaker state, pending push deliveries —
// from one engine and attach it to another, preserving every invariant
// the scheduler relies on. This is the migration primitive the cluster
// tier (internal/cluster) builds on: a moving trigger identity is
// detached on the source node, replayed on the target, and because the
// detach waits until no worker runs the subscription and retires it in
// the same critical section, no poll or push can execute on the source
// after the snapshot is taken. Exactly-once across the handoff falls
// out of the dedup rings travelling inside the snapshot.
package engine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/proto"
)

// detachRetry is how long DetachSubscription waits between attempts to
// claim a subscription that is mid-execution.
const detachRetry = 10 * time.Millisecond

// MemberSnapshot is one member applet of a detached subscription: its
// definition plus its dedup window (the remembered event IDs' hashes,
// IDHash, oldest first).
type MemberSnapshot struct {
	Applet     Applet
	SeenEvents []uint64
}

// PendingPushSnapshot is one push delivery that was waiting in the
// subscription's mailbox when it was detached; the target runs it, so
// nothing the ingress accepted is lost to a migration.
type PendingPushSnapshot struct {
	Events []proto.TriggerEvent
	At     time.Time
}

// SubscriptionSnapshot is the portable state of one subscription:
// everything AttachSubscription needs to resume polling on another
// engine exactly where the source left off.
type SubscriptionSnapshot struct {
	// Key is the wire trigger identity the subscription polls under.
	// It is preserved verbatim across the move — both engines must
	// agree on Config.Coalesce for the key to stay consistent.
	Key     string
	Members []MemberSnapshot
	// Rate / RateAt carry the adaptive EWMA event-rate estimate, so a
	// hot identity stays on its fast cadence across the move instead of
	// re-warming from the presumed-cold initial gap.
	Rate   float64
	RateAt time.Time
	// FailStreak and BreakerOpen carry the resilience state: an open
	// breaker stays open on the target (probes resume at the probe
	// interval), so a migration cannot be used to hammer a down
	// service.
	FailStreak  int
	BreakerOpen bool
	// PollCount is the subscription's lifetime poll tally.
	PollCount int64
	// PendingPush are the deliveries waiting at detach time.
	PendingPush []PendingPushSnapshot
}

// snapshotSubLocked builds sub's portable snapshot without mutating it.
// The caller holds the owning shard's mutex and has verified no worker
// runs the subscription, so the member rings and the mailbox are
// stable.
func (e *Engine) snapshotSubLocked(sub *subscription) *SubscriptionSnapshot {
	snap := &SubscriptionSnapshot{
		Key:        sub.key,
		Members:    make([]MemberSnapshot, len(sub.members)),
		Rate:       sub.rate,
		FailStreak: int(sub.failStreak),
		PollCount:  sub.pollCount,
	}
	if e.adaptive != nil { // otherwise no estimate is kept, and none travels
		snap.RateAt = e.timeAt(sub.rateAt)
	}
	for i, ra := range sub.members {
		snap.Members[i] = MemberSnapshot{
			Applet:     ra.applet(),
			SeenEvents: ra.dedup.window(),
		}
	}
	if m := sub.mail; m != nil {
		for _, p := range m.push {
			events := make([]proto.TriggerEvent, 0, p.hi-p.lo)
			for i := p.lo; i < p.hi; i++ {
				events = append(events, m.materialise(&m.events[i]))
			}
			snap.PendingPush = append(snap.PendingPush, PendingPushSnapshot{Events: events, At: p.at})
		}
	}
	if sub.brState != brClosed {
		snap.BreakerOpen = true
	}
	return snap
}

// ExportSubscriptions captures a consistent snapshot of every live
// subscription — without detaching anything; the engine keeps running.
// This is the periodic-snapshot primitive of the durability tier:
// combined with the journal's ordering contract (journal.go), a caller
// that reads the journal's head position *before* exporting gets a
// snapshot covering every record at or below that position, so replay
// of the remaining tail only needs to be idempotent, never ordered
// against the snapshot.
//
// Each subscription is captured under its shard's lock after waiting
// out any worker running it, as detach does; the subscription keeps
// running the moment the lock drops. Results are sorted by key.
func (e *Engine) ExportSubscriptions() []*SubscriptionSnapshot {
	// Taking (and releasing) e.mu once fences all lifecycle records: any
	// install/remove/attach/detach journaled before the caller read the
	// journal head had committed inside an e.mu section, so its effect
	// is visible to the per-shard capture below.
	e.mu.Lock()
	nsubs := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		nsubs += len(sh.subs)
		sh.mu.Unlock()
	}
	e.mu.Unlock()

	out := make([]*SubscriptionSnapshot, 0, nsubs)
	for _, sh := range e.shards {
		sh.mu.Lock()
		keys := make([]string, 0, len(sh.subs))
		for k := range sh.subs {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
		for _, k := range keys {
			for {
				sh.mu.Lock()
				sub := sh.subs[k]
				if sub == nil || sub.removed || len(sub.members) == 0 {
					sh.mu.Unlock()
					break // removed while exporting; its journal records cover it
				}
				if sub.run != running {
					snap := e.snapshotSubLocked(sub)
					sh.mu.Unlock()
					out = append(out, snap)
					break
				}
				sh.mu.Unlock()
				e.clock.Sleep(detachRetry)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SubscriptionKeys lists the wire trigger identities of every live
// subscription, across all shards. The cluster coordinator enumerates
// a node's keys with this when draining it.
func (e *Engine) SubscriptionKeys() []string {
	var keys []string
	for _, sh := range e.shards {
		sh.mu.Lock()
		for k := range sh.subs {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys
}

// SubscriptionMembers lists the applet IDs of the live subscription
// polling under key, lead first, or nil when there is none. The cluster
// coordinator records them before it detaches the subscription, so the
// members stay findable while they are in no engine.
func (e *Engine) SubscriptionMembers(key string) []string {
	sub := lockIdentity(e, key)
	if sub == nil {
		return nil
	}
	ids := make([]string, len(sub.members))
	for i, ra := range sub.members {
		ids[i] = ra.id
	}
	sub.shard.mu.Unlock()
	return ids
}

// DetachSubscription removes the subscription for key from this engine
// and returns its portable snapshot, or (nil, nil) when no such
// subscription is live (it was removed concurrently — a benign race
// for a rebalancing coordinator).
//
// Ownership: detach waits until no worker runs the subscription, then
// retires it from the shard in one critical section — pending poll
// cancelled, identity unindexed, breaker gauge settled, waiting pushes
// moved into the snapshot — so no poll starts, no push matches, and no
// hint resolves on this engine afterwards. Workers end their run even
// on a stopped engine, so detaching from a killed node terminates.
//
// Callers must ensure Remove is not called concurrently for the same
// subscription's members (the cluster router serializes this by
// parking operations on moving identities).
func (e *Engine) DetachSubscription(key string) (*SubscriptionSnapshot, error) {
	sub := lockIdentity(e, key)
	if sub == nil {
		return nil, nil
	}
	sh := sub.shard
	for sub.run == running {
		sh.mu.Unlock()
		e.clock.Sleep(detachRetry)
		sh.mu.Lock()
		if sub = sh.subs[key]; sub == nil || len(sub.members) == 0 {
			sh.mu.Unlock()
			return nil, nil
		}
	}

	// Retire the subscription under the shard lock, as leaveLocked does
	// its last member's, and capture the snapshot in the same critical
	// section so no execution can interleave.
	snap := e.snapshotSubLocked(sub)
	if e.journaling() {
		ids := make([]string, len(snap.Members))
		for i := range snap.Members {
			ids[i] = snap.Members[i].Applet.ID
		}
		if err := e.journal.AppendDetach(key, ids); err != nil && e.log != nil {
			e.log.Warn("journal detach failed", "key", key, "err", err)
		}
	}
	if sub.mail != nil {
		sh.dropPushLocked(sub)
	}
	members := sub.members
	sh.retireLocked(sub)
	sh.mu.Unlock()

	// Unindex the members engine-side (lock order: e.mu is never taken
	// with a shard lock held, so this happens after the shard section).
	e.mu.Lock()
	for _, ra := range members {
		e.unindexLocked(ra)
	}
	e.mu.Unlock()
	return snap, nil
}

// AttachSubscription installs a detached subscription on this engine,
// restoring the members' dedup windows, the EWMA rate estimate, the
// breaker state, and queueing its pending push deliveries. The first
// poll is scheduled from the restored state: at the probe interval
// when the breaker arrived open, by the adaptive policy's restored-
// rate gap otherwise — not from the presumed-cold initial spread.
func (e *Engine) AttachSubscription(snap *SubscriptionSnapshot) error {
	if snap == nil || snap.Key == "" {
		return fmt.Errorf("engine: attach: empty snapshot")
	}
	if len(snap.Members) == 0 {
		return fmt.Errorf("engine: attach %q: no members", snap.Key)
	}
	ras := make([]*runningApplet, len(snap.Members))
	for i, m := range snap.Members {
		if m.Applet.ID == "" {
			return fmt.Errorf("engine: attach %q: member %d has no applet ID", snap.Key, i)
		}
		ras[i] = e.newRunningApplet(&m.Applet, restoreDedupRing(e.dedupCap, m.SeenEvents))
	}

	e.mu.Lock()
	if e.stopped.Load() {
		e.mu.Unlock()
		return fmt.Errorf("engine: stopped")
	}
	// A replay skips members already installed, unless none is left (an
	// image holds an applet twice when it moved between subscriptions
	// while being written; the log replays the move).
	for i := len(ras) - 1; i >= 0; i-- {
		if e.applets[ras[i].id] == nil {
			continue
		}
		if !e.replaying.Load() || len(ras) == 1 {
			e.mu.Unlock()
			return fmt.Errorf("engine: attach %q: applet %q already installed: %w", snap.Key, ras[i].id, ErrNoChange)
		}
		ras = append(ras[:i], ras[i+1:]...)
	}
	lead := ras[0]
	sh := e.homeShard(snap.Key, lead.id)
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("engine: stopped")
	}
	if sh.subs[snap.Key] != nil {
		sh.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("engine: attach: subscription %q already present: %w", snap.Key, ErrNoChange)
	}
	// Journal the arriving subscription before commit (same ordering as
	// Install): a node that accepted a migration and then crashed must
	// resurrect it, or the identity is lost cluster-wide.
	if e.journaling() {
		if err := e.journal.AppendAttach(snap); err != nil {
			sh.mu.Unlock()
			e.mu.Unlock()
			return fmt.Errorf("engine: journal attach %q: %w", snap.Key, err)
		}
	}
	now := e.clock.Now()
	sub := sh.newSubLocked(snap.Key, lead)
	if len(ras) > 1 {
		sh.addMembersLocked(sub, ras[1:]...)
	}
	sub.rate, sub.rateAt = snap.Rate, e.sinceEpoch(now)
	if !snap.RateAt.IsZero() { // zero: the source kept no estimate
		sub.rateAt = e.sinceEpoch(snap.RateAt)
	}
	sub.failStreak, sub.pollCount = int32(min(max(snap.FailStreak, 0), math.MaxInt32)), snap.PollCount
	if snap.BreakerOpen {
		sub.brState = brOpen
		e.breakerOpen.Add(1)
	}
	var gap time.Duration
	if sub.brState == brOpen {
		gap = jitterDur(e.probeIvl, 0.1, &sub.rng)
	} else {
		gap = sh.policyGapLocked(sub)
	}
	sh.scheduleLocked(sub, now.Add(gap))
	if len(snap.PendingPush) > 0 {
		m := sh.mailLocked(sub)
		for _, p := range snap.PendingPush {
			m.pushTyped(p.Events, p.At)
		}
		sh.pushDepth += len(snap.PendingPush)
		if sh.enqueueLocked(sub) {
			e.clock.Go(sh.workFn)
		}
	}
	sh.mu.Unlock()
	for _, ra := range ras {
		e.indexLocked(ra)
	}
	e.mu.Unlock()
	return nil
}
