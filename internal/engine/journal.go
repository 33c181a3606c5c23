// The engine's durability hooks. The engine itself stays storage-free:
// a Journal (Config.Journal) observes every state change that must
// survive a crash — installs, removes, subscription migrations, and
// per-execution dedup checkpoints — and internal/durable implements it
// as a write-ahead log with periodic snapshots.
//
// Ordering contract: install, remove, attach, and detach records are
// appended inside the engine's e.mu critical section, after validation
// and before the in-memory commit, so the journal's record order equals
// the engine's commit order and a reader that appends nothing while
// holding e.mu observes every committed record. Checkpoints are
// appended by the executing worker after the dedup rings absorbed the
// event IDs and strictly before the first action dispatches —
// replaying a checkpoint therefore never re-executes an event that an
// action was issued for (the crash-window loss is at-most-once: an
// event journaled but not yet dispatched is marked seen and will not
// run after recovery).
package engine

import (
	"errors"
	"fmt"
)

// Journal receives the engine's durable state changes. Implementations
// must be safe for concurrent use. Arguments are valid only during the
// call: the engine reuses a Checkpoint's slices (and may reuse any
// argument's) as soon as the append returns, so an implementation
// copies what it keeps. Append errors on Install and
// AttachSubscription abort the operation, while Remove, Detach, and
// checkpoint append errors are logged and the operation proceeds
// (refusing a removal because the disk is full would be worse than a
// resurrected applet after a crash).
type Journal interface {
	// AppendInstall records an applet installation. The applet's
	// Conditions are not required to survive the journal round-trip
	// (Condition is an interface and has no portable encoding).
	AppendInstall(a Applet) error
	// AppendRemove records an applet removal by ID.
	AppendRemove(id string) error
	// AppendCheckpoint records the event IDs an execution is about to
	// act on, per member applet.
	AppendCheckpoint(cp Checkpoint) error
	// AppendAttach records a whole subscription arriving via
	// AttachSubscription (cluster migration): members, dedup windows,
	// rate, and breaker state.
	AppendAttach(snap *SubscriptionSnapshot) error
	// AppendDetach records a subscription leaving via
	// DetachSubscription; appletIDs are its member applets at detach.
	AppendDetach(key string, appletIDs []string) error
}

// Checkpoint is the durable dedup delta of one execution: the fresh
// event IDs each member applet of one subscription is about to act on.
type Checkpoint struct {
	// Key is the subscription's wire trigger identity.
	Key     string         `json:"key"`
	Members []MemberEvents `json:"members"`
}

// MemberEvents is one member applet's slice of a Checkpoint.
type MemberEvents struct {
	AppletID string   `json:"applet_id"`
	EventIDs []string `json:"event_ids"`
}

// RetiredDedup is the preserved dedup window of a removed applet: what
// makes a remove-then-reinstall of the same applet ID exactly-once for
// events the first installation already executed. SeenEvents holds the
// remembered IDs' hashes (IDHash), oldest first.
type RetiredDedup struct {
	AppletID   string   `json:"applet_id"`
	SeenEvents []uint64 `json:"seen_events"`
}

// DefaultRetiredDedup bounds how many removed applets' dedup windows
// the engine remembers for reinstallation.
const DefaultRetiredDedup = 4096

// ErrNoChange is wrapped by a lifecycle call that found its effect in
// place (applet installed or absent, subscription attached, IDs seen):
// recovery counts such WAL records as no-ops.
var ErrNoChange = errors.New("no change")

// journaling reports whether changes are journaled now (not on replay).
func (e *Engine) journaling() bool { return e.journal != nil && !e.replaying.Load() }

// Replay runs fn in a replay window: fn re-applies journaled state
// changes through Install, Remove, AttachSubscription, DetachSubscription
// and ApplyCheckpoint, and none is journaled again. While it is open
//   - poll timers are held: nothing polls before later checkpoints apply;
//   - a last-member Remove sends no upstream DELETE;
//   - attached subscriptions' pending push deliveries wait on the ready
//     queue; if fn succeeds the caller runs them after the window,
//     against the final rings.
//
// Run it before the engine receives traffic. It returns fn's error.
func (e *Engine) Replay(fn func() error) error {
	e.replaying.Store(true)
	err := fn()
	e.replaying.Store(false)
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.armLocked() // re-arm what fired while held
		if err != nil || sh.readyLenLocked() == 0 || sh.inflight >= e.workers {
			sh.mu.Unlock()
			continue
		}
		sh.inflight++
		sh.mu.Unlock()
		sh.work()
	}
	return err
}

// ApplyCheckpoint re-applies a journaled checkpoint inside a replay
// window: each member's event IDs join its dedup ring or, when the
// member's removal raced the execution that journaled the checkpoint,
// its retained window. It returns ErrNoChange when no ID was new to a
// known member.
func (e *Engine) ApplyCheckpoint(cp Checkpoint) error {
	if !e.replaying.Load() {
		return fmt.Errorf("engine: checkpoint %q outside a replay window", cp.Key)
	}
	changed := false
	for _, m := range cp.Members {
		e.mu.Lock()
		ra := e.applets[m.AppletID]
		e.mu.Unlock()
		if ra != nil { // no execution owns a ring while the timers are held
			for _, id := range m.EventIDs {
				changed = ra.remember(idHash(id)) || changed
			}
			continue
		}
		e.retMu.Lock()
		if window, ok := e.retired[m.AppletID]; ok { // never empty
			ring := restoreDedupRing(e.dedupCap, window)
			for _, id := range m.EventIDs {
				changed = ring.Add(idHash(id)) || changed
			}
			e.retired[m.AppletID] = ring.window()
		}
		e.retMu.Unlock()
	}
	if !changed {
		return fmt.Errorf("engine: checkpoint %q: %w", cp.Key, ErrNoChange)
	}
	return nil
}

// journalCheckpoint appends the dedup delta of the execution (poll or
// push) dec carries. Called by the worker that owns the subscription,
// after the rings absorbed the IDs and before any action dispatches.
// The Checkpoint is the decoder's: one flat list of the fresh events'
// IDs, which each member's entry slices. The ID strings are carved out
// of the decoder's append-only chunk (journalID), so a warm decoder
// allocates once per chunk, not per checkpoint. The Checkpoint is
// emptied again once the journal returned.
func (e *Engine) journalCheckpoint(dec *pollDecoder) {
	ids := dec.cpIDs[:0]
	for i := range dec.fresh {
		ev := &dec.fresh[i]
		ids = append(ids, dec.journalID(dec.vals[ev.id:ev.idEnd]))
	}
	cp := &dec.cp
	for _, mr := range dec.ranges {
		if mr.end > mr.start {
			cp.Members = append(cp.Members, MemberEvents{AppletID: mr.ra.id, EventIDs: ids[mr.start:mr.end:mr.end]})
		}
	}
	if len(cp.Members) > 0 {
		cp.Key = dec.key
		if err := e.journal.AppendCheckpoint(*cp); err != nil && e.log != nil {
			e.log.Warn("journal checkpoint failed", "key", cp.Key, "err", err)
		}
	}
	clear(ids)
	clear(cp.Members)
	dec.cpIDs, *cp = ids[:0], Checkpoint{Members: cp.Members[:0]}
}

// journalIDChunk is the size of the chunks journalID carves strings from.
const journalIDChunk = 1 << 10

// journalID returns id as a string carved out of the decoder's current
// chunk. Bytes once written to a chunk are never written again — a full
// chunk is dropped, not reused, and stays alive only while a string
// carved from it does — so the strings are as immutable as any, and
// journaling an ID costs an allocation only once per chunk.
func (d *pollDecoder) journalID(id []byte) string {
	sb := &d.cpStrs
	if sb.Cap()-sb.Len() < len(id) {
		sb.Reset()
		sb.Grow(max(journalIDChunk, len(id)))
	}
	n := sb.Len()
	sb.Write(id)
	return sb.String()[n:]
}

// retainDedup remembers a removed applet's dedup window for a future
// reinstall of the same ID. Called once per removed member, after its
// final execution completed (so the ring is final): directly from
// Remove when the subscription was idle, or from the owning worker's
// release path when the removal interleaved with an execution.
func (e *Engine) retainDedup(ra *runningApplet) {
	window := ra.dedup.window()
	if len(window) == 0 {
		return
	}
	e.retMu.Lock()
	e.retireLocked(ra.id, window)
	e.retMu.Unlock()
}

// retireLocked records id's window, evicting the longest-removed
// applet's window (FIFO) beyond DefaultRetiredDedup. retMu is held.
func (e *Engine) retireLocked(id string, window []uint64) {
	if _, ok := e.retired[id]; !ok {
		e.retiredQ = append(e.retiredQ, id)
		if len(e.retiredQ) > DefaultRetiredDedup {
			old := e.retiredQ[0]
			e.retiredQ = append(e.retiredQ[:0], e.retiredQ[1:]...)
			delete(e.retired, old)
		}
	}
	e.retired[id] = window
}

// takeRetiredDedup consumes the remembered dedup window for id, nil
// when none is held.
func (e *Engine) takeRetiredDedup(id string) []uint64 {
	e.retMu.Lock()
	window, ok := e.retired[id]
	if ok {
		delete(e.retired, id)
		for i, q := range e.retiredQ {
			if q == id {
				e.retiredQ = append(e.retiredQ[:i], e.retiredQ[i+1:]...)
				break
			}
		}
	}
	e.retMu.Unlock()
	if !ok {
		return nil
	}
	return window
}

// ExportRetiredDedup snapshots the retained dedup windows of removed
// applets, oldest removal first — the order SeedRetiredDedup replays to
// reproduce the same FIFO eviction behaviour.
func (e *Engine) ExportRetiredDedup() []RetiredDedup {
	e.retMu.Lock()
	defer e.retMu.Unlock()
	out := make([]RetiredDedup, 0, len(e.retiredQ))
	for _, id := range e.retiredQ {
		if window, ok := e.retired[id]; ok {
			out = append(out, RetiredDedup{AppletID: id, SeenEvents: window})
		}
	}
	return out
}

// SeedRetiredDedup loads retained dedup windows (from a recovered
// snapshot) into the engine, in the given order.
func (e *Engine) SeedRetiredDedup(entries []RetiredDedup) {
	e.retMu.Lock()
	for _, en := range entries {
		if en.AppletID != "" && len(en.SeenEvents) > 0 {
			e.retireLocked(en.AppletID, en.SeenEvents)
		}
	}
	e.retMu.Unlock()
}
