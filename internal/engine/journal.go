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

// Journal receives the engine's durable state changes. Implementations
// must be safe for concurrent use; append errors on Install and
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
// events the first installation already executed.
type RetiredDedup struct {
	AppletID   string   `json:"applet_id"`
	SeenEvents []string `json:"seen_events"`
}

// DefaultRetiredDedup bounds how many removed applets' dedup windows
// the engine remembers for reinstallation (Config.RetiredDedup).
const DefaultRetiredDedup = 4096

// journalCheckpoint appends the dedup delta of the execution (poll or
// push) dec carries. Called by the worker that owns the subscription,
// after the rings absorbed the IDs and before any action dispatches.
func (e *Engine) journalCheckpoint(dec *pollDecoder) {
	cp := Checkpoint{Key: dec.sub.key, Members: make([]MemberEvents, 0, len(dec.ranges))}
	for _, mr := range dec.ranges {
		if mr.end == mr.start {
			continue
		}
		ids := make([]string, 0, mr.end-mr.start)
		for _, ev := range dec.fresh[mr.start:mr.end] {
			ids = append(ids, ev.Meta.ID)
		}
		cp.Members = append(cp.Members, MemberEvents{AppletID: mr.ra.id, EventIDs: ids})
	}
	if len(cp.Members) == 0 {
		return
	}
	if err := e.journal.AppendCheckpoint(cp); err != nil && e.log != nil {
		e.log.Warn("journal checkpoint failed", "key", cp.Key, "err", err)
	}
}

// retainDedup remembers a removed applet's dedup window for a future
// reinstall of the same ID. Called once per removed member, after its
// final execution completed (so the ring is final): directly from
// Remove when the subscription was idle, or from the owning worker's
// release path when the removal interleaved with an execution.
func (e *Engine) retainDedup(ra *runningApplet) {
	if e.retCap <= 0 {
		return
	}
	ids := ra.dedup.snapshotIDs()
	if len(ids) == 0 {
		return
	}
	id := ra.id
	e.retMu.Lock()
	if _, ok := e.retired[id]; !ok {
		e.retiredQ = append(e.retiredQ, id)
		if len(e.retiredQ) > e.retCap {
			// FIFO eviction: forget the longest-removed applet's window.
			old := e.retiredQ[0]
			e.retiredQ = append(e.retiredQ[:0], e.retiredQ[1:]...)
			delete(e.retired, old)
		}
	}
	e.retired[id] = ids
	e.retMu.Unlock()
}

// takeRetiredDedup consumes the remembered dedup window for id, nil
// when none is held.
func (e *Engine) takeRetiredDedup(id string) []string {
	if e.retCap <= 0 {
		return nil
	}
	e.retMu.Lock()
	ids, ok := e.retired[id]
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
	return ids
}

// ExportRetiredDedup snapshots the retained dedup windows of removed
// applets, oldest removal first — the order SeedRetiredDedup replays to
// reproduce the same FIFO eviction behaviour.
func (e *Engine) ExportRetiredDedup() []RetiredDedup {
	e.retMu.Lock()
	defer e.retMu.Unlock()
	out := make([]RetiredDedup, 0, len(e.retiredQ))
	for _, id := range e.retiredQ {
		if ids, ok := e.retired[id]; ok {
			out = append(out, RetiredDedup{AppletID: id, SeenEvents: ids})
		}
	}
	return out
}

// SeedRetiredDedup loads retained dedup windows (from a recovered
// snapshot) into the engine, in the given order.
func (e *Engine) SeedRetiredDedup(entries []RetiredDedup) {
	if e.retCap <= 0 {
		return
	}
	e.retMu.Lock()
	for _, en := range entries {
		if en.AppletID == "" || len(en.SeenEvents) == 0 {
			continue
		}
		if _, ok := e.retired[en.AppletID]; !ok {
			e.retiredQ = append(e.retiredQ, en.AppletID)
			if len(e.retiredQ) > e.retCap {
				old := e.retiredQ[0]
				e.retiredQ = append(e.retiredQ[:0], e.retiredQ[1:]...)
				delete(e.retired, old)
			}
		}
		e.retired[en.AppletID] = en.SeenEvents
	}
	e.retMu.Unlock()
}
