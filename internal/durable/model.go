// The recovery replay model: a pure in-memory reconstruction of the
// engine's durable state from a snapshot image plus the WAL tail. It
// mirrors the engine's own semantics — subscription grouping by trigger
// identity (honouring the coalesce mode), FIFO dedup windows with the
// engine's eviction behaviour, and the retired-window retention that
// keeps remove-then-reinstall exactly-once — without running any
// engine. Replay is idempotent: records already reflected in the
// snapshot (the snapshot/WAL overlap window) apply as no-ops.
package durable

import (
	"sort"
	"time"

	"repro/internal/engine"
)

// fifoSet reproduces the engine dedupRing's semantics: remember at most
// engine.DefaultDedupWindow IDs, evicting oldest-first, with O(1)
// duplicate checks.
type fifoSet struct {
	seen map[string]struct{}
	buf  []string
	head int
}

func newFifoSet(ids []string) *fifoSet {
	s := &fifoSet{seen: make(map[string]struct{})}
	for _, id := range ids {
		s.add(id)
	}
	return s
}

func (s *fifoSet) add(id string) {
	if _, dup := s.seen[id]; dup {
		return
	}
	if len(s.buf) < engine.DefaultDedupWindow {
		s.buf = append(s.buf, id)
	} else {
		delete(s.seen, s.buf[s.head])
		s.buf[s.head] = id
		s.head++
		if s.head == engine.DefaultDedupWindow {
			s.head = 0
		}
	}
	s.seen[id] = struct{}{}
}

// ids returns the remembered IDs oldest first.
func (s *fifoSet) ids() []string {
	if len(s.buf) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.buf))
	out = append(out, s.buf[s.head:]...)
	out = append(out, s.buf[:s.head]...)
	return out
}

type modelMember struct {
	applet engine.Applet
	ring   *fifoSet
	sub    *modelSub
}

type modelSub struct {
	key         string
	members     []*modelMember // join order, as the engine keeps them
	rate        float64
	rateAt      time.Time
	failStreak  int
	breakerOpen bool
	pollCount   int64
	pendingPush []engine.PendingPushSnapshot
}

// model accumulates replayed state.
type model struct {
	coalesce bool

	subs map[string]*modelSub
	byID map[string]*modelMember

	retired  map[string][]string
	retiredQ []string
}

func newModel(coalesce bool) *model {
	return &model{
		coalesce: coalesce,
		subs:     make(map[string]*modelSub),
		byID:     make(map[string]*modelMember),
		retired:  make(map[string][]string),
	}
}

// loadSnapshot seeds the model from a snapshot image.
func (m *model) loadSnapshot(snap *Snapshot) {
	for _, ss := range snap.Subs {
		m.addSubSnapshot(ss)
	}
	for _, r := range snap.Retired {
		m.retainRetired(r.AppletID, r.SeenEvents)
	}
}

func (m *model) addSubSnapshot(ss *engine.SubscriptionSnapshot) {
	if ss == nil || ss.Key == "" || m.subs[ss.Key] != nil {
		return
	}
	sub := &modelSub{
		key:         ss.Key,
		rate:        ss.Rate,
		rateAt:      ss.RateAt,
		failStreak:  ss.FailStreak,
		breakerOpen: ss.BreakerOpen,
		pollCount:   ss.PollCount,
		pendingPush: ss.PendingPush,
	}
	for _, ms := range ss.Members {
		if ms.Applet.ID == "" || m.byID[ms.Applet.ID] != nil {
			continue
		}
		mem := &modelMember{applet: ms.Applet, ring: newFifoSet(ms.SeenEvents), sub: sub}
		sub.members = append(sub.members, mem)
		m.byID[ms.Applet.ID] = mem
	}
	if len(sub.members) > 0 {
		m.subs[ss.Key] = sub
	}
}

// apply replays one WAL record. Every path is a no-op when the record's
// effect is already present (idempotence).
func (m *model) apply(rec Record) {
	switch rec.Op {
	case OpInstall:
		if rec.Applet == nil || rec.Applet.ID == "" || m.byID[rec.Applet.ID] != nil {
			return
		}
		a := *rec.Applet
		key := a.TriggerIdentity()
		if m.coalesce {
			key = a.CoalescedTriggerIdentity()
		}
		sub := m.subs[key]
		if sub == nil {
			sub = &modelSub{key: key}
			m.subs[key] = sub
		}
		mem := &modelMember{applet: a, ring: newFifoSet(m.takeRetired(a.ID)), sub: sub}
		sub.members = append(sub.members, mem)
		m.byID[a.ID] = mem

	case OpRemove:
		mem := m.byID[rec.ID]
		if mem == nil {
			return
		}
		m.retainRetired(rec.ID, mem.ring.ids())
		m.dropMember(mem)

	case OpCheckpoint:
		if rec.Checkpoint == nil {
			return
		}
		for _, me := range rec.Checkpoint.Members {
			if mem := m.byID[me.AppletID]; mem != nil {
				for _, id := range me.EventIDs {
					mem.ring.add(id)
				}
			} else if ids, ok := m.retired[me.AppletID]; ok {
				// The member's removal raced the execution that journaled
				// this checkpoint: its retained window absorbs the delta,
				// exactly as the engine's deferred retention does.
				ring := newFifoSet(ids)
				for _, id := range me.EventIDs {
					ring.add(id)
				}
				m.retired[me.AppletID] = ring.ids()
			}
		}

	case OpAttach:
		m.addSubSnapshot(rec.Attach)

	case OpDetach:
		// The subscription migrated away: drop it without retaining
		// windows — the state travelled with the migration snapshot.
		sub := m.subs[rec.Key]
		if sub == nil {
			return
		}
		for _, mem := range sub.members {
			delete(m.byID, mem.applet.ID)
		}
		delete(m.subs, rec.Key)
	}
}

func (m *model) dropMember(mem *modelMember) {
	sub := mem.sub
	for i, s := range sub.members {
		if s == mem {
			sub.members = append(sub.members[:i], sub.members[i+1:]...)
			break
		}
	}
	delete(m.byID, mem.applet.ID)
	if len(sub.members) == 0 {
		delete(m.subs, sub.key)
	}
}

// retainRetired mirrors Engine.retainDedup's FIFO retention.
func (m *model) retainRetired(id string, ids []string) {
	if id == "" || len(ids) == 0 {
		return
	}
	if _, ok := m.retired[id]; !ok {
		m.retiredQ = append(m.retiredQ, id)
		if len(m.retiredQ) > engine.DefaultRetiredDedup {
			old := m.retiredQ[0]
			m.retiredQ = append(m.retiredQ[:0], m.retiredQ[1:]...)
			delete(m.retired, old)
		}
	}
	m.retired[id] = ids
}

func (m *model) takeRetired(id string) []string {
	ids, ok := m.retired[id]
	if !ok {
		return nil
	}
	delete(m.retired, id)
	for i, q := range m.retiredQ {
		if q == id {
			m.retiredQ = append(m.retiredQ[:i], m.retiredQ[i+1:]...)
			break
		}
	}
	return ids
}

// export renders the model as attach-ready subscription snapshots,
// sorted by key so recovery replays them — and splits their RNG
// streams — in a deterministic order, plus the retained windows in
// removal order.
func (m *model) export() ([]*engine.SubscriptionSnapshot, []engine.RetiredDedup) {
	keys := make([]string, 0, len(m.subs))
	for k := range m.subs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	subs := make([]*engine.SubscriptionSnapshot, 0, len(keys))
	for _, k := range keys {
		sub := m.subs[k]
		ss := &engine.SubscriptionSnapshot{
			Key:         sub.key,
			Members:     make([]engine.MemberSnapshot, len(sub.members)),
			Rate:        sub.rate,
			RateAt:      sub.rateAt,
			FailStreak:  sub.failStreak,
			BreakerOpen: sub.breakerOpen,
			PollCount:   sub.pollCount,
			PendingPush: sub.pendingPush,
		}
		for i, mem := range sub.members {
			ss.Members[i] = engine.MemberSnapshot{Applet: mem.applet, SeenEvents: mem.ring.ids()}
		}
		subs = append(subs, ss)
	}
	retired := make([]engine.RetiredDedup, 0, len(m.retiredQ))
	for _, id := range m.retiredQ {
		if ids, ok := m.retired[id]; ok {
			retired = append(retired, engine.RetiredDedup{AppletID: id, SeenEvents: ids})
		}
	}
	return subs, retired
}
