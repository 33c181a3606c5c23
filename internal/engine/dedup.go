package engine

// dedupRing remembers the last cap event IDs seen by one applet, the
// window the engine uses to avoid re-executing events that services
// re-serve across polls. It is a fixed-size FIFO ring: once full, every
// insertion evicts the oldest remembered ID in O(1), and the backing
// array never grows past cap — unlike a re-sliced []string FIFO, whose
// backing array leaks evicted entries until the slice is reallocated.
//
// The ring is owned by the single worker polling its applet at any
// moment; it needs no lock.
type dedupRing struct {
	cap  int
	seen map[string]struct{}
	buf  []string
	head int // index of the oldest entry once the ring is full
}

// newDedupRing returns a ring remembering at most capacity IDs. The
// backing storage is allocated lazily so that installed-but-quiet
// applets cost a few words each.
func newDedupRing(capacity int) dedupRing {
	return dedupRing{cap: capacity}
}

// Add records id, reporting false when it is already remembered. When
// the window is full the oldest ID is evicted.
func (r *dedupRing) Add(id string) bool {
	if _, dup := r.seen[id]; dup {
		return false
	}
	if r.seen == nil {
		r.seen = make(map[string]struct{})
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, id)
	} else {
		delete(r.seen, r.buf[r.head])
		r.buf[r.head] = id
		r.head++
		if r.head == r.cap {
			r.head = 0
		}
	}
	r.seen[id] = struct{}{}
	return true
}

// Has reports whether id is remembered, without recording it. It takes
// the ID as it sits in a response body so the poll path can ask before
// it builds the event: the lookup allocates nothing.
func (r *dedupRing) Has(id []byte) bool {
	_, ok := r.seen[string(id)]
	return ok
}

// Len returns the number of remembered IDs.
func (r *dedupRing) Len() int { return len(r.buf) }

// snapshotIDs returns the remembered IDs oldest-first — the order that,
// replayed through Add into an empty ring of the same capacity,
// reproduces this ring exactly. Used by subscription migration.
func (r *dedupRing) snapshotIDs() []string {
	if len(r.buf) == 0 {
		return nil
	}
	ids := make([]string, 0, len(r.buf))
	ids = append(ids, r.buf[r.head:]...)
	ids = append(ids, r.buf[:r.head]...)
	return ids
}

// restoreDedupRing rebuilds a ring of the given capacity from an
// oldest-first ID snapshot. Snapshots longer than the capacity keep
// only the newest entries, matching what FIFO eviction would have kept.
func restoreDedupRing(capacity int, ids []string) dedupRing {
	r := newDedupRing(capacity)
	for _, id := range ids {
		r.Add(id)
	}
	return r
}
