package engine

import "fmt"

// idHash is what a dedup ring remembers an event ID by: 64-bit FNV-1a
// over the ID's bytes, finished with splitmix64's mixer so that every
// bit of the result depends on every byte (the ring's index probes from
// the low bits). It is fixed and unkeyed on purpose. Rings travel as
// words — in snapshot images, attach records and cluster migrations —
// so every process and node must hash an ID alike, across restarts and
// builds; the value is an on-disk format (TestIDHashGolden pins it). A
// partner that forges a collision gains nothing over another partner:
// rings are per applet, and an applet's window only ever holds the IDs
// of its own trigger service's events, so a forged ID can only make
// that service's own later event look seen.
func idHash[S string | []byte](id S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// IDHash is the hash a dedup window (MemberSnapshot.SeenEvents,
// RetiredDedup.SeenEvents) holds for the event ID id.
func IDHash(id string) uint64 { return idHash(id) }

// maxDedupWindow is the largest window a ring can hold: its index keeps
// 1 + a position in 16 bits.
const maxDedupWindow = 1<<16 - 1

// dedupRing remembers the hashes of the last cap event IDs seen by one
// applet, the window the engine uses to avoid re-executing events that
// services re-serve across polls. It is a FIFO: once full, every
// insertion evicts the oldest remembered hash in O(1).
//
// Its storage is one []uint64, allocated at the first Add and grown up
// to room for cap hashes through 4, 6, 8, 12, 16, 24, …: the hashes in
// w[:size], in insertion order from head once the ring is full, then
// the index, an open-addressed table of uint16 slots, four to a word,
// each 0 (empty) or 1 + the position of a hash. The table has a third
// more slots than size, rounded up to a power of two, so it is at most
// three quarters full; lookups probe linearly from the hash's low bits
// and an eviction closes its gap by backward shift, so no tombstones
// accumulate. An applet holding 20 IDs keeps 32 words.
//
// A runningApplet holds its ring by pointer, nil until the applet's
// first event (remember), so an applet that never fires pays one word
// for it. The ring is owned by the single worker executing its applet's
// subscription at any moment; it needs no lock. A nil ring is an empty
// one to Has, Len and window.
type dedupRing struct {
	w    []uint64
	cap  int32 // window
	size int32 // hashes w has room for
	n    int32 // hashes remembered
	head int32 // position of the oldest hash once n == cap
}

// newDedupRing returns a ring remembering at most capacity IDs. Its
// storage is allocated at the first Add.
func newDedupRing(capacity int) *dedupRing {
	if capacity < 1 || capacity > maxDedupWindow {
		panic(fmt.Sprintf("engine: dedup window %d outside [1, %d]", capacity, maxDedupWindow))
	}
	return &dedupRing{cap: int32(capacity)}
}

// remember adds h to ra's dedup ring, which it makes, of the engine's
// window, at ra's first event. It reports whether h was new. Only the
// worker executing ra's subscription calls it (or replay, which runs
// none).
func (ra *runningApplet) remember(h uint64) bool {
	if ra.dedup == nil {
		ra.dedup = newDedupRing(ra.sub.shard.e.dedupCap)
	}
	return ra.dedup.Add(h)
}

// mask is the index's slot count minus one.
func (r *dedupRing) mask() uint64 { return uint64(len(r.w)-int(r.size))*4 - 1 }

func (r *dedupRing) slot(i uint64) int32 {
	return int32(uint16(r.w[uint64(r.size)+i>>2] >> (i & 3 * 16)))
}

func (r *dedupRing) setSlot(i uint64, v int32) {
	p, shift := &r.w[uint64(r.size)+i>>2], i&3*16
	*p = *p&^(0xffff<<shift) | uint64(v)<<shift
}

// find returns the index slot holding h, or the empty slot where h
// would go, and whether h is remembered.
func (r *dedupRing) find(h uint64) (uint64, bool) {
	mask := r.mask()
	for i := h & mask; ; i = (i + 1) & mask {
		v := r.slot(i)
		if v == 0 {
			return i, false
		}
		if r.w[v-1] == h {
			return i, true
		}
	}
}

// Has reports whether h is remembered, without recording it.
func (r *dedupRing) Has(h uint64) bool {
	if r == nil || r.n == 0 {
		return false
	}
	_, ok := r.find(h)
	return ok
}

// Add records h, reporting false when it is already remembered. When
// the window is full the oldest hash is evicted.
func (r *dedupRing) Add(h uint64) bool {
	if r.n > 0 {
		if _, ok := r.find(h); ok {
			return false
		}
	}
	pos := r.n
	if r.n == r.cap {
		pos = r.head
		r.evict(pos)
		if r.head++; r.head == r.cap {
			r.head = 0
		}
	} else {
		if r.n == r.size {
			r.grow()
		}
		r.n++
	}
	r.w[pos] = h
	i, _ := r.find(h)
	r.setSlot(i, pos+1)
	return true
}

// evict removes the index entry of the hash at position pos, shifting
// the entries probed past it back so that every remaining one is still
// reachable from its home slot.
func (r *dedupRing) evict(pos int32) {
	mask := r.mask()
	i := r.w[pos] & mask
	for r.slot(i) != pos+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		v := r.slot(j)
		if v == 0 {
			break
		}
		// The entry at j may fill the gap at i unless its home slot lies
		// cyclically in (i, j].
		if home := r.w[v-1] & mask; (j-home)&mask >= (j-i)&mask {
			r.setSlot(i, v)
			i = j
		}
	}
	r.setSlot(i, 0)
}

// grow takes the room for hashes to the next step of 4, 6, 8, 12, 16,
// 24, … (at most cap) and rebuilds the index. It runs only while the ring is
// not yet full, so the hashes sit in insertion order at w[:n].
func (r *dedupRing) grow() {
	size := r.size + r.size/3 // from 3·2ᵏ to 2ᵏ⁺²
	if r.size&(r.size-1) == 0 {
		size = max(4, r.size+r.size/2) // from 2ᵏ to 3·2ᵏ⁻¹
	}
	size = min(size, r.cap)
	slots := 8
	for slots < int(size+size/3) {
		slots <<= 1
	}
	w := make([]uint64, int(size)+slots/4)
	copy(w, r.w[:r.n])
	r.w, r.size = w, size
	for pos := range r.n {
		i, _ := r.find(w[pos])
		r.setSlot(i, pos+1)
	}
}

// Len returns the number of remembered hashes.
func (r *dedupRing) Len() int {
	if r == nil {
		return 0
	}
	return int(r.n)
}

// window returns the remembered hashes oldest-first — the order that,
// replayed through Add into an empty ring of the same capacity,
// reproduces this ring's contents. Snapshots, retired windows and
// subscription migration carry it.
func (r *dedupRing) window() []uint64 {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]uint64, 0, r.n)
	out = append(out, r.w[r.head:r.n]...) // head is 0 until the ring is full
	return append(out, r.w[:r.head]...)
}

// restoreDedupRing rebuilds a ring of the given capacity from an
// oldest-first window, nil for an empty one. A window longer than the
// capacity keeps only the newest hashes, matching what FIFO eviction
// would have kept.
func restoreDedupRing(capacity int, window []uint64) *dedupRing {
	if len(window) == 0 {
		return nil
	}
	r := newDedupRing(capacity)
	for _, h := range window {
		r.Add(h)
	}
	return r
}
