package obs

import "sync/atomic"

// Ring is a bounded lock-free multi-producer single-consumer queue
// (the Vyukov bounded-queue design: each cell carries a sequence number
// that encodes whether it is free, published, or consumed). Publish
// never blocks: when the ring is full the item is dropped and counted,
// so a slow or absent consumer never stalls a producer.
//
// Pop may be called from one goroutine at a time; Publish from any
// number concurrently.
type Ring[T any] struct {
	mask  uint64
	cells []ringCell[T]
	tail  atomic.Uint64 // next position to publish
	head  atomic.Uint64 // next position to consume (single consumer advances it)
	drops atomic.Int64
}

type ringCell[T any] struct {
	seq atomic.Uint64
	val T
}

// NewRing returns a ring holding up to capacity items, rounded up to a
// power of two (minimum 8).
func NewRing[T any](capacity int) *Ring[T] {
	n := 8
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), cells: make([]ringCell[T], n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Publish enqueues v, returning false (and counting a drop) when the
// ring is full. It never blocks.
func (r *Ring[T]) Publish(v T) bool {
	pos := r.tail.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				c.val = v
				c.seq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
		case d < 0:
			// The consumer has not freed this cell yet: full.
			r.drops.Add(1)
			return false
		default:
			pos = r.tail.Load()
		}
	}
}

// Pop dequeues the oldest item. Single consumer only.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	head := r.head.Load()
	c := &r.cells[head&r.mask]
	if int64(c.seq.Load())-int64(head+1) < 0 {
		return zero, false
	}
	v := c.val
	c.val = zero
	c.seq.Store(head + uint64(len(r.cells)))
	r.head.Store(head + 1)
	return v, true
}

// Empty reports whether no fully published item is waiting. Safe to
// call from any goroutine.
func (r *Ring[T]) Empty() bool {
	head := r.head.Load()
	c := &r.cells[head&r.mask]
	return int64(c.seq.Load())-int64(head+1) < 0
}

// Drops returns how many publishes were rejected on a full ring.
func (r *Ring[T]) Drops() int64 { return r.drops.Load() }
