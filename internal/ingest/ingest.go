// Package ingest implements the engine's push ingestion tier: bounded
// multi-producer single-consumer ingress queues that carry trigger
// events POSTed by partner services to applet execution without waiting
// for a poll round-trip.
//
// Each Queue owns one consumer actor (started through the clock, so it
// is a well-formed actor under both the real clock and the
// discrete-event simulator). Producers — HTTP handler goroutines — call
// Offer, which never blocks: above the configured bound the item is
// rejected and counted, and the caller surfaces backpressure (HTTP 429)
// to the pushing service. The consumer drains whatever co-arrived, up
// to a batch cap, into a single deliver callback; that is the adaptive
// micro-batch — its size grows naturally with the arrival rate and
// collapses to one under light load.
package ingest

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Defaults applied by NewQueue when the caller passes zero.
const (
	// DefaultCapacity bounds the queue in pending items (for the
	// engine: push deliveries, one per trigger identity per POST).
	DefaultCapacity = 1024
	// DefaultBatch caps how many items one consumer wake hands to the
	// deliver callback.
	DefaultBatch = 256
)

// Queue is a bounded MPSC ingress queue with a dedicated consumer
// actor. The bound is exact: at no point do more than capacity items
// sit accepted but undelivered (items inside a running deliver callback
// still count against the bound, so sustained overload converts to
// rejects, never to memory growth).
type Queue[T any] struct {
	ring     *obs.Ring[T]
	clock    simtime.Clock
	deliver  func([]T)
	capacity int64
	maxBatch int

	depth    atomic.Int64 // accepted, not yet delivered
	accepted atomic.Int64
	rejected atomic.Int64
	batches  atomic.Int64

	parked atomic.Bool
	gate   atomic.Value // simtime.Gate armed while parked
	closed atomic.Bool
	done   simtime.Gate

	mu   sync.Mutex
	idle []simtime.Gate // Sync waiters, opened whenever the queue drains
}

// NewQueue creates the queue and starts its consumer actor on clock.
// capacity <= 0 selects DefaultCapacity, maxBatch <= 0 DefaultBatch.
// deliver runs on the consumer goroutine with 1..maxBatch items in
// Offer order; it may block on clock primitives (the consumer is an
// actor) but must not call back into the queue.
func NewQueue[T any](clock simtime.Clock, capacity, maxBatch int, deliver func([]T)) *Queue[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if maxBatch <= 0 {
		maxBatch = DefaultBatch
	}
	q := &Queue[T]{
		ring:     obs.NewRing[T](capacity),
		clock:    clock,
		deliver:  deliver,
		capacity: int64(capacity),
		maxBatch: maxBatch,
		done:     clock.NewGate(),
	}
	clock.Go(q.drain)
	return q
}

// Offer enqueues v, returning false when the queue is at its bound or
// closed. It never blocks; a false return is the backpressure signal
// the caller must surface (the engine answers 429).
func (q *Queue[T]) Offer(v T) bool {
	if q.closed.Load() {
		q.rejected.Add(1)
		return false
	}
	// The depth counter enforces the exact configured bound (the ring
	// itself is rounded up to a power of two, so it never fills first).
	// Claim the slot with a CAS rather than add-then-undo, so that
	// concurrent producers at the bound never push Depth past it.
	for {
		d := q.depth.Load()
		if d >= q.capacity {
			q.rejected.Add(1)
			return false
		}
		if q.depth.CompareAndSwap(d, d+1) {
			break
		}
	}
	if !q.ring.Publish(v) {
		q.depth.Add(-1)
		q.rejected.Add(1)
		return false
	}
	q.accepted.Add(1)
	if q.parked.Load() && q.parked.CompareAndSwap(true, false) {
		q.gate.Load().(simtime.Gate).Open()
	}
	return true
}

// Depth returns how many accepted items await delivery (including any
// batch currently inside the deliver callback). Never exceeds the
// configured capacity.
func (q *Queue[T]) Depth() int64 { return q.depth.Load() }

// Accepted returns how many Offers succeeded.
func (q *Queue[T]) Accepted() int64 { return q.accepted.Load() }

// Rejected returns how many Offers were refused at the bound (or after
// Close).
func (q *Queue[T]) Rejected() int64 { return q.rejected.Load() }

// Batches returns how many micro-batches the consumer has delivered.
func (q *Queue[T]) Batches() int64 { return q.batches.Load() }

func (q *Queue[T]) drain() {
	batch := make([]T, 0, q.maxBatch)
	for {
		for {
			batch = batch[:0]
			for len(batch) < q.maxBatch {
				v, ok := q.ring.Pop()
				if !ok {
					break
				}
				batch = append(batch, v)
			}
			if len(batch) == 0 {
				break
			}
			q.batches.Add(1)
			q.deliver(batch)
			// Free the bound only after delivery: the in-flight batch
			// counts against capacity, so a slow consumer sheds at the
			// front door instead of queueing behind itself.
			q.depth.Add(-int64(len(batch)))
		}
		q.mu.Lock()
		for _, g := range q.idle {
			g.Open()
		}
		q.idle = q.idle[:0]
		q.mu.Unlock()

		if q.closed.Load() {
			if q.ring.Empty() {
				q.done.Open()
				return
			}
			continue
		}
		g := q.clock.NewGate()
		q.gate.Store(g)
		q.parked.Store(true)
		// Re-check after publishing the parked flag: a producer that
		// offered before seeing the flag is visible here, so the
		// wake-up cannot be lost.
		if !q.ring.Empty() || q.closed.Load() {
			if q.parked.CompareAndSwap(true, false) {
				continue
			}
		}
		q.mu.Lock()
		for _, ig := range q.idle {
			ig.Open()
		}
		q.idle = q.idle[:0]
		q.mu.Unlock()
		g.Wait()
	}
}

// Sync blocks until every item offered before the call has been
// delivered. Items offered concurrently may or may not be included.
func (q *Queue[T]) Sync() {
	if q.closed.Load() {
		q.done.Wait()
		return
	}
	q.mu.Lock()
	if q.ring.Empty() && q.parked.Load() {
		q.mu.Unlock()
		return
	}
	g := q.clock.NewGate()
	q.idle = append(q.idle, g)
	q.mu.Unlock()
	if q.closed.Load() {
		q.done.Wait()
		return
	}
	if q.parked.CompareAndSwap(true, false) {
		q.gate.Load().(simtime.Gate).Open()
	}
	g.Wait()
}

// Close stops the queue: everything already accepted is delivered, then
// the consumer exits. Close blocks until that final drain completes and
// is idempotent; Offer after Close rejects.
func (q *Queue[T]) Close() {
	if q.closed.CompareAndSwap(false, true) {
		if q.parked.CompareAndSwap(true, false) {
			q.gate.Load().(simtime.Gate).Open()
		}
	}
	q.done.Wait()
}
