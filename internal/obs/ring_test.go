package obs

import (
	"net/http"
	"sync"
	"testing"
)

func newTestMux(t *testing.T, r *Registry) *http.ServeMux {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, r)
	return mux
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		if !r.Publish(i) {
			t.Fatalf("publish %d rejected", i)
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop on empty ring should fail")
	}
	if !r.Empty() {
		t.Error("ring should report empty")
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 8; i++ {
		if !r.Publish(i) {
			t.Fatalf("publish %d rejected before full", i)
		}
	}
	if r.Publish(99) {
		t.Error("publish on full ring should be rejected")
	}
	if r.Drops() != 1 {
		t.Errorf("drops = %d, want 1", r.Drops())
	}
	// Free one slot; publishing works again.
	if _, ok := r.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if !r.Publish(100) {
		t.Error("publish after pop should succeed")
	}
}

func TestRingConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	r := NewRing[int](1 << 14) // big enough: no drops expected
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !r.Publish(p*perProducer + i) {
					t.Errorf("unexpected drop from producer %d", p)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[int]bool, producers*perProducer)
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perProducer {
		t.Errorf("consumed %d items, want %d", len(seen), producers*perProducer)
	}
	if r.Drops() != 0 {
		t.Errorf("drops = %d, want 0", r.Drops())
	}
}
