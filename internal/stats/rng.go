// Package stats provides the statistical machinery shared by the
// ecosystem generator, the latency models, and the analysis pipeline:
// seeded random sampling from the distributions the paper's data exhibits
// (heavy-tailed Zipf installs, lognormal polling gaps), empirical
// percentiles and CDFs, and numerical calibration helpers.
package stats

import "math/rand/v2"

// RNG is a deterministic random source. All randomness in this repository
// flows through explicitly seeded RNGs so that every experiment and every
// generated dataset is reproducible bit-for-bit.
//
// The generator and its source are one 32-byte value, and r draws from
// pcg through a pointer into that same value. So an RNG never moves once
// seeded: it is used through the *RNG that NewRNG or Split returned, or
// in place where it is embedded in a longer-lived struct (the engine's
// subscriptions each hold their gap stream so) and seeded there by
// SplitInto. A copy would draw from the original's source and advance
// its state; go vet's copylocks check reports one, of an RNG or of a
// struct that holds one, through the noCopy field.
type RNG struct {
	_   noCopy
	pcg rand.PCG
	r   rand.Rand
}

// noCopy makes go vet's copylocks check report copies of the struct
// holding it; it has no size and no behaviour.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	g := new(RNG)
	g.seed(seed)
	return g
}

// seed (re)starts g's stream from seed, in place.
func (g *RNG) seed(seed uint64) {
	g.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.pcg)
}

// Split derives an independent child generator. Children with distinct
// labels have uncorrelated streams, which lets subsystems draw randomness
// without perturbing each other's sequences.
func (g *RNG) Split(label string) *RNG {
	child := new(RNG)
	g.SplitInto(child, label)
	return child
}

// SplitInto seeds dst in place with the child stream Split(label) would
// return, drawing from g exactly as Split does; it allocates nothing.
// dst must not be copied afterwards.
func (g *RNG) SplitInto(dst *RNG, label string) {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix with a draw from the parent so different parents diverge.
	dst.seed(h ^ g.r.Uint64())
}

// Float64 returns a uniform draw from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform draw from [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential draw with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements via swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
