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
// The generator and its source are one object (every subscription of the
// engine holds an RNG of its own), and r draws from pcg through a pointer
// into the same object: an RNG is used only through the *RNG NewRNG or
// Split returned, never copied, or the copy would advance the original's
// state.
type RNG struct {
	pcg rand.PCG
	r   rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	g := new(RNG)
	g.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.pcg)
	return g
}

// Split derives an independent child generator. Children with distinct
// labels have uncorrelated streams, which lets subsystems draw randomness
// without perturbing each other's sequences.
func (g *RNG) Split(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix with a draw from the parent so different parents diverge.
	return NewRNG(h ^ g.r.Uint64())
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
