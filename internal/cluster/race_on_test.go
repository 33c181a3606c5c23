//go:build race

package cluster

// The race detector adds bookkeeping allocations and changes object
// sizes, so the allocation and residency bounds skip under -race.
const raceEnabled = true
