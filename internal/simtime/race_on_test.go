//go:build race

package simtime

// The race detector adds bookkeeping allocations (and makes sync.Pool
// drop items at random), so allocation-bound tests skip under -race.
const raceEnabled = true
