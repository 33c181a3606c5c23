//go:build race

package engine

// The race detector adds bookkeeping allocations that skew
// testing.AllocsPerRun, so allocation-bound tests skip under -race.
const raceEnabled = true
