//go:build race

package stats

// The race detector adds bookkeeping allocations that skew
// testing.AllocsPerRun, so allocation-bound tests skip under -race.
const raceEnabled = true
