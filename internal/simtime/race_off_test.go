//go:build !race

package simtime

const raceEnabled = false
