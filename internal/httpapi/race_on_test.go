//go:build race

package httpapi

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// exact allocation floors mean nothing under it.
const raceEnabled = true
