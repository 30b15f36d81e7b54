//go:build race

package openintel

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts are not pinned.
const raceEnabled = true
