//go:build !race

package openintel

const raceEnabled = false
