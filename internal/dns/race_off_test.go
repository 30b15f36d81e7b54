//go:build !race

package dns

const raceEnabled = false
