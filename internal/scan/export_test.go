package scan

import (
	"whereru/internal/simtime"
)

// FirstSeen returns the first scan day a serial was observed.
func (a *Archive) FirstSeen(serial uint64) (simtime.Day, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, ok := a.firstSeen[serial]
	return d, ok
}

// Observations returns the stored observations for one day.
func (a *Archive) Observations(day simtime.Day) []Observation {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.days[day]
}
