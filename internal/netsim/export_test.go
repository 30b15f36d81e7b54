package netsim

import (
	"sort"

	"whereru/internal/simtime"
)

// Advance moves the clock forward n days and returns the new day.
func (c *Clock) Advance(n int) simtime.Day { return simtime.Day(c.day.Add(int32(n))) }

// Windows returns the windows recorded for key, sorted by start day with
// overlapping and adjacent windows merged — a normal form independent of
// registration order.
func (s *OutageSchedule) Windows(key string) []simtime.Window {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.normalized(key)
}

// Keys returns every registered key, sorted.
func (s *OutageSchedule) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.windows))
	for key := range s.windows {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}
