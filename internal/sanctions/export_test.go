package sanctions

import (
	"sort"

	"whereru/internal/simtime"
)

// Domains returns the sanctioned domains listed on or before day, sorted.
func (l *List) Domains(day simtime.Day) []string {
	l.mu.RLock()
	out := make([]string, 0, len(l.entries))
	for _, e := range l.entries {
		if e.Listed <= day {
			out = append(out, e.Domain)
		}
	}
	l.mu.RUnlock()
	sort.Strings(out)
	return out
}
