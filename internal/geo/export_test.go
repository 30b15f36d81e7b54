package geo

import (
	"whereru/internal/simtime"
)

// Snapshots returns the effective-from days of all snapshots, sorted.
func (db *DB) Snapshots() []simtime.Day {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]simtime.Day, len(db.snapshots))
	for i, s := range db.snapshots {
		out[i] = s.from
	}
	return out
}
