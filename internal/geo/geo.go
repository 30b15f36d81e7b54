// Package geo is the reproduction's IP2Location analog: a versioned
// IP-to-country database. The paper geolocates every resolved address with
// contemporaneous snapshots of a commercial database; here snapshots are
// built from the simulated address plan (plus explicit overrides for
// cases like anycast space) and queried per-date, so "where was this IP on
// 2022-03-03?" has a well-defined answer even as space moves.
package geo

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"whereru/internal/simtime"
)

// Countries used by the reproduction (ISO 3166-1 alpha-2).
const (
	RU = "RU" // Russian Federation
	US = "US"
	DE = "DE"
	NL = "NL"
	SE = "SE"
)

type rangeEntry struct {
	lo, hi  uint32
	country string
}

type snapshot struct {
	from    simtime.Day
	entries []rangeEntry // sorted by lo, disjoint
}

// DB is a versioned IP-to-country database.
type DB struct {
	mu        sync.RWMutex
	snapshots []snapshot // sorted by from
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Builder accumulates ranges for one dated snapshot.
type Builder struct {
	entries []rangeEntry
}

// NewBuilder returns an empty snapshot builder.
func NewBuilder() *Builder { return &Builder{} }

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Add maps an IPv4 prefix to a country. Later Adds override earlier ones
// where they overlap (more-specific entries should be added last).
func (b *Builder) Add(prefix netip.Prefix, country string) *Builder {
	if !prefix.Addr().Is4() {
		return b
	}
	lo := addrToU32(prefix.Masked().Addr())
	size := uint32(1) << (32 - prefix.Bits())
	b.entries = append(b.entries, rangeEntry{lo: lo, hi: lo + size - 1, country: country})
	return b
}

// build flattens possibly-overlapping entries into disjoint sorted ranges,
// with later entries winning.
func (b *Builder) build() []rangeEntry {
	if len(b.entries) == 0 {
		return nil
	}
	// Collect cut points.
	type boundary struct{ v uint32 }
	cuts := make(map[uint32]struct{})
	for _, e := range b.entries {
		cuts[e.lo] = struct{}{}
		if e.hi != ^uint32(0) {
			cuts[e.hi+1] = struct{}{}
		}
	}
	points := make([]uint32, 0, len(cuts))
	for v := range cuts {
		points = append(points, v)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	var out []rangeEntry
	for i, lo := range points {
		var hi uint32
		if i+1 < len(points) {
			hi = points[i+1] - 1
		} else {
			hi = ^uint32(0)
		}
		// Last matching entry wins.
		country := ""
		for j := len(b.entries) - 1; j >= 0; j-- {
			if b.entries[j].lo <= lo && hi <= b.entries[j].hi {
				country = b.entries[j].country
				break
			}
		}
		if country == "" {
			continue
		}
		// Merge with previous range when contiguous and same country.
		if n := len(out); n > 0 && out[n-1].country == country && out[n-1].hi+1 == lo {
			out[n-1].hi = hi
		} else {
			out = append(out, rangeEntry{lo: lo, hi: hi, country: country})
		}
	}
	return out
}

// Snapshot finalizes the builder into the DB as the view effective from
// the given day onward (until a later snapshot supersedes it).
func (db *DB) Snapshot(from simtime.Day, b *Builder) error {
	entries := b.build()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range db.snapshots {
		if s.from == from {
			return fmt.Errorf("geo: duplicate snapshot for %s", from)
		}
	}
	db.snapshots = append(db.snapshots, snapshot{from: from, entries: entries})
	sort.Slice(db.snapshots, func(i, j int) bool { return db.snapshots[i].from < db.snapshots[j].from })
	return nil
}

// Lookup returns the country for addr as of day. ok is false when the
// address is unmapped or the day precedes all snapshots.
func (db *DB) Lookup(day simtime.Day, addr netip.Addr) (string, bool) {
	if !addr.Is4() {
		return "", false
	}
	v := addrToU32(addr)
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Latest snapshot with from <= day.
	i := sort.Search(len(db.snapshots), func(i int) bool { return db.snapshots[i].from > day })
	if i == 0 {
		return "", false
	}
	entries := db.snapshots[i-1].entries
	j := sort.Search(len(entries), func(j int) bool { return entries[j].hi >= v })
	if j < len(entries) && entries[j].lo <= v && v <= entries[j].hi {
		return entries[j].country, true
	}
	return "", false
}

// Version returns the index of the snapshot effective on day (0-based in
// snapshot order), or -1 when the day precedes all snapshots. Lookup
// results are a pure function of (Version(day), addr), which lets callers
// memoize geolocation across the piecewise-constant version windows.
func (db *DB) Version(day simtime.Day) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i := sort.Search(len(db.snapshots), func(i int) bool { return db.snapshots[i].from > day })
	return i - 1
}
