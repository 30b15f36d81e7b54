// Package registry models TLD registries: the registration lifecycle of
// domain names and the daily zone snapshots that seed the measurement
// pipeline (the paper uses daily .ru/.рф zone files as the inventory of
// names to measure). A registration's creation day is what the paper
// reads from Cisco's Whois Domain API, to separate newly registered
// domains from relocated ones in the §3.4 provider case studies.
package registry

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"whereru/internal/dns"
	"whereru/internal/simtime"
)

// Domain is one registration record.
type Domain struct {
	// Name is canonical ("example.ru.").
	Name string
	// Created is the registration date.
	Created simtime.Day
	// Removed is the deletion date, or 0 while the registration is live.
	// (Day 0 is 1970-01-01, decades before any simulated registration.)
	Removed simtime.Day
}

// Group is the table of every registration its zones hold (the paper
// measures .ru and .рф together), one row per domain number, immutable
// once built and so read without locks. A name is a substring of one string that holds every
// name, and an open-addressed index maps a name back to its number.
type Group struct {
	names string
	rows  []row    // one per domain number, plus a sentinel ending the last name
	slots []uint32 // the name index: domain number + 1, 0 = empty
	order []uint32 // every domain number, sorted by name
}

type row struct {
	name             uint32 // offset into names; the name ends where the next row's begins
	created, removed simtime.Day
}

var indexSeed = maphash.MakeSeed()

// find walks name's linear probe sequence through slots: the domain
// number holding name, or the empty slot where it would go.
func find(slots []uint32, rows []row, names, name string) (slot, d int, ok bool) {
	s := int((maphash.String(indexSeed, name) >> 32) * uint64(len(slots)) >> 32)
	for ; ; s++ {
		if s == len(slots) {
			s = 0
		}
		v := slots[s]
		if v == 0 {
			return s, 0, false
		}
		if r := v - 1; names[rows[r].name:rows[r+1].name] == name {
			return s, int(r), true
		}
	}
}

// Len returns the number of registrations.
func (g *Group) Len() int { return len(g.rows) - 1 }

// Name returns domain d's canonical name.
func (g *Group) Name(d int) string { return g.names[g.rows[d].name:g.rows[d+1].name] }

// Lookup returns the domain number of a canonical name.
func (g *Group) Lookup(name string) (int, bool) {
	_, d, ok := find(g.slots, g.rows, g.names, name)
	return d, ok
}

// ActiveOn reports whether domain d is registered on day.
func (g *Group) ActiveOn(d int, day simtime.Day) bool {
	r := &g.rows[d]
	return r.created <= day && (r.removed == 0 || day < r.removed)
}

// Record returns domain d's registration record.
func (g *Group) Record(d int) Domain {
	return Domain{Name: g.Name(d), Created: g.rows[d].created, Removed: g.rows[d].removed}
}

// Created returns the registration day of name, in any case, with or
// without the trailing dot.
func (g *Group) Created(name string) (simtime.Day, bool) {
	d, ok := g.Lookup(dns.Canonical(name))
	if !ok {
		return 0, false
	}
	return g.rows[d].created, true
}

// ZoneSnapshot returns the names active on day, every zone's in one list
// sorted by name (strings.Compare): the daily zone file that seeds a
// measurement sweep, in the order a journal segment lists the sweep.
func (g *Group) ZoneSnapshot(day simtime.Day) []string {
	out := make([]string, 0, g.Count(day))
	for _, d := range g.order {
		if g.ActiveOn(int(d), day) {
			out = append(out, g.Name(int(d)))
		}
	}
	return out
}

// Count returns the number of registrations active on day.
func (g *Group) Count(day simtime.Day) int {
	n := 0
	for d := range g.Len() {
		if g.ActiveOn(d, day) {
			n++
		}
	}
	return n
}

// Builder assembles a Group, one registration per domain number.
type Builder struct {
	g     Group
	names strings.Builder
	zones []string
}

// NewBuilder starts a group for zones, with room for n registrations.
func NewBuilder(n int, zones ...string) *Builder {
	b := &Builder{g: Group{rows: make([]row, 1, n+1), slots: make([]uint32, n+n/2+1)}}
	for _, z := range zones {
		b.zones = append(b.zones, dns.Canonical(z))
	}
	return b
}

// Add registers name, directly below one of the zones, from created until
// removed (0 = never) as the next domain number.
func (b *Builder) Add(name string, created, removed simtime.Day) error {
	name = dns.Canonical(name)
	g := &b.g
	if i := strings.IndexByte(name, '.'); i <= 0 || !slices.Contains(b.zones, name[i+1:]) {
		return fmt.Errorf("registry: %s is not directly below one of %v", name, b.zones)
	}
	if 3*len(g.rows) > 2*len(g.slots) { // the index stays at most 2/3 full
		return fmt.Errorf("registry: %s: room for %d registrations only", name, g.Len())
	}
	s, _, dup := find(g.slots, g.rows, b.names.String(), name)
	if dup {
		return fmt.Errorf("registry: %s already registered", name)
	}
	d := g.Len()
	g.slots[s] = uint32(d + 1)
	b.names.WriteString(name)
	g.rows[d].created, g.rows[d].removed = created, removed
	g.rows = append(g.rows, row{name: uint32(b.names.Len())})
	return nil
}

// Build freezes the group.
func (b *Builder) Build() *Group {
	g := new(Group) // a copy: &b.g would keep the builder's name buffer alive
	*g = b.g
	g.names = strings.Clone(b.names.String())
	g.order = make([]uint32, g.Len())
	for d := range g.order {
		g.order[d] = uint32(d)
	}
	slices.SortFunc(g.order, func(x, y uint32) int { return strings.Compare(g.Name(int(x)), g.Name(int(y))) })
	return g
}
