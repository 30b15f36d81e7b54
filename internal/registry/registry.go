// Package registry models TLD registries: the registration lifecycle of
// domain names and the daily zone snapshots that seed the measurement
// pipeline (the paper uses daily .ru/.рф zone files as the inventory of
// names to measure), plus a whois view exposing creation dates (the
// paper's Cisco Whois Domain API analog, used to separate newly registered
// domains from relocated ones in the §3.4 provider case studies).
package registry

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"whereru/internal/dns"
	"whereru/internal/simtime"
)

// Domain is one registration record, as whois reports it.
type Domain struct {
	// Name is canonical ("example.ru.").
	Name string
	// Created is the registration date.
	Created simtime.Day
	// Removed is the deletion date, or 0 while the registration is live.
	// (Day 0 is 1970-01-01, decades before any simulated registration.)
	Removed simtime.Day
	// Registrant identifies the holder (synthetic org handle).
	Registrant string
	// Registrar is the sponsoring registrar.
	Registrar string
}

// Group is the table of every registration its registries hold (the
// paper measures .ru and .рф together), one row per domain number,
// immutable once built and so read without locks; each Registry is one
// zone's view of it. A name is a substring of one string that holds every
// name, and an open-addressed index maps a name back to its number.
// Registrant and registrar are not stored: the holder function the group
// was built with derives them from the number when whois asks.
type Group struct {
	names      string
	rows       []row    // one per domain number, plus a sentinel ending the last name
	slots      []uint32 // the name index: domain number + 1, 0 = empty
	holder     func(d int) (registrant, registrar string)
	registries []*Registry
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

// Record returns domain d's whois record.
func (g *Group) Record(d int) Domain {
	rec := Domain{Name: g.Name(d), Created: g.rows[d].created, Removed: g.rows[d].removed}
	if g.holder != nil {
		rec.Registrant, rec.Registrar = g.holder(d)
	}
	return rec
}

// Whois returns the registration record for name.
func (g *Group) Whois(name string) (Domain, bool) {
	d, ok := g.Lookup(dns.Canonical(name))
	if !ok {
		return Domain{}, false
	}
	return g.Record(d), true
}

// Created returns the registration day of name, formatting nothing.
func (g *Group) Created(name string) (simtime.Day, bool) {
	d, ok := g.Lookup(dns.Canonical(name))
	if !ok {
		return 0, false
	}
	return g.rows[d].created, true
}

// Registries returns the member registries, in zone order.
func (g *Group) Registries() []*Registry { return g.registries }

// ZoneSnapshot concatenates the members' snapshots (sorted within each
// TLD, TLDs in group order — matching how zone files arrive per TLD).
func (g *Group) ZoneSnapshot(day simtime.Day) []string {
	out := make([]string, 0, g.Count(day))
	for _, r := range g.registries {
		out = r.appendZone(out, day)
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

// Registry is one TLD's view of its group.
type Registry struct {
	// TLD is the canonical zone ("ru." or "xn--p1ai.").
	TLD string

	g     *Group
	order []uint32 // the zone's domain numbers, sorted by name
}

// ZoneSnapshot returns the sorted names active on day — the daily zone
// file used to seed a measurement sweep.
func (r *Registry) ZoneSnapshot(day simtime.Day) []string { return r.appendZone(nil, day) }

func (r *Registry) appendZone(out []string, day simtime.Day) []string {
	for _, d := range r.order {
		if r.g.ActiveOn(int(d), day) {
			out = append(out, r.g.Name(int(d)))
		}
	}
	return out
}

// Builder assembles a Group, one registration per domain number.
type Builder struct {
	g     Group
	names strings.Builder
	zones []string
}

// NewBuilder starts a group of registries for zones, with room for n
// registrations.
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

// Build freezes the group. holder derives a registration's registrant and
// registrar from its domain number when whois asks (nil: none).
func (b *Builder) Build(holder func(d int) (registrant, registrar string)) *Group {
	g := new(Group) // a copy: &b.g would keep the builder's name buffer alive
	*g = b.g
	g.names, g.holder = strings.Clone(b.names.String()), holder
	// One order column, zone after zone (Add put every name in one).
	order := make([]uint32, 0, g.Len())
	for _, zone := range b.zones {
		lo := len(order)
		for d := range g.Len() {
			if dns.Parent(g.Name(d)) == zone {
				order = append(order, uint32(d))
			}
		}
		r := &Registry{TLD: zone, g: g, order: order[lo:len(order):len(order)]}
		slices.SortFunc(r.order, func(x, y uint32) int { return strings.Compare(g.Name(int(x)), g.Name(int(y))) })
		g.registries = append(g.registries, r)
	}
	return g
}
