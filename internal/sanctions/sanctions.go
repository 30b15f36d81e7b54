// Package sanctions models the US OFAC SDN and UK sanctions lists as they
// bear on domain names. The paper labels 107 unique .ru/.рф domains as
// sanctioned from their appearance on either list (§2); this package holds
// that list model, listing dates, and the matcher used to classify
// certificates and measurements.
package sanctions

import (
	"sort"
	"strings"
	"sync"

	"whereru/internal/dns"
	"whereru/internal/simtime"
)

// Authority identifies which sanctions regime listed an entity.
type Authority int

// The two authorities the paper draws from.
const (
	USOFAC Authority = 1 << iota
	UKSanctions
)

// String names the authority set.
func (a Authority) String() string {
	var parts []string
	if a&USOFAC != 0 {
		parts = append(parts, "US-OFAC-SDN")
	}
	if a&UKSanctions != 0 {
		parts = append(parts, "UK")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Entry is one sanctioned domain.
type Entry struct {
	// Domain is the canonical sanctioned name.
	Domain string
	// Entity is the sanctioned organization behind the domain.
	Entity string
	// Listed is when the domain first appeared on a list.
	Listed simtime.Day
	// Authorities is the set of regimes listing it.
	Authorities Authority
}

// List is a set of sanctioned domains, each with its listing date.
type List struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewList returns an empty sanctions list.
func NewList() *List { return &List{entries: make(map[string]Entry)} }

// Add inserts or merges an entry. Adding the same domain under another
// authority unions the authorities and keeps the earliest listing date.
func (l *List) Add(e Entry) {
	e.Domain = dns.Canonical(e.Domain)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.entries[e.Domain]; ok {
		if prev.Listed < e.Listed {
			e.Listed = prev.Listed
		}
		e.Authorities |= prev.Authorities
		if e.Entity == "" {
			e.Entity = prev.Entity
		}
	}
	l.entries[e.Domain] = e
}

// Len returns the number of unique sanctioned domains.
func (l *List) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// ContainsEver reports whether name or a parent of name is sanctioned,
// whatever the listing date (subdomains of a sanctioned domain count, as
// certificates for www.<sanctioned> do): the paper's §4 certificate
// analysis labels a domain sanctioned regardless of when the certificate
// was issued relative to the listing.
func (l *List) ContainsEver(name string) bool {
	_, ok := l.Match(name)
	return ok
}

// Match finds the entry covering name (exact or ancestor match).
func (l *List) Match(name string) (Entry, bool) {
	name = dns.Canonical(name)
	l.mu.RLock()
	defer l.mu.RUnlock()
	for n := name; n != "."; n = dns.Parent(n) {
		if e, ok := l.entries[n]; ok {
			return e, true
		}
	}
	return Entry{}, false
}

// AllDomains returns every sanctioned domain regardless of date, sorted.
func (l *List) AllDomains() []string {
	l.mu.RLock()
	out := make([]string, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e.Domain)
	}
	l.mu.RUnlock()
	sort.Strings(out)
	return out
}
