// Package scan is the reproduction's Censys Universal Internet Data Set
// (CUIDS) analog: a daily Internet-wide "TLS scan" over the simulated
// address plan that records which certificate chains responding hosts
// serve. Scanning observes certificates in active use — a subset of
// issued certificates, and the only place certificates from the
// non-CT-logging Russian Trusted Root CA can be seen (§4.3).
package scan

import (
	"net/netip"
	"sort"
	"sync"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// ChainProvider reports the certificate chain (leaf first) an endpoint
// serves on a given day, or nil when the endpoint serves no TLS that day.
type ChainProvider func(day simtime.Day) []*pki.Certificate

// Scanner holds the registry of TLS endpoints in the simulated Internet.
type Scanner struct {
	mu        sync.RWMutex
	endpoints map[netip.Addr]ChainProvider
}

// NewScanner returns an empty endpoint registry.
func NewScanner() *Scanner {
	return &Scanner{endpoints: make(map[netip.Addr]ChainProvider)}
}

// Register binds a chain provider to an address (replacing any previous).
func (s *Scanner) Register(addr netip.Addr, p ChainProvider) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endpoints[addr] = p
}

// NumEndpoints returns the number of registered endpoints.
func (s *Scanner) NumEndpoints() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.endpoints)
}

// Observation is one responding host in one day's scan.
type Observation struct {
	Addr  netip.Addr
	Day   simtime.Day
	Chain []*pki.Certificate // leaf first
}

// Sweep scans every endpoint on the given day and returns observations
// from hosts that presented a certificate, sorted by address.
func (s *Scanner) Sweep(day simtime.Day) []Observation {
	s.mu.RLock()
	addrs := make([]netip.Addr, 0, len(s.endpoints))
	for a := range s.endpoints {
		addrs = append(addrs, a)
	}
	providers := make([]ChainProvider, len(addrs))
	for i, a := range addrs {
		providers[i] = s.endpoints[a]
	}
	s.mu.RUnlock()

	var out []Observation
	for i, a := range addrs {
		if chain := providers[i](day); len(chain) > 0 {
			out = append(out, Observation{Addr: a, Day: day, Chain: chain})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// Archive accumulates scan observations over time and answers the
// §4.3-style questions ("which unique certificates chaining to CA X were
// ever seen serving?").
type Archive struct {
	mu   sync.RWMutex
	days map[simtime.Day][]Observation
	// uniq indexes every certificate ever observed, by serial.
	uniq map[uint64]*pki.Certificate
	// firstSeen records the first scan day each serial appeared.
	firstSeen map[uint64]simtime.Day
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{
		days:      make(map[simtime.Day][]Observation),
		uniq:      make(map[uint64]*pki.Certificate),
		firstSeen: make(map[uint64]simtime.Day),
	}
}

// Record stores one day's observations.
func (a *Archive) Record(day simtime.Day, obs []Observation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.days[day] = obs
	for _, o := range obs {
		for _, c := range o.Chain {
			if _, ok := a.uniq[c.Serial]; !ok {
				a.uniq[c.Serial] = c
				a.firstSeen[c.Serial] = day
			}
		}
	}
}

// Days returns the recorded scan days, sorted.
func (a *Archive) Days() []simtime.Day {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]simtime.Day, 0, len(a.days))
	for d := range a.days {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UniqueCerts returns every distinct certificate ever observed that
// satisfies pred (nil = all), sorted by serial.
func (a *Archive) UniqueCerts(pred func(*pki.Certificate) bool) []*pki.Certificate {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []*pki.Certificate
	for _, c := range a.uniq {
		if pred == nil || pred(c) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Serial < out[j].Serial })
	return out
}
