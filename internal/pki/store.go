package pki

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"whereru/internal/simtime"
)

// Store is the simulation's ground-truth certificate corpus: every
// certificate ever issued, with per-CA revocation lists. The CT log and
// the IP-wide scanner each observe (different) subsets of the store, the
// way Censys's CT index and CUIDS relate to reality.
//
// The store holds each certificate once and two pointers to it: its place
// in issuance order, and its place in the serial index. A serial's high
// bits name its CA and a CA counts upwards, so the index is one run per
// CA, ascending by serial, that an Add nearly always extends at its end;
// a lookup is a binary search of one run.
type Store struct {
	mu      sync.RWMutex
	ordered []*Certificate            // in issuance order
	runs    map[uint64][]*Certificate // serial>>40 -> ascending by serial
	crls    map[string]*CRL
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{runs: make(map[uint64][]*Certificate), crls: make(map[string]*CRL)}
}

// find returns the run serial belongs to and its position there: where it
// is if found, where it would go if not. The caller holds the lock.
func (s *Store) find(serial uint64) (run []*Certificate, i int, found bool) {
	run = s.runs[serial>>40]
	n := len(run)
	if n == 0 || run[n-1].Serial < serial {
		return run, n, false
	}
	i = sort.Search(n, func(k int) bool { return run[k].Serial >= serial })
	return run, i, run[i].Serial == serial
}

// Add records an issued certificate. Its serial must be new to the store.
func (s *Store) Add(c *Certificate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, i, dup := s.find(c.Serial)
	if dup {
		return fmt.Errorf("pki: duplicate serial %d", c.Serial)
	}
	s.runs[c.Serial>>40] = slices.Insert(run, i, c)
	s.ordered = append(s.ordered, c)
	return nil
}

// Get returns the certificate with the given serial.
func (s *Store) Get(serial uint64) (*Certificate, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	run, i, ok := s.find(serial)
	if !ok {
		return nil, false
	}
	return run[i], true
}

// Len returns the number of stored certificates.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ordered)
}

// Revoke marks a serial revoked on its issuer's CRL.
func (s *Store) Revoke(serial uint64, day simtime.Day, reason RevocationReason) error {
	c, ok := s.Get(serial)
	if !ok {
		return fmt.Errorf("pki: revoke of unknown serial %d", serial)
	}
	s.CRL(c.IssuerOrg).Revoke(serial, day, reason)
	return nil
}

// CRL returns (creating if needed) the revocation list for a CA.
func (s *Store) CRL(issuerOrg string) *CRL {
	s.mu.Lock()
	defer s.mu.Unlock()
	crl, ok := s.crls[issuerOrg]
	if !ok {
		crl = &CRL{IssuerOrg: issuerOrg, store: s, revoked: make(map[uint64]Revocation)}
		s.crls[issuerOrg] = crl
	}
	return crl
}

// ByIssuer returns the certificates issued by org, in issuance order.
func (s *Store) ByIssuer(org string) []*Certificate {
	return s.Select(func(c *Certificate) bool { return c.IssuerOrg == org })
}

// All returns every certificate in issuance order.
func (s *Store) All() []*Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Certificate(nil), s.ordered...)
}

// Select returns certificates matching the predicate, in issuance order.
func (s *Store) Select(pred func(*Certificate) bool) []*Certificate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Certificate
	for _, c := range s.ordered {
		if pred(c) {
			out = append(out, c)
		}
	}
	return out
}

// Status answers an OCSP query against the issuing CA's state.
func (s *Store) Status(serial uint64, day simtime.Day) OCSPStatus {
	c, ok := s.Get(serial)
	if !ok {
		return OCSPUnknown
	}
	return s.CRL(c.IssuerOrg).Status(serial, day)
}
