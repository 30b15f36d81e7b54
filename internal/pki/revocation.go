package pki

import (
	"sync"

	"whereru/internal/simtime"
)

// RevocationReason is an RFC 5280 CRLReason subset.
type RevocationReason int

// Reasons used in the simulation.
const (
	ReasonUnspecified RevocationReason = 0
	// ReasonCessation models CAs withdrawing service (sanctions
	// compliance falls here in the simulation).
	ReasonCessation RevocationReason = 5
	// ReasonSuperseded models the domain itself replacing the
	// certificate while "testing different CAs" (§4.2).
	ReasonSuperseded RevocationReason = 4
)

// String names the reason.
func (r RevocationReason) String() string {
	switch r {
	case ReasonCessation:
		return "cessationOfOperation"
	case ReasonSuperseded:
		return "superseded"
	default:
		return "unspecified"
	}
}

// Revocation is one revoked certificate entry.
type Revocation struct {
	Serial uint64
	Day    simtime.Day
	Reason RevocationReason
}

// OCSPStatus is the certificate status an OCSP responder reports.
type OCSPStatus int

// OCSP statuses.
const (
	OCSPGood OCSPStatus = iota
	OCSPRevoked
	OCSPUnknown
)

// String names the status.
func (s OCSPStatus) String() string {
	switch s {
	case OCSPGood:
		return "good"
	case OCSPRevoked:
		return "revoked"
	default:
		return "unknown"
	}
}

// CRL is one CA's certificate revocation list, obtained from Store.CRL.
// It doubles as the OCSP responder state: Status answers point-in-time
// queries the way the paper's Censys CRL/OCSP index does, reading which
// serials the CA has issued ("good", not "unknown") off its store.
type CRL struct {
	// IssuerOrg is the CA this list belongs to.
	IssuerOrg string

	store   *Store
	mu      sync.RWMutex
	revoked map[uint64]Revocation
}

// Revoke adds a serial to the list. Revoking twice keeps the earliest date.
func (c *CRL) Revoke(serial uint64, day simtime.Day, reason RevocationReason) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.revoked[serial]; ok && prev.Day <= day {
		return
	}
	c.revoked[serial] = Revocation{Serial: serial, Day: day, Reason: reason}
}

// Status answers an OCSP query for serial as of day.
func (c *CRL) Status(serial uint64, day simtime.Day) OCSPStatus {
	c.mu.RLock()
	rev, ok := c.revoked[serial]
	c.mu.RUnlock()
	if ok && rev.Day <= day {
		return OCSPRevoked
	}
	if cert, ok := c.store.Get(serial); ok && cert.IssuerOrg == c.IssuerOrg {
		return OCSPGood
	}
	return OCSPUnknown
}

// Len returns the total number of revocations on the list.
func (c *CRL) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.revoked)
}
