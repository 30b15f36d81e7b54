package pki

import (
	"fmt"
	"sync"

	"whereru/internal/simtime"
)

// Well-known issuer organizations — the top-10 CAs for Russian domains in
// the paper's Figure 8, plus the state-run Russian CA of §4.3.
const (
	LetsEncrypt   = "Let's Encrypt"
	DigiCert      = "DigiCert"
	CPanel        = "cPanel"
	GlobalSign    = "GlobalSign"
	Sectigo       = "Sectigo"
	ZeroSSL       = "ZeroSSL"
	GoGetSSL      = "GoGetSSL"
	GoogleTrust   = "Google"
	AmazonTrust   = "Amazon"
	CloudflareInc = "Cloudflare"
	// RussianTrustedRootCA is the CA stood up by Russia's Ministry of
	// Digital Development in March 2022. It does not log to CT and is not
	// trusted by major browsers.
	RussianTrustedRootCA = "Russian Trusted Root CA"
)

// CA issues certificates under one organization name.
type CA struct {
	// Org is the Issuer DN organization.
	Org string
	// IssuingCNs are the intermediate common names the CA issues under;
	// issuance round-robins across them (DigiCert → RapidSSL, GeoTrust…).
	IssuingCNs []string
	// RootOrg is the root of the chain the CA builds (usually Org).
	RootOrg string
	// LogsToCT controls whether issued certificates appear in CT logs.
	LogsToCT bool
	// BrowserTrusted mirrors whether major browser roots include this CA.
	BrowserTrusted bool
	// DefaultValidityDays is the lifetime of issued certificates
	// (90 for ACME-style CAs, 365 for commercial ones).
	DefaultValidityDays int

	mu      sync.Mutex
	counter uint64
	// id distinguishes serial spaces between CAs.
	id      uint64
	issuers []*Issuer // parallel to IssuingCNs; see issuer
}

// NewCA builds a CA. id must be unique per CA within a world; it is folded
// into the high bits of serial numbers.
func NewCA(id uint64, org string, cns []string, validityDays int) *CA {
	if len(cns) == 0 {
		cns = []string{org + " CA"}
	}
	return &CA{
		Org:                 org,
		IssuingCNs:          cns,
		RootOrg:             org,
		LogsToCT:            true,
		BrowserTrusted:      true,
		DefaultValidityDays: validityDays,
		id:                  id,
	}
}

// Issue creates a certificate for the given names effective on day.
// names[0] becomes the CN; all names appear as SANs, per modern practice.
func (ca *CA) Issue(day simtime.Day, names ...string) (*Certificate, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pki: %s: issue with no names", ca.Org)
	}
	norm := make([]string, len(names))
	for i, n := range names {
		norm[i] = NormalizeName(n)
	}
	ca.mu.Lock()
	ca.counter++
	serial := ca.id<<40 | ca.counter
	issuer := ca.issuer(int(ca.counter) % len(ca.IssuingCNs))
	ca.mu.Unlock()
	validity := ca.DefaultValidityDays
	if validity <= 0 {
		validity = 90
	}
	return &Certificate{
		Serial:    serial,
		Issuer:    issuer,
		SubjectCN: norm[0],
		SANs:      norm,
		NotBefore: day,
		NotAfter:  day.Add(validity),
	}, nil
}

// issuer returns the record certificates issued under IssuingCNs[i] share,
// made on first use and again whenever the CA's exported fields no longer
// say what it says: editing a CA after NewCA (as StandardCatalog does)
// holds for what it issues next. The caller holds ca.mu.
func (ca *CA) issuer(i int) *Issuer {
	if len(ca.issuers) != len(ca.IssuingCNs) {
		ca.issuers = make([]*Issuer, len(ca.IssuingCNs))
	}
	want := Issuer{IssuerOrg: ca.Org, IssuerCN: ca.IssuingCNs[i], RootOrg: ca.RootOrg, Logged: ca.LogsToCT}
	if have := ca.issuers[i]; have == nil || *have != want {
		fresh := want // declared here so that only a new record is a heap allocation
		ca.issuers[i] = &fresh
	}
	return ca.issuers[i]
}

// StandardCatalog builds the paper's top-10 CA set plus the Russian
// Trusted Root CA, with issuing CNs and lifetimes that mirror each CA's
// real-world behavior.
func StandardCatalog() map[string]*CA {
	cas := map[string]*CA{}
	add := func(id uint64, org string, cns []string, validity int) {
		cas[org] = NewCA(id, org, cns, validity)
	}
	add(1, LetsEncrypt, []string{"R3", "E1"}, 90)
	add(2, DigiCert, []string{"DigiCert TLS RSA SHA256 2020 CA1", "RapidSSL TLS DV RSA Mixed SHA256 2020 CA-1", "GeoTrust TLS DV RSA Mixed SHA256 2020 CA-1"}, 365)
	add(3, CPanel, []string{"cPanel, Inc. Certification Authority"}, 90)
	add(4, GlobalSign, []string{"GlobalSign GCC R3 DV TLS CA 2020", "AlphaSSL CA - SHA256 - G2"}, 365)
	add(5, Sectigo, []string{"Sectigo RSA Domain Validation Secure Server CA"}, 365)
	add(6, ZeroSSL, []string{"ZeroSSL RSA Domain Secure Site CA"}, 90)
	add(7, GoGetSSL, []string{"GoGetSSL RSA DV CA"}, 365)
	add(8, GoogleTrust, []string{"GTS CA 1P5", "GTS CA 1D4"}, 90)
	add(9, AmazonTrust, []string{"Amazon RSA 2048 M01"}, 395)
	add(10, CloudflareInc, []string{"Cloudflare Inc ECC CA-3"}, 365)

	rtr := NewCA(11, RussianTrustedRootCA, []string{"Russian Trusted Sub CA"}, 365)
	rtr.LogsToCT = false
	rtr.BrowserTrusted = false
	cas[RussianTrustedRootCA] = rtr
	return cas
}
