// Package pki models the WebPKI pieces of the paper's §4: certificates
// with subject names and validity windows, certificate authorities with
// per-period issuance behavior, and revocation state (CRL + OCSP). It is a
// behavioral model, not a cryptographic one: certificates carry the fields
// the paper's analysis reads (issuer organization, names, validity,
// chain root, CT-logging behavior), and integrity in the CT log is
// provided by real SHA-256 Merkle hashing over a deterministic
// serialization of these fields (internal/ct).
package pki

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/simtime"
)

// Issuer is who signed a certificate and how. A CA shares one record
// among all the certificates it issues under one intermediate, so a
// certificate pays a pointer for what it has in common with its
// siblings; the record is immutable once a certificate points at it.
type Issuer struct {
	// IssuerOrg is the Issuer DN organization — the field the paper
	// extracts to identify the responsible CA (§4.1).
	IssuerOrg string
	// IssuerCN is the issuing intermediate's common name (CAs issue under
	// multiple CNs, e.g. DigiCert's RapidSSL and GeoTrust).
	IssuerCN string
	// RootOrg is the organization of the chain's root. For cross-signed
	// or private chains this differs from IssuerOrg's house root.
	RootOrg string
	// Logged records whether the CA submits what it issues to CT — the
	// Russian Trusted Root CA does not log (§4.3).
	Logged bool
}

// Certificate is one issued leaf certificate.
type Certificate struct {
	// Serial is unique across the simulation (high bits identify the CA).
	Serial uint64
	// Issuer's fields read as the certificate's own (c.IssuerOrg); only
	// Names and MatchesRussianTLD work on a certificate without one.
	*Issuer
	// SubjectCN is the certificate's common name (canonical form).
	SubjectCN string
	// SANs are the subject alternative names (canonical form).
	SANs []string
	// NotBefore/NotAfter bound the validity window (inclusive days).
	NotBefore simtime.Day
	NotAfter  simtime.Day
}

// Names returns the deduplicated set of names the certificate secures
// (CN plus SANs), sorted.
func (c *Certificate) Names() []string {
	seen := make(map[string]struct{}, 1+len(c.SANs))
	if c.SubjectCN != "" {
		seen[c.SubjectCN] = struct{}{}
	}
	for _, n := range c.SANs {
		seen[n] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MatchesRussianTLD reports whether the CN or any SAN is under .ru or .рф
// — the paper's criterion for a certificate "matching" (footnote 6).
func (c *Certificate) MatchesRussianTLD() bool {
	// CN and SANs are tested where they lie: every CT scan asks this of
	// every certificate, and Names() builds a map and a sorted slice.
	if underRussianTLD(c.SubjectCN) {
		return true
	}
	for _, n := range c.SANs {
		if underRussianTLD(n) {
			return true
		}
	}
	return false
}

func underRussianTLD(name string) bool {
	tld := dns.TLD(dns.Canonical(name))
	return tld == "ru" || tld == idn.RFTLDASCII
}

// ValidOn reports whether day falls inside the validity window.
func (c *Certificate) ValidOn(day simtime.Day) bool {
	return c.NotBefore <= day && day <= c.NotAfter
}

// String renders a compact one-line description.
func (c *Certificate) String() string {
	return fmt.Sprintf("serial=%d cn=%s issuer=%q (%s) validity=%s..%s",
		c.Serial, c.SubjectCN, c.IssuerOrg, c.IssuerCN, c.NotBefore, c.NotAfter)
}

// Marshal serializes the certificate deterministically; this is the byte
// string hashed into CT log leaves. The format is length-prefixed fields,
// not ASN.1 — stable, compact and sufficient for Merkle integrity.
func (c *Certificate) Marshal() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint64(b, c.Serial)
	appendStr := func(s string) {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	appendStr(c.IssuerOrg)
	appendStr(c.IssuerCN)
	appendStr(c.RootOrg)
	appendStr(c.SubjectCN)
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.SANs)))
	for _, s := range c.SANs {
		appendStr(s)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(int32(c.NotBefore)))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(c.NotAfter)))
	if c.Logged {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

// Unmarshal parses the Marshal format.
func Unmarshal(b []byte) (*Certificate, error) {
	c := &Certificate{Issuer: &Issuer{}}
	if len(b) < 8 {
		return nil, fmt.Errorf("pki: short certificate blob")
	}
	c.Serial = binary.BigEndian.Uint64(b)
	b = b[8:]
	readStr := func() (string, error) {
		if len(b) < 2 {
			return "", fmt.Errorf("pki: truncated string")
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return "", fmt.Errorf("pki: truncated string body")
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	var err error
	if c.IssuerOrg, err = readStr(); err != nil {
		return nil, err
	}
	if c.IssuerCN, err = readStr(); err != nil {
		return nil, err
	}
	if c.RootOrg, err = readStr(); err != nil {
		return nil, err
	}
	if c.SubjectCN, err = readStr(); err != nil {
		return nil, err
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("pki: truncated SAN count")
	}
	nSAN := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < nSAN; i++ {
		s, err := readStr()
		if err != nil {
			return nil, err
		}
		c.SANs = append(c.SANs, s)
	}
	if len(b) < 9 {
		return nil, fmt.Errorf("pki: truncated validity")
	}
	c.NotBefore = simtime.Day(int32(binary.BigEndian.Uint32(b)))
	c.NotAfter = simtime.Day(int32(binary.BigEndian.Uint32(b[4:])))
	c.Logged = b[8] == 1
	return c, nil
}

// NormalizeName canonicalizes a certificate subject name (trailing dot,
// lowercase, IDN to ACE). Wildcard prefixes are preserved. A name already
// in that form — every name the world issues for — is returned as it is.
func NormalizeName(name string) string {
	if isCanonicalASCII(name) {
		return name
	}
	wildcard := false
	if strings.HasPrefix(name, "*.") {
		wildcard = true
		name = name[2:]
	}
	ascii, err := idn.ToASCII(dns.Canonical(name))
	if err != nil {
		ascii = dns.Canonical(name)
	}
	if wildcard {
		return "*." + ascii
	}
	return ascii
}

// isCanonicalASCII reports whether name is what lower-casing, the trailing
// dot and ACE encoding all leave alone, and not a wildcard.
func isCanonicalASCII(name string) bool {
	if len(name) < 2 || name[len(name)-1] != '.' || name[:2] == "*." {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 0x80 || ('A' <= c && c <= 'Z') {
			return false
		}
	}
	return true
}
