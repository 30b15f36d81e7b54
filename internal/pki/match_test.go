package pki_test

import (
	"testing"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/pki"
	"whereru/internal/world"
)

// matchesByNames is the definition MatchesRussianTLD replaced: the TLD of
// every name in the sorted, deduplicated Names() set.
func matchesByNames(c *pki.Certificate) bool {
	for _, n := range c.Names() {
		tld := dns.TLD(dns.Canonical(n))
		if tld == "ru" || tld == idn.RFTLDASCII {
			return true
		}
	}
	return false
}

// TestMatchesRussianTLDEqualsNamesDefinition holds the in-place test to
// the Names()-based one over every certificate in a world's CT log and
// over the shapes the log never holds (no names, uncanonical names).
func TestMatchesRussianTLDEqualsNamesDefinition(t *testing.T) {
	w, err := world.Build(world.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var certs []*pki.Certificate
	for _, e := range w.CTLog.Scan(0, w.CTLog.Size(), nil) {
		certs = append(certs, e.Cert)
	}
	certs = append(certs,
		&pki.Certificate{},
		&pki.Certificate{SANs: []string{""}},
		&pki.Certificate{SubjectCN: "EXAMPLE.RU"},
		&pki.Certificate{SubjectCN: "example.com.", SANs: []string{"", "shop.xn--p1ai"}},
		&pki.Certificate{SubjectCN: "ru.example.com.", SANs: []string{"example.ru.com."}},
	)
	var matched int
	for _, c := range certs {
		got, want := c.MatchesRussianTLD(), matchesByNames(c)
		if got != want {
			t.Fatalf("%s: MatchesRussianTLD %v, by Names() %v", c, got, want)
		}
		if got {
			matched++
		}
	}
	if matched == 0 || matched == len(certs) {
		t.Fatalf("%d of %d certificates match: the comparison needs both outcomes", matched, len(certs))
	}
}
