package pki

import (
	"math/rand"
	"strings"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/simtime"
)

// normalizeNameLong is NormalizeName as it was before it learnt to
// recognise a name that is already canonical: the differential's oracle.
func normalizeNameLong(name string) string {
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

var normalizeSeeds = []string{
	"", ".", "..", "*.", "*..", "*", "a", "a.", "ru.", "example.ru.", "www.example.ru.",
	"Example.RU", "EXAMPLE.ru.", "example.ru", "*.shop.ru", "*.shop.ru.", "*.Shop.RU.",
	"пример.рф", "пример.рф.", "xn--e1afmkfd.xn--p1ai.", "XN--E1AFMKFD.xn--p1ai.", "*.пример.рф.",
	"a..b.", ".a.", "a b.ru.", "under_score.ru.", "-dash-.ru.", "\x00.ru.", "\xff\xfe.ru.", "é.ru.",
	strings.Repeat("a", 64) + ".ru.", strings.Repeat("a.", 130), "*.*.ru.", "a.*.ru.", "**.ru.",
}

// TestNormalizeNameMatchesLongPath holds NormalizeName to the path every
// name used to take, over the seeds and over random strings drawn from an
// alphabet that makes every kind of input likely: canonical, upper-case,
// wildcard, IDN, malformed.
func TestNormalizeNameMatchesLongPath(t *testing.T) {
	for _, s := range normalizeSeeds {
		if got, want := NormalizeName(s), normalizeNameLong(s); got != want {
			t.Errorf("NormalizeName(%q) = %q, the long path gives %q", s, got, want)
		}
	}
	alphabet := []string{"a", "b", "z", "0", "-", "_", ".", ".", ".", "*", "*.", "A", "Z", "й", "ф", "é", " ", "\xff", "xn--", "ru."}
	rng := rand.New(rand.NewSource(5))
	canonical := 0
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for j, n := 0, rng.Intn(8); j < n; j++ {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		got, want := NormalizeName(s), normalizeNameLong(s)
		if got != want {
			t.Fatalf("NormalizeName(%q) = %q, the long path gives %q", s, got, want)
		}
		if isCanonicalASCII(s) {
			canonical++
		}
	}
	if canonical < 500 {
		t.Fatalf("only %d of 20000 random names took the short path", canonical)
	}
}

func FuzzNormalizeName(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := NormalizeName(s), normalizeNameLong(s); got != want {
			t.Fatalf("NormalizeName(%q) = %q, the long path gives %q", s, got, want)
		}
	})
}

// TestIssueCanonicalNamesCostsTheCertificate pins what issuing for names
// already in canonical form allocates: the certificate and its SAN list.
// No copy of a name, and no issuer record per certificate.
func TestIssueCanonicalNamesCostsTheCertificate(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { NormalizeName("www.example.ru.") }); got != 0 {
		t.Errorf("NormalizeName of a canonical name allocates %.1f times, want 0", got)
	}
	ca := NewCA(1, LetsEncrypt, []string{"R3", "E1"}, 90)
	var c *Certificate
	if got := testing.AllocsPerRun(100, func() { c, _ = ca.Issue(0, "example.ru.", "www.example.ru.") }); got != 2 {
		t.Errorf("Issue allocates %.1f times, want 2 (the certificate and its SANs)", got)
	}
	if c.SubjectCN != "example.ru." || len(c.SANs) != 2 || c.SANs[1] != "www.example.ru." {
		t.Fatalf("issued %+v", c)
	}
}

// TestIssuerRecordsShared pins the shared issuer record: one per issuing
// CN however many certificates, and a CA edited after NewCA — the way
// StandardCatalog makes the Russian CA — issues under what it says now,
// leaving what it issued before as it was.
func TestIssuerRecordsShared(t *testing.T) {
	ca := NewCA(2, DigiCert, []string{"CN-A", "CN-B"}, 365)
	records := map[*Issuer]int{}
	var first *Certificate
	for i := 0; i < 100; i++ {
		c, err := ca.Issue(0, "shared.ru.")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = c
		}
		records[c.Issuer]++
	}
	if len(records) != 2 {
		t.Fatalf("100 certificates under 2 CNs point at %d issuer records", len(records))
	}
	if !first.Logged || first.RootOrg != DigiCert {
		t.Fatalf("first certificate: %+v", *first.Issuer)
	}
	ca.LogsToCT = false
	ca.RootOrg = "Cross-signed Root"
	c, _ := ca.Issue(0, "edited.ru.")
	if c.Logged || c.RootOrg != "Cross-signed Root" || c.IssuerOrg != DigiCert {
		t.Errorf("certificate issued after the edit: %+v", *c.Issuer)
	}
	ca.IssuingCNs = []string{"CN-C"}
	if c, _ = ca.Issue(0, "edited.ru."); c.IssuerCN != "CN-C" || c.Logged {
		t.Errorf("certificate issued after the CNs were replaced: %+v", *c.Issuer)
	}
	if !first.Logged || first.RootOrg != DigiCert || first.IssuerCN == "CN-C" {
		t.Errorf("the edit reached a certificate issued before it: %+v", *first.Issuer)
	}
}

// TestStoreWithoutSerialMaps drives the store's serial index — one run per
// CA, found by the serial's high bits and searched — through what the
// serial→certificate and serial→known maps used to answer.
func TestStoreWithoutSerialMaps(t *testing.T) {
	s := NewStore()
	le := NewCA(1, LetsEncrypt, nil, 90)
	dc := NewCA(2, DigiCert, nil, 365)
	var issued []*Certificate
	for i := 0; i < 200; i++ {
		ca := le
		if i%3 == 0 {
			ca = dc
		}
		c, _ := ca.Issue(simtime.Day(i), "x.ru.")
		issued = append(issued, c)
	}
	// Hold back an early serial of each CA and one from the middle: they
	// arrive after later serials of the same CA.
	late := []int{100, 0, 1}
	for i, c := range issued {
		if i != 100 && i != 0 && i != 1 {
			if err := s.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	day := simtime.MustParse("2022-03-01")
	for _, i := range late {
		c := issued[i]
		if _, ok := s.Get(c.Serial); ok {
			t.Fatalf("serial %d found before it was added", c.Serial)
		}
		if got := s.Status(c.Serial, day); got != OCSPUnknown {
			t.Errorf("Status of a never-added serial = %v, want unknown", got)
		}
		if err := s.Revoke(c.Serial, day, ReasonCessation); err == nil {
			t.Error("revoked a serial the store does not hold")
		}
		if err := s.Add(c); err != nil {
			t.Fatalf("late Add of serial %d: %v", c.Serial, err)
		}
	}
	for _, c := range issued {
		if got, ok := s.Get(c.Serial); !ok || got != c {
			t.Fatalf("Get(%d) = %v, %v", c.Serial, got, ok)
		}
		if err := s.Add(c); err == nil {
			t.Fatalf("duplicate serial %d accepted", c.Serial)
		}
		if got := s.Status(c.Serial, day); got != OCSPGood {
			t.Fatalf("Status(%d) = %v, want good", c.Serial, got)
		}
	}
	if s.Len() != len(issued) {
		t.Fatalf("Len = %d after duplicates were refused, want %d", s.Len(), len(issued))
	}
	// Issuance order is the order of Add, not of serials.
	all := s.All()
	for k, i := range late {
		if all[len(all)-len(late)+k] != issued[i] {
			t.Errorf("All()[%d] is not the certificate added then", len(all)-len(late)+k)
		}
	}
	if got := s.ByIssuer(DigiCert); len(got) != 67 {
		t.Errorf("ByIssuer(DigiCert) = %d certificates, want 67", len(got))
	}
	// Serials nobody issued: below, between, above a CA's run, and under
	// a CA the store has never heard of.
	for _, serial := range []uint64{0, 1<<40 | 0, 1<<40 | 5000, 2<<40 | 9999, 7<<40 | 1, 31337} {
		if _, ok := s.Get(serial); ok {
			t.Errorf("Get(%d) found a certificate", serial)
		}
		if got := s.Status(serial, day); got != OCSPUnknown {
			t.Errorf("Status(%d) = %v, want unknown", serial, got)
		}
		if got := s.CRL(LetsEncrypt).Status(serial, day); got != OCSPUnknown {
			t.Errorf("CRL.Status(%d) = %v, want unknown", serial, got)
		}
	}
	// Revoked from its day on; good before; a CA's list answers only for
	// what that CA issued.
	c := issued[100]
	if err := s.Revoke(c.Serial, day, ReasonCessation); err != nil {
		t.Fatal(err)
	}
	if got := s.Status(c.Serial, day-1); got != OCSPGood {
		t.Errorf("Status the day before revocation = %v", got)
	}
	if got := s.Status(c.Serial, day); got != OCSPRevoked {
		t.Errorf("Status on the revocation day = %v", got)
	}
	if got := s.Status(c.Serial, day+30); got != OCSPRevoked {
		t.Errorf("Status after the revocation day = %v", got)
	}
	other := DigiCert
	if c.IssuerOrg == DigiCert {
		other = LetsEncrypt
	}
	if got := s.CRL(other).Status(c.Serial, day); got != OCSPUnknown {
		t.Errorf("%s's list answers %v for a serial of %s", other, got, c.IssuerOrg)
	}
}
