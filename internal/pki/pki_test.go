package pki

import (
	"reflect"
	"testing"
	"testing/quick"

	"whereru/internal/simtime"
)

func TestIssueBasics(t *testing.T) {
	ca := NewCA(1, LetsEncrypt, []string{"R3", "E1"}, 90)
	day := simtime.MustParse("2022-01-10")
	c, err := ca.Issue(day, "example.ru", "www.example.ru")
	if err != nil {
		t.Fatal(err)
	}
	if c.IssuerOrg != LetsEncrypt || c.SubjectCN != "example.ru." {
		t.Fatalf("cert fields: %+v", c)
	}
	if c.NotBefore != day || c.NotAfter != day.Add(90) {
		t.Fatalf("validity: %v..%v", c.NotBefore, c.NotAfter)
	}
	if !c.Logged {
		t.Error("LE cert not logged")
	}
	if !c.ValidOn(day) || !c.ValidOn(day.Add(90)) || c.ValidOn(day.Add(91)) || c.ValidOn(day-1) {
		t.Error("ValidOn window wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "example.ru." {
		t.Fatalf("Names = %v", names)
	}
	if _, err := ca.Issue(day); err == nil {
		t.Error("issue with no names accepted")
	}
	if ca.Issued() != 1 {
		t.Errorf("Issued = %d", ca.Issued())
	}
}

func TestSerialsUniqueAcrossCAs(t *testing.T) {
	ca1 := NewCA(1, "A", nil, 90)
	ca2 := NewCA(2, "B", nil, 90)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		c1, _ := ca1.Issue(0, "x.ru")
		c2, _ := ca2.Issue(0, "x.ru")
		if seen[c1.Serial] || seen[c2.Serial] || c1.Serial == c2.Serial {
			t.Fatal("serial collision")
		}
		seen[c1.Serial] = true
		seen[c2.Serial] = true
	}
}

func TestIssuingCNRotation(t *testing.T) {
	ca := NewCA(2, DigiCert, []string{"CN-A", "CN-B"}, 365)
	c1, _ := ca.Issue(0, "a.ru")
	c2, _ := ca.Issue(0, "b.ru")
	if c1.IssuerCN == c2.IssuerCN {
		t.Error("issuing CNs did not rotate")
	}
}

func TestMatchesRussianTLD(t *testing.T) {
	cases := []struct {
		names []string
		want  bool
	}{
		{[]string{"example.ru"}, true},
		{[]string{"example.com", "mail.example.ru"}, true},
		{[]string{"пример.рф"}, true}, // normalized to xn--p1ai
		{[]string{"example.com"}, false},
		{[]string{"ru.example.com"}, false},
		{[]string{"*.shop.ru"}, true},
	}
	ca := NewCA(3, "T", nil, 90)
	for _, cse := range cases {
		c, err := ca.Issue(0, cse.names...)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.MatchesRussianTLD(); got != cse.want {
			t.Errorf("MatchesRussianTLD(%v) = %v, want %v (names=%v)", cse.names, got, cse.want, c.Names())
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	ca := NewCA(4, GlobalSign, []string{"GCC R3"}, 365)
	c, _ := ca.Issue(simtime.MustParse("2022-03-01"), "bank.ru", "www.bank.ru", "пример.рф")
	blob := c.Marshal()
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", c, back)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(serial uint64, cn string, san string, nb, span int16, logged bool) bool {
		c := &Certificate{
			Serial:    serial,
			Issuer:    &Issuer{IssuerOrg: "Org", IssuerCN: "CN", RootOrg: "Root", Logged: logged},
			SubjectCN: cn,
			SANs:      []string{san},
			NotBefore: simtime.Day(nb),
			NotAfter:  simtime.Day(nb) + simtime.Day(span),
		}
		back, err := Unmarshal(c.Marshal())
		return err == nil && reflect.DeepEqual(c, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalJunk(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2}, make([]byte, 9), make([]byte, 20)} {
		if _, err := Unmarshal(b); err == nil {
			// A 20-byte zero blob may parse as all-empty cert; ensure no panic at least.
			_ = err
		}
	}
}

func TestCRLAndOCSP(t *testing.T) {
	s := NewStore()
	if err := s.Add(&Certificate{Serial: 100, Issuer: &Issuer{IssuerOrg: DigiCert}}); err != nil {
		t.Fatal(err)
	}
	crl := s.CRL(DigiCert)
	day := simtime.MustParse("2022-02-25")
	if got := crl.Status(100, day); got != OCSPGood {
		t.Fatalf("status before revocation = %v", got)
	}
	if got := crl.Status(999, day); got != OCSPUnknown {
		t.Fatalf("unknown serial = %v", got)
	}
	crl.Revoke(100, day, ReasonCessation)
	if got := crl.Status(100, day-1); got != OCSPGood {
		t.Fatalf("status before revocation day = %v", got)
	}
	if got := crl.Status(100, day); got != OCSPRevoked {
		t.Fatalf("status on revocation day = %v", got)
	}
	// Double revoke keeps earliest date.
	crl.Revoke(100, day.Add(10), ReasonSuperseded)
	revs := crl.Revocations(simtime.StudyEnd)
	if len(revs) != 1 || revs[0].Day != day || revs[0].Reason != ReasonCessation {
		t.Fatalf("Revocations = %+v", revs)
	}
	if crl.Len() != 1 {
		t.Fatalf("Len = %d", crl.Len())
	}
	// Earlier re-revoke wins.
	crl.Revoke(100, day.Add(-5), ReasonUnspecified)
	if revs := crl.Revocations(simtime.StudyEnd); revs[0].Day != day.Add(-5) {
		t.Fatalf("earlier revocation did not win: %+v", revs)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	ca := NewCA(1, LetsEncrypt, nil, 90)
	ca2 := NewCA(2, Sectigo, nil, 365)
	var serials []uint64
	for i := 0; i < 5; i++ {
		c, _ := ca.Issue(0, "le.ru")
		if err := s.Add(c); err != nil {
			t.Fatal(err)
		}
		serials = append(serials, c.Serial)
	}
	c2, _ := ca2.Issue(0, "sec.ru")
	if err := s.Add(c2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(c2); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got, ok := s.Get(serials[0]); !ok || got.IssuerOrg != LetsEncrypt {
		t.Fatal("Get failed")
	}
	if _, ok := s.Get(424242); ok {
		t.Fatal("Get of unknown serial succeeded")
	}
	issuers := map[string]int{}
	for _, c := range s.All() {
		issuers[c.IssuerOrg]++
	}
	if len(issuers) != 2 || issuers[LetsEncrypt] != 5 {
		t.Fatalf("issuers = %v", issuers)
	}
	if got := s.ByIssuer(LetsEncrypt); len(got) != 5 {
		t.Fatalf("ByIssuer = %d", len(got))
	}
	if got := s.Select(func(c *Certificate) bool { return c.IssuerOrg == Sectigo }); len(got) != 1 {
		t.Fatalf("Select = %d", len(got))
	}
	// Revocation through the store.
	day := simtime.MustParse("2022-03-01")
	if err := s.Revoke(serials[0], day, ReasonCessation); err != nil {
		t.Fatal(err)
	}
	if err := s.Revoke(31337, day, ReasonCessation); err == nil {
		t.Fatal("revoking unknown serial succeeded")
	}
	if got := s.Status(serials[0], day); got != OCSPRevoked {
		t.Fatalf("Status = %v", got)
	}
	if got := s.Status(serials[1], day); got != OCSPGood {
		t.Fatalf("Status = %v", got)
	}
	if got := s.Status(31337, day); got != OCSPUnknown {
		t.Fatalf("Status unknown = %v", got)
	}
	if got := s.All(); len(got) != 6 {
		t.Fatalf("All = %d", len(got))
	}
}

func TestStandardCatalog(t *testing.T) {
	cas := StandardCatalog()
	if len(cas) != 11 {
		t.Fatalf("catalog size = %d, want 11 (top-10 + Russian CA)", len(cas))
	}
	rtr := cas[RussianTrustedRootCA]
	if rtr == nil {
		t.Fatal("Russian CA missing")
	}
	if rtr.LogsToCT || rtr.BrowserTrusted {
		t.Error("Russian CA must not log to CT nor be browser-trusted")
	}
	le := cas[LetsEncrypt]
	if le == nil || !le.LogsToCT || le.DefaultValidityDays != 90 {
		t.Errorf("Let's Encrypt misconfigured: %+v", le)
	}
	c, _ := rtr.Issue(simtime.MustParse("2022-03-10"), "vtb.ru")
	if c.Logged {
		t.Error("Russian CA issued a logged certificate")
	}
	// Unique ids → unique serial spaces.
	seen := make(map[uint64]bool)
	for _, ca := range cas {
		c, _ := ca.Issue(0, "x.ru")
		if seen[c.Serial] {
			t.Fatal("serial collision across catalog")
		}
		seen[c.Serial] = true
	}
}

func TestNormalizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.RU", "example.ru."},
		{"пример.рф", "xn--e1afmkfd.xn--p1ai."},
		{"*.shop.ru", "*.shop.ru."},
		{"already.ru.", "already.ru."},
	}
	for _, c := range cases {
		if got := NormalizeName(c.in); got != c.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestReasonAndStatusStrings(t *testing.T) {
	if ReasonCessation.String() != "cessationOfOperation" ||
		ReasonSuperseded.String() != "superseded" ||
		ReasonUnspecified.String() != "unspecified" {
		t.Error("reason strings wrong")
	}
	if OCSPGood.String() != "good" || OCSPRevoked.String() != "revoked" || OCSPUnknown.String() != "unknown" {
		t.Error("status strings wrong")
	}
}

func BenchmarkIssue(b *testing.B) {
	ca := NewCA(1, LetsEncrypt, []string{"R3"}, 90)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Issue(0, "bench.ru", "www.bench.ru"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	ca := NewCA(1, LetsEncrypt, []string{"R3"}, 90)
	c, _ := ca.Issue(0, "bench.ru", "www.bench.ru")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Marshal()
	}
}
