package zone

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"whereru/internal/dns"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func buildRuZone(t testing.TB) *Zone {
	t.Helper()
	z := New("ru.")
	mustAdd := func(rr dns.RR) {
		if err := z.Add(rr); err != nil {
			t.Fatalf("Add(%v): %v", rr, err)
		}
	}
	mustAdd(dns.NewNS("ru.", 3600, "a.dns.ripn.net."))
	mustAdd(dns.NewNS("example.ru.", 3600, "ns1.example.ru."))
	mustAdd(dns.NewNS("example.ru.", 3600, "ns2.offsite.com."))
	mustAdd(dns.NewA("ns1.example.ru.", 3600, addr("194.58.117.1"))) // glue
	mustAdd(dns.NewA("direct.ru.", 300, addr("77.88.55.60")))
	mustAdd(dns.NewCNAME("www.direct.ru.", 300, "direct.ru."))
	mustAdd(dns.NewTXT("direct.ru.", 300, "hello"))
	return z
}

func TestZoneAnswer(t *testing.T) {
	z := buildRuZone(t)
	ans := z.Query("direct.ru.", dns.TypeA)
	if !ans.Authoritative || ans.RCode != dns.RCodeNoError || len(ans.Answers) != 1 {
		t.Fatalf("direct answer wrong: %+v", ans)
	}
	if ans.Answers[0].Data.(dns.AData).Addr != addr("77.88.55.60") {
		t.Fatalf("wrong address: %v", ans.Answers[0])
	}
}

func TestZoneReferralWithGlue(t *testing.T) {
	z := buildRuZone(t)
	ans := z.Query("example.ru.", dns.TypeA)
	if ans.Authoritative {
		t.Error("referral must not be authoritative")
	}
	if len(ans.Authority) != 2 {
		t.Fatalf("authority = %v, want 2 NS", ans.Authority)
	}
	// Only the in-zone NS gets glue.
	if len(ans.Additional) != 1 || ans.Additional[0].Name != "ns1.example.ru." {
		t.Fatalf("glue = %v", ans.Additional)
	}
	// Deeper names under the cut also get the referral.
	ans = z.Query("www.deep.example.ru.", dns.TypeA)
	if len(ans.Authority) != 2 || ans.RCode != dns.RCodeNoError {
		t.Fatalf("deep referral wrong: %+v", ans)
	}
}

func TestZoneCNAME(t *testing.T) {
	z := buildRuZone(t)
	ans := z.Query("www.direct.ru.", dns.TypeA)
	if len(ans.Answers) != 2 {
		t.Fatalf("CNAME chase answers = %v", ans.Answers)
	}
	if ans.Answers[0].Type != dns.TypeCNAME || ans.Answers[1].Type != dns.TypeA {
		t.Fatalf("CNAME order wrong: %v", ans.Answers)
	}
}

func TestZoneNXDomainAndNodata(t *testing.T) {
	z := buildRuZone(t)
	ans := z.Query("missing.ru.", dns.TypeA)
	if ans.RCode != dns.RCodeNXDomain {
		t.Fatalf("want NXDOMAIN, got %v", ans.RCode)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type != dns.TypeSOA {
		t.Fatalf("NXDOMAIN must carry SOA, got %v", ans.Authority)
	}
	// NODATA: name exists (direct.ru. has A+TXT) but no MX.
	ans = z.Query("direct.ru.", dns.TypeMX)
	if ans.RCode != dns.RCodeNoError || len(ans.Answers) != 0 || len(ans.Authority) != 1 {
		t.Fatalf("NODATA wrong: %+v", ans)
	}
	// Empty non-terminal: "deep.example.ru." exists only via the cut below it —
	// but here test glue name parent: "ns1.example.ru." makes "example.ru." exist.
	ans = z.Query("ru.", dns.TypeMX)
	if ans.RCode != dns.RCodeNoError || len(ans.Answers) != 0 {
		t.Fatalf("apex NODATA wrong: %+v", ans)
	}
}

func TestZoneOutOfZone(t *testing.T) {
	z := buildRuZone(t)
	if ans := z.Query("example.com.", dns.TypeA); ans.RCode != dns.RCodeRefused {
		t.Fatalf("out-of-zone query not refused: %+v", ans)
	}
	if err := z.Add(dns.NewA("example.com.", 1, addr("10.0.0.1"))); err == nil {
		t.Fatal("out-of-zone Add accepted")
	}
}

func TestZoneRemove(t *testing.T) {
	z := buildRuZone(t)
	z.RemoveRRset("direct.ru.", dns.TypeA)
	ans := z.Query("direct.ru.", dns.TypeA)
	if len(ans.Answers) != 0 || ans.RCode != dns.RCodeNoError {
		t.Fatalf("after remove want NODATA (TXT remains), got %+v", ans)
	}
	z.RemoveRRset("direct.ru.", dns.TypeTXT)
	z.RemoveRRset("www.direct.ru.", dns.TypeCNAME)
	ans = z.Query("direct.ru.", dns.TypeA)
	if ans.RCode != dns.RCodeNXDomain {
		t.Fatalf("after removing all rrsets want NXDOMAIN, got %+v", ans)
	}
}

func TestZoneSerializeParseRoundTrip(t *testing.T) {
	z := buildRuZone(t)
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "$ORIGIN ru.") {
		t.Fatalf("missing $ORIGIN header:\n%s", text)
	}
	z2, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if z2.Origin != "ru." {
		t.Fatalf("origin = %q", z2.Origin)
	}
	if z.Size() != z2.Size() {
		t.Fatalf("size mismatch: %d vs %d", z.Size(), z2.Size())
	}
	// The CNAME mnemonic parses back to a CNAME record.
	if got := z2.Lookup("www.direct.ru.", dns.TypeCNAME); len(got) != 1 {
		t.Fatalf("parsed CNAME = %v", got)
	}
	// Semantics preserved: same referral behavior.
	ans := z2.Query("example.ru.", dns.TypeA)
	if len(ans.Authority) != 2 || len(ans.Additional) != 1 {
		t.Fatalf("parsed zone referral wrong: %+v", ans)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                    // no origin
		"$ORIGIN ru.\njunk",                   // short record
		"$ORIGIN ru.\nx.ru. abc IN A 1.2.3.4", // bad TTL
		"$ORIGIN ru.\nx.ru. 60 CH A 1.2.3.4",  // bad class
		"$ORIGIN ru.\nx.ru. 60 IN A 999.2.3.4",
		"$ORIGIN ru.\nx.ru. 60 IN AAAA 1.2.3.4",
		"$ORIGIN ru.\nx.com. 60 IN A 1.2.3.4", // out of zone
		"$ORIGIN ru.\nx.ru. 60 IN NOPE x",     // unknown type mnemonic
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	text := "; leading comment\n\n$ORIGIN ru.\nx.ru. 60 IN A 1.2.3.4 ; trailing\n"
	z, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(z.Lookup("x.ru.", dns.TypeA)) != 1 {
		t.Fatal("record with comment not parsed")
	}
}

func TestAuthorityRouting(t *testing.T) {
	parent := buildRuZone(t)
	child := New("example.ru.")
	if err := child.Add(dns.NewA("example.ru.", 60, addr("194.58.117.5"))); err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority(parent, child)
	if got := auth.Zones(); len(got) != 2 {
		t.Fatalf("Zones = %v", got)
	}
	// Most-specific zone answers.
	q := dns.NewQuery(1, "example.ru.", dns.TypeA)
	resp := auth.ServeDNS(q, addr("127.0.0.1"))
	if !resp.Authoritative || len(resp.Answers) != 1 {
		t.Fatalf("child zone did not answer: %+v", resp)
	}
	// Parent still answers names outside the child.
	q = dns.NewQuery(2, "direct.ru.", dns.TypeA)
	resp = auth.ServeDNS(q, addr("127.0.0.1"))
	if len(resp.Answers) != 1 {
		t.Fatalf("parent did not answer: %+v", resp)
	}
	// Unserved name refused.
	q = dns.NewQuery(3, "example.org.", dns.TypeA)
	if resp = auth.ServeDNS(q, addr("127.0.0.1")); resp.RCode != dns.RCodeRefused {
		t.Fatalf("unserved query not refused: %v", resp.RCode)
	}
	// Multi-question and non-query opcodes are NOTIMP.
	q = dns.NewQuery(4, "direct.ru.", dns.TypeA)
	q.Questions = append(q.Questions, q.Questions[0])
	if resp = auth.ServeDNS(q, addr("127.0.0.1")); resp.RCode != dns.RCodeNotImp {
		t.Fatalf("multi-question not NOTIMP: %v", resp.RCode)
	}
}

func TestZoneNamesAndSize(t *testing.T) {
	z := buildRuZone(t)
	names := z.Names()
	if len(names) == 0 || names[0] != "direct.ru." {
		t.Fatalf("Names = %v", names)
	}
	if z.Size() != 8 { // SOA + 3 NS + 2 A + CNAME + TXT
		t.Fatalf("Size = %d, want 8", z.Size())
	}
	if z.SOA().Type != dns.TypeSOA {
		t.Fatal("SOA missing")
	}
	// The synthesized SOA names its servers below the origin, the root's too.
	if soa := New("reg.ru.").SOA().Data.(dns.SOAData); soa.MName != "ns1.reg.ru." || soa.RName != "hostmaster.reg.ru." {
		t.Errorf("reg.ru. SOA names %s, %s", soa.MName, soa.RName)
	}
	if soa := New(".").SOA().Data.(dns.SOAData); soa.MName != "ns1." || soa.RName != "hostmaster." {
		t.Errorf("root SOA names %s, %s", soa.MName, soa.RName)
	}
}

func TestSortRRs(t *testing.T) {
	rrs := []dns.RR{
		dns.NewA("b.ru.", 1, addr("10.0.0.2")),
		dns.NewNS("a.ru.", 1, "ns2.x.ru."),
		dns.NewA("a.ru.", 1, addr("10.0.0.1")),
		dns.NewNS("a.ru.", 1, "ns1.x.ru."),
	}
	sortRRs(rrs)
	if rrs[0].Name != "a.ru." || rrs[0].Type != dns.TypeA {
		t.Errorf("sort order wrong: %v", rrs)
	}
	if rrs[1].Data.String() != "ns1.x.ru." {
		t.Errorf("NS order wrong: %v", rrs)
	}
	if rrs[3].Name != "b.ru." {
		t.Errorf("name order wrong: %v", rrs)
	}
}

func BenchmarkZoneQueryAnswer(b *testing.B) {
	z := buildRuZone(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Query("direct.ru.", dns.TypeA)
	}
}

func BenchmarkZoneQueryReferral(b *testing.B) {
	z := buildRuZone(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Query("www.deep.example.ru.", dns.TypeA)
	}
}
