package dns

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleMessage() *Message {
	m := NewQuery(0x1234, "example.ru.", TypeA)
	m.Response = true
	m.Authoritative = true
	m.Answers = []RR{
		NewA("example.ru.", 300, mustAddr("193.0.2.10")),
		NewA("example.ru.", 300, mustAddr("193.0.2.11")),
	}
	m.Authority = []RR{
		NewNS("example.ru.", 3600, "ns1.reg.ru."),
		NewNS("example.ru.", 3600, "ns2.reg.ru."),
	}
	m.Additional = []RR{
		NewA("ns1.reg.ru.", 3600, mustAddr("194.58.116.1")),
		NewAAAA("ns1.reg.ru.", 3600, mustAddr("2001:db8::1")),
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", m, got)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := NewQuery(1, "very-long-domain-label.example.ru.", TypeA)
	m.Response = true
	for i := 0; i < 8; i++ {
		m.Answers = append(m.Answers, NewA("very-long-domain-label.example.ru.", 60, mustAddr("10.0.0.1")))
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression each answer would repeat the 35-octet name.
	uncompressed := 12 + (len("very-long-domain-label.example.ru.") + 1 + 4) + 8*(len("very-long-domain-label.example.ru.")+1+2+2+4+2+4)
	if len(wire) >= uncompressed {
		t.Errorf("compressed size %d not smaller than uncompressed estimate %d", len(wire), uncompressed)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode compressed: %v", err)
	}
	if len(back.Answers) != 8 || back.Answers[7].Name != "very-long-domain-label.example.ru." {
		t.Error("compressed names did not decode correctly")
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	m := NewQuery(7, "zone.ru.", TypeANY)
	m.Response = true
	m.Answers = []RR{
		NewA("zone.ru.", 60, mustAddr("192.0.2.1")),
		NewAAAA("zone.ru.", 60, mustAddr("2001:db8::2")),
		NewNS("zone.ru.", 60, "ns.zone.ru."),
		NewCNAME("www.zone.ru.", 60, "zone.ru."),
		NewSOA("zone.ru.", "ns.zone.ru.", "hostmaster.zone.ru.", 2022052501),
		NewMX("zone.ru.", 60, 10, "mail.zone.ru."),
		NewTXT("zone.ru.", 60, "v=spf1 -all", "second string"),
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", m, got)
	}
}

func TestDecodeRejectsJunk(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0, 1, 2},
		bytes.Repeat([]byte{0xFF}, 12), // implausible counts
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%v) succeeded, want error", c)
		}
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	// Header with 1 question whose name is a pointer to itself.
	buf := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to offset 12 (itself)
		0, 1, 0, 1,
	}
	if _, err := Decode(buf); err == nil {
		t.Fatal("self-referential pointer accepted")
	}
}

func TestDecodeRejectsTruncatedRDATA(t *testing.T) {
	m := sampleMessage()
	wire, _ := m.Encode()
	for cut := 13; cut < len(wire)-1; cut += 7 {
		if _, err := Decode(wire[:cut]); err == nil {
			// Some prefixes may parse if counts allow; but with fixed
			// counts in the header a cut body must fail.
			t.Errorf("Decode of %d-octet prefix succeeded", cut)
		}
	}
}

func TestNameHelpers(t *testing.T) {
	if Canonical("ExAmPlE.RU") != "example.ru." {
		t.Error("Canonical lowercase+fqdn failed")
	}
	if Canonical(".") != "." || Canonical("") != "." {
		t.Error("Canonical root failed")
	}
	if Parent("a.b.ru.") != "b.ru." || Parent("ru.") != "." || Parent(".") != "." {
		t.Error("Parent failed")
	}
	if TLD("ns1.example.com.") != "com" || TLD(".") != "" {
		t.Error("TLD failed")
	}
	if !IsSubdomain("a.ru.", "ru.") || IsSubdomain("aru.", "ru.") || !IsSubdomain("x.y.", ".") {
		t.Error("IsSubdomain failed")
	}
	if Join("ns1", "reg.ru.") != "ns1.reg.ru." || Join("x", ".") != "x." {
		t.Error("Join failed")
	}
	if CountLabels("a.b.ru.") != 3 || CountLabels(".") != 0 {
		t.Error("CountLabels failed")
	}
}

// TestTLDAndCountLabels holds the split-free TLD and CountLabels to the
// Labels-based definitions they replaced, on canonical names and on the
// shapes callers pass without canonicalising first.
func TestTLDAndCountLabels(t *testing.T) {
	cases := []struct {
		name, tld string
		labels    int
	}{
		{"", "", 0},
		{".", "", 0},
		{"ru.", "ru", 1},
		{"ru", "ru", 1},
		{"example.ru.", "ru", 2},
		{"ns1.example.com.", "com", 3},
		{"ns1.example.com", "com", 3},
		{"xn--e1afmkfd.xn--p1ai.", "xn--p1ai", 2},
		{"*.example.ru.", "ru", 3},
		{"..", "", 2},
		{"a..", "", 2},
		{".ru.", "ru", 2},
	}
	for _, tc := range cases {
		labels := Labels(tc.name)
		wantTLD := ""
		if len(labels) > 0 {
			wantTLD = labels[len(labels)-1]
		}
		if wantTLD != tc.tld || len(labels) != tc.labels {
			t.Errorf("table row %q disagrees with Labels: %q", tc.name, labels)
		}
		if got := TLD(tc.name); got != tc.tld {
			t.Errorf("TLD(%q) = %q, want %q", tc.name, got, tc.tld)
		}
		if got := CountLabels(tc.name); got != tc.labels {
			t.Errorf("CountLabels(%q) = %d, want %d", tc.name, got, tc.labels)
		}
	}
	var chars int
	if n := testing.AllocsPerRun(100, func() { chars += len(TLD("ns1.example.com.")) + CountLabels("example.ru.") }); n != 0 {
		t.Errorf("TLD + CountLabels allocate %v times", n)
	}
}

func TestValidName(t *testing.T) {
	valid := []string{".", "ru.", "example.ru.", "xn--p1ai.", "a-b-c.example.ru."}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	long := ""
	for i := 0; i < 64; i++ {
		long += "a"
	}
	invalid := []string{"", "example.ru", "..", "a..ru.", long + ".ru.", "has space.ru."}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestEncodeRejectsBadRecords(t *testing.T) {
	// A record holding an IPv6 address must not encode.
	m := NewQuery(9, "x.ru.", TypeA)
	m.Answers = []RR{{Name: "x.ru.", Type: TypeA, Class: ClassIN, TTL: 1, Data: AData{mustAddr("2001:db8::1")}}}
	if _, err := m.Encode(); err == nil {
		t.Error("A record with IPv6 address encoded")
	}
	m2 := NewQuery(9, "x.ru.", TypeTXT)
	m2.Answers = []RR{{Name: "x.ru.", Type: TypeTXT, Class: ClassIN, TTL: 1, Data: TXTData{}}}
	if _, err := m2.Encode(); err == nil {
		t.Error("empty TXT encoded")
	}
}

func TestQuickWireFuzz(t *testing.T) {
	// Decoding arbitrary bytes must never panic and must either error or
	// produce a message that re-encodes.
	f := func(data []byte) bool {
		m, err := Decode(data)
		if err != nil {
			return true
		}
		_, _ = m.Encode()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReply(t *testing.T) {
	q := NewQuery(42, "example.ru.", TypeNS)
	q.RecursionDesired = true
	r := q.Reply()
	if !r.Response || r.ID != 42 || !r.RecursionDesired || len(r.Questions) != 1 {
		t.Errorf("Reply skeleton wrong: %+v", r.Header)
	}
}

func TestTypeAndRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeNS.String() != "NS" || Type(999).String() != "TYPE999" {
		t.Error("Type.String failed")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Error("RCode.String failed")
	}
	if ClassIN.String() != "IN" || Class(4).String() != "CLASS4" {
		t.Error("Class.String failed")
	}
	if typ, ok := ParseType("CNAME"); !ok || typ != TypeCNAME {
		t.Error("ParseType failed")
	}
	if _, ok := ParseType("NOPE"); ok {
		t.Error("ParseType accepted junk")
	}
}

func TestSortRRs(t *testing.T) {
	rrs := []RR{
		NewA("b.ru.", 1, mustAddr("10.0.0.2")),
		NewNS("a.ru.", 1, "ns2.x.ru."),
		NewA("a.ru.", 1, mustAddr("10.0.0.1")),
		NewNS("a.ru.", 1, "ns1.x.ru."),
	}
	SortRRs(rrs)
	want := []string{"a.ru. A", "a.ru. NS ns1", "a.ru. NS ns2", "b.ru. A"}
	_ = want
	if rrs[0].Name != "a.ru." || rrs[0].Type != TypeA {
		t.Errorf("sort order wrong: %v", rrs)
	}
	if rrs[1].Data.String() != "ns1.x.ru." {
		t.Errorf("NS order wrong: %v", rrs)
	}
	if rrs[3].Name != "b.ru." {
		t.Errorf("name order wrong: %v", rrs)
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	wire, _ := sampleMessage().Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
