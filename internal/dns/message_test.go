package dns

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// Record types the codec has no typed RDATA for: they decode as RawData.
const (
	typeCNAME Type = 5
	typeTXT   Type = 16
	typeAAAA  Type = 28
)

// rawRR builds a record whose RDATA is the given wire octets.
func rawRR(name string, t Type, ttl uint32, octets string) RR {
	return RR{Name: Canonical(name), Type: t, Class: ClassIN, TTL: ttl, Data: RawData{Octets: octets}}
}

// wireName is name in uncompressed wire form, as RDATA carries it.
func wireName(name string) string {
	b, err := appendName(nil, Canonical(name))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// wireAAAA is an IPv6 address as AAAA RDATA.
func wireAAAA(s string) string {
	a := mustAddr(s).As16()
	return string(a[:])
}

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
		rawRR("ns1.reg.ru.", typeAAAA, 3600, wireAAAA("2001:db8::1")),
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
		NewNS("zone.ru.", 60, "ns.zone.ru."),
		NewSOA("zone.ru.", "ns.zone.ru.", "hostmaster.zone.ru.", 2022052501),
		NewMX("zone.ru.", 60, 10, "mail.zone.ru."),
		// Types the world never serves, from their wire octets.
		rawRR("zone.ru.", typeAAAA, 60, wireAAAA("2001:db8::2")),
		rawRR("www.zone.ru.", typeCNAME, 60, wireName("zone.ru.")),
		rawRR("zone.ru.", typeTXT, 60, "\x0bv=spf1 -all\x0dsecond string"),
	}
	// Every type the codec has no typed RDATA for, the three above and
	// here an EDNS OPT (type 41, RFC 6891) with a 4096-octet size in its
	// class and one cookie option, decodes as RawData (RFC 3597) and
	// re-encodes to the same octets.
	m.Additional = []RR{{Name: ".", Type: Type(41), Class: Class(4096), TTL: 0x8000,
		Data: RawData{Octets: "\x00\x0a\x00\x08\x01\x02\x03\x04\x05\x06\x07\x08"}}}
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
	for _, rr := range slices.Concat(got.Answers[4:], got.Additional) {
		if _, ok := rr.Data.(RawData); !ok {
			t.Errorf("%s %s decoded as %T, want RawData", rr.Name, rr.Type, rr.Data)
		}
	}
	if again, err := got.Encode(); err != nil || !bytes.Equal(again, wire) {
		t.Fatalf("re-encoding the decoded message: %v\n got %x\nwant %x", err, again, wire)
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
	// The encoders check names label by label as they write them; their
	// verdict and error must be ValidName's, at every boundary.
	label63 := long[:63]
	wire255 := strings.Repeat(label63+".", 3) + strings.Repeat("a", 61) + "." // 254 octets: wire 255
	wire256 := strings.Repeat(label63+".", 3) + strings.Repeat("a", 62) + "."
	for _, n := range append(append(valid, invalid...),
		wire255, wire256, "b"+wire255, label63+".ru.", "ru.\x7f.", "a.\x00.", ".ru.", "ru..", "ru.x") {
		want := ValidName(n)
		_, plainErr := appendName(nil, n)
		m := &Message{Questions: []Question{{Name: n, Type: TypeA, Class: ClassIN}}}
		m.Answers = []RR{NewA(n, 60, mustAddr("192.0.2.1"))} // a second copy: the compression table's suffixes
		_, compErr := m.Encode()
		for _, err := range []error{plainErr, compErr} {
			if (err == nil) != want {
				t.Errorf("%q: ValidName %v, encoder error %v", n, want, err)
			} else if err != nil && err.Error() != fmt.Sprintf("dns: invalid name %q", n) {
				t.Errorf("%q: encoder error %q", n, err)
			}
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
