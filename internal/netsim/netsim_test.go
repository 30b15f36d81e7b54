package netsim

import (
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"whereru/internal/simtime"
)

func TestRegisterAndLookup(t *testing.T) {
	in := NewInternet(simtime.StudyStart)
	in.MustRegisterAS(AS{Number: 16509, Name: "AMAZON-02", Org: "Amazon", Country: "US"})
	as, ok := in.Lookup(16509)
	if !ok || as.Org != "Amazon" {
		t.Fatalf("Lookup(16509) = %+v, %v", as, ok)
	}
	if _, ok := in.Lookup(99999); ok {
		t.Fatal("Lookup of unknown ASN succeeded")
	}
	if _, err := in.RegisterAS(AS{Number: 16509}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestAllocateAndOrigin(t *testing.T) {
	in := NewInternet(simtime.StudyStart)
	in.MustRegisterAS(AS{Number: 13335, Org: "Cloudflare", Country: "US"})
	in.MustRegisterAS(AS{Number: 197695, Org: "REG.RU", Country: "RU"})

	p1, err := in.AllocatePrefix(13335)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := in.AllocatePrefix(197695)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Overlaps(p2) {
		t.Fatalf("allocated prefixes overlap: %v %v", p1, p2)
	}
	a1, err := in.NextAddr(13335)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := in.NextAddr(13335)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("NextAddr returned the same address twice")
	}
	if !p1.Contains(a1) || !p1.Contains(a2) {
		t.Fatalf("addresses %v %v outside prefix %v", a1, a2, p1)
	}
	asn, ok := in.OriginAS(a1)
	if !ok || asn != 13335 {
		t.Fatalf("OriginAS(%v) = %d, %v", a1, asn, ok)
	}
	if _, ok := in.OriginAS(netip.MustParseAddr("8.8.8.8")); ok {
		t.Fatal("unallocated space has an origin")
	}
}

func TestNextAddrRollsToNewPrefix(t *testing.T) {
	in := NewInternet(simtime.StudyStart)
	in.MustRegisterAS(AS{Number: 1, Org: "X", Country: "RU"})
	// NextAddr without any prefix allocates one on demand.
	a, err := in.NextAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	if asn, ok := in.OriginAS(a); !ok || asn != 1 {
		t.Fatal("on-demand allocation not routed")
	}
	if len(in.Allocations()) != 1 {
		t.Fatalf("Allocations = %v", in.Allocations())
	}
}

func TestNextAddrUnknownAS(t *testing.T) {
	in := NewInternet(simtime.StudyStart)
	if _, err := in.NextAddr(42); err == nil {
		t.Fatal("NextAddr for unknown AS succeeded")
	}
}

func TestOriginASProperty(t *testing.T) {
	in := NewInternet(simtime.StudyStart)
	in.MustRegisterAS(AS{Number: 1, Org: "A", Country: "RU"})
	in.MustRegisterAS(AS{Number: 2, Org: "B", Country: "US"})
	in.MustRegisterAS(AS{Number: 3, Org: "C", Country: "DE"})
	addrs := make(map[netip.Addr]ASN)
	for i := 0; i < 300; i++ {
		asn := ASN(i%3 + 1)
		a, err := in.NextAddr(asn)
		if err != nil {
			t.Fatal(err)
		}
		addrs[a] = asn
	}
	for a, want := range addrs {
		got, ok := in.OriginAS(a)
		if !ok || got != want {
			t.Fatalf("OriginAS(%v) = %d, want %d", a, got, want)
		}
	}
}

func TestClock(t *testing.T) {
	c := NewClock(simtime.ConflictStart)
	if c.Now() != simtime.ConflictStart {
		t.Fatal("initial day wrong")
	}
	if got := c.Advance(30); got != simtime.ConflictStart.Add(30) {
		t.Fatalf("Advance = %v", got)
	}
	c.Set(simtime.StudyEnd)
	if c.Now() != simtime.StudyEnd {
		t.Fatal("Set failed")
	}
}

func TestAddrConversionProperty(t *testing.T) {
	f := func(v uint32) bool {
		return addrToU32(u32ToAddr(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkOriginAS(b *testing.B) {
	in := NewInternet(simtime.StudyStart)
	for n := ASN(1); n <= 200; n++ {
		in.MustRegisterAS(AS{Number: n})
		if _, err := in.AllocatePrefix(n); err != nil {
			b.Fatal(err)
		}
	}
	addr, _ := in.NextAddr(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := in.OriginAS(addr); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func TestOutageSchedule(t *testing.T) {
	s := NewOutageSchedule()
	d := simtime.MustParse("2021-03-22")
	s.Add("tld:ru", simtime.OneDay(d))
	s.Add("tld:ru", simtime.Window{From: d.Add(10), To: d.Add(12)})
	s.Add("provider:netnod", simtime.Window{From: d.Add(11), To: d.Add(20)})

	want := []ScheduledEvent{
		{Key: "provider:netnod", Kind: "outage", Window: simtime.Window{From: d.Add(11), To: d.Add(20)}},
		{Key: "tld:ru", Kind: "outage", Window: simtime.OneDay(d)},
		{Key: "tld:ru", Kind: "outage", Window: simtime.Window{From: d.Add(10), To: d.Add(12)}},
	}
	if got := s.Events(); !slices.Equal(got, want) {
		t.Errorf("Events = %v, want %v", got, want)
	}
	if got := len(s.Windows("tld:ru")); got != 2 {
		t.Errorf("Windows(tld:ru) = %d entries, want 2", got)
	}
	// Windows and Events return copies: mutating them must not corrupt
	// the schedule.
	s.Windows("tld:ru")[0] = simtime.Window{From: 0, To: 1 << 30}
	s.Events()[1].Window = simtime.Window{From: 0, To: 1 << 30}
	if got := s.Events(); !slices.Equal(got, want) {
		t.Errorf("Events after mutating returned copies = %v, want %v", got, want)
	}
}
