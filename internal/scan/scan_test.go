package scan

import (
	"net/netip"
	"testing"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func chain(ca *pki.CA, day simtime.Day, name string) []*pki.Certificate {
	c, err := ca.Issue(day, name)
	if err != nil {
		panic(err)
	}
	return []*pki.Certificate{c}
}

func TestSweepCollectsServingHosts(t *testing.T) {
	s := NewScanner()
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)
	rtr := pki.NewCA(11, pki.RussianTrustedRootCA, nil, 365)
	rtr.LogsToCT = false

	day := simtime.MustParse("2022-03-20")
	leChain := chain(le, day.Add(-10), "shop.ru")
	rtrChain := chain(rtr, day.Add(-3), "vtb.ru")

	s.Register(ip("11.0.0.1"), func(d simtime.Day) []*pki.Certificate { return leChain })
	s.Register(ip("11.0.0.2"), func(d simtime.Day) []*pki.Certificate {
		if d >= day {
			return rtrChain
		}
		return nil
	})
	s.Register(ip("11.0.0.3"), func(simtime.Day) []*pki.Certificate { return nil }) // no TLS

	if s.NumEndpoints() != 3 {
		t.Fatalf("NumEndpoints = %d", s.NumEndpoints())
	}
	obs := s.Sweep(day.Add(-1))
	if len(obs) != 1 || obs[0].Addr != ip("11.0.0.1") {
		t.Fatalf("pre-cutover sweep = %+v", obs)
	}
	obs = s.Sweep(day)
	if len(obs) != 2 {
		t.Fatalf("post-cutover sweep = %+v", obs)
	}
	// Sorted by address.
	if !obs[0].Addr.Less(obs[1].Addr) {
		t.Fatal("observations not sorted")
	}
}

func TestArchive(t *testing.T) {
	s := NewScanner()
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)
	rtr := pki.NewCA(11, pki.RussianTrustedRootCA, nil, 365)
	rtr.LogsToCT = false

	start := simtime.MustParse("2022-03-10")
	leChain := chain(le, start, "a.ru")
	rtrChain := chain(rtr, start, "b.ru")
	s.Register(ip("11.0.0.1"), func(simtime.Day) []*pki.Certificate { return leChain })
	s.Register(ip("11.0.0.2"), func(simtime.Day) []*pki.Certificate { return rtrChain })

	a := NewArchive()
	for d := start; d < start.Add(5); d++ {
		a.Record(d, s.Sweep(d))
	}
	if days := a.Days(); len(days) != 5 || days[0] != start {
		t.Fatalf("Days = %v", days)
	}
	all := a.UniqueCerts(nil)
	if len(all) != 2 {
		t.Fatalf("UniqueCerts = %d, want 2 (dedup across days)", len(all))
	}
	russian := a.UniqueCerts(func(c *pki.Certificate) bool { return c.RootOrg == pki.RussianTrustedRootCA })
	if len(russian) != 1 || russian[0].SubjectCN != "b.ru." {
		t.Fatalf("russian certs = %+v", russian)
	}
	if fs, ok := a.FirstSeen(russian[0].Serial); !ok || fs != start {
		t.Fatalf("FirstSeen = %v, %v", fs, ok)
	}
	if _, ok := a.FirstSeen(999999); ok {
		t.Fatal("FirstSeen of unseen serial")
	}
	if got := a.Observations(start); len(got) != 2 {
		t.Fatalf("Observations = %d", len(got))
	}
	if got := a.Observations(start.Add(99)); got != nil {
		t.Fatal("Observations for unscanned day non-nil")
	}
}

func BenchmarkSweep(b *testing.B) {
	s := NewScanner()
	le := pki.NewCA(1, pki.LetsEncrypt, nil, 90)
	for i := 0; i < 500; i++ {
		c := chain(le, 0, "bench.ru")
		s.Register(netip.AddrFrom4([4]byte{11, byte(i / 250), byte(i % 250), 1}),
			func(simtime.Day) []*pki.Certificate { return c })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Sweep(0); len(got) != 500 {
			b.Fatal("wrong sweep size")
		}
	}
}
