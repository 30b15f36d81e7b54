package analysis

import (
	"net/netip"
	"testing"

	"whereru/internal/geo"
	"whereru/internal/netsim"
	"whereru/internal/registry"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// unitAnalyzer builds an analyzer over a handcrafted store and a two-AS
// internet (AS1 = RU, AS2 = US) for classification unit tests.
func unitAnalyzer(t *testing.T) (*Analyzer, *store.Store, netip.Addr, netip.Addr) {
	t.Helper()
	in := netsim.NewInternet(0)
	in.MustRegisterAS(netsim.AS{Number: 1, Org: "RU Host", Country: "RU"})
	in.MustRegisterAS(netsim.AS{Number: 2, Org: "US Host", Country: "US"})
	ruAddr, err := in.NextAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	usAddr, err := in.NextAddr(2)
	if err != nil {
		t.Fatal(err)
	}
	db := geo.NewDB()
	b := geo.NewBuilder()
	for _, alloc := range in.Allocations() {
		as, _ := in.Lookup(alloc.ASN)
		b.Add(alloc.Prefix, as.Country)
	}
	if err := db.Snapshot(0, b); err != nil {
		t.Fatal(err)
	}
	st := store.New()
	return &Analyzer{Store: st, Geo: db, Internet: in}, st, ruAddr, usAddr
}

func addMeasurement(st *store.Store, domain string, day simtime.Day, ns []string, nsAddrs, apex []netip.Addr, failed bool) {
	st.BeginSweep(day)
	st.Add(store.Measurement{Domain: domain, Day: day, Config: store.Config{
		NSHosts: ns, NSAddrs: nsAddrs, ApexAddrs: apex, Failed: failed,
	}})
}

func TestNSCompositionClassification(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	day := simtime.Day(100)
	addMeasurement(st, "full.ru.", day, []string{"ns1.x.ru."}, []netip.Addr{ru}, nil, false)
	addMeasurement(st, "part.ru.", day, []string{"ns1.x.ru.", "ns2.y.com."}, []netip.Addr{ru, us}, nil, false)
	addMeasurement(st, "non.ru.", day, []string{"ns2.y.com."}, []netip.Addr{us}, nil, false)
	addMeasurement(st, "failed.ru.", day, nil, nil, nil, true)
	addMeasurement(st, "noaddr.ru.", day, []string{"ns.z.ru."}, nil, nil, false)

	pts := an.NSCompositionSeries([]simtime.Day{day}, nil)
	p := pts[0]
	if p.Full != 1 || p.Part != 1 || p.Non != 1 || p.Unknown != 2 || p.Total != 5 {
		t.Fatalf("classification = %+v", p)
	}
	if p.FullPct() != 100.0/3 {
		t.Errorf("FullPct over classified = %v", p.FullPct())
	}
	// Filters restrict the population.
	only := func(d string) Filter { return func(x string) bool { return x == d } }
	pts = an.NSCompositionSeries([]simtime.Day{day}, only("full.ru."))
	if pts[0].Total != 1 || pts[0].Full != 1 {
		t.Fatalf("filtered = %+v", pts[0])
	}
}

func TestHostingCompositionClassification(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	day := simtime.Day(10)
	addMeasurement(st, "a.ru.", day, nil, nil, []netip.Addr{ru}, false)
	addMeasurement(st, "b.ru.", day, nil, nil, []netip.Addr{ru, us}, false)
	addMeasurement(st, "c.ru.", day, nil, nil, []netip.Addr{us}, false)
	p := an.HostingCompositionSeries([]simtime.Day{day}, nil)[0]
	if p.Full != 1 || p.Part != 1 || p.Non != 1 {
		t.Fatalf("hosting classification = %+v", p)
	}
}

func TestTLDDependencyClassification(t *testing.T) {
	an, st, _, _ := unitAnalyzer(t)
	day := simtime.Day(5)
	addMeasurement(st, "a.ru.", day, []string{"ns1.x.ru.", "ns2.x.su."}, nil, nil, false) // full (ru+su)
	addMeasurement(st, "b.ru.", day, []string{"ns1.x.ru.", "ns.y.com."}, nil, nil, false) // part
	addMeasurement(st, "c.ru.", day, []string{"ns.y.com.", "ns.z.net."}, nil, nil, false) // non
	addMeasurement(st, "d.xn--p1ai.", day, []string{"ns.x.xn--p1ai."}, nil, nil, false)   // full (рф)
	p := an.TLDDependencySeries([]simtime.Day{day}, nil)[0]
	if p.Full != 2 || p.Part != 1 || p.Non != 1 {
		t.Fatalf("TLD classification = %+v", p)
	}
}

func TestTLDShareOverlap(t *testing.T) {
	an, st, _, _ := unitAnalyzer(t)
	day := simtime.Day(5)
	addMeasurement(st, "a.ru.", day, []string{"ns1.x.ru.", "ns.y.com."}, nil, nil, false)
	addMeasurement(st, "b.ru.", day, []string{"ns2.x.ru.", "ns3.x.ru."}, nil, nil, false)
	p := an.TLDShareSeries([]simtime.Day{day}, nil)[0]
	// Shares overlap: a.ru counts for both .ru and .com.
	if p.Share("ru") != 100 || p.Share("com") != 50 {
		t.Fatalf("shares: ru=%v com=%v", p.Share("ru"), p.Share("com"))
	}
	if got := TopTLDs([]TLDSharePoint{p}, 5); len(got) != 2 || got[0] != "ru" {
		t.Fatalf("TopTLDs = %v", got)
	}
	if TopTLDs(nil, 3) != nil {
		t.Fatal("TopTLDs(nil) non-nil")
	}
}

func TestMovementAccounting(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	b := registry.NewBuilder(5, "ru.")
	day1, day2 := simtime.Day(10), simtime.Day(20)
	mustReg := func(name string, created simtime.Day) {
		if err := b.Add(name, created, 0); err != nil {
			t.Fatal(err)
		}
	}
	// stays: in AS2 both days.
	mustReg("stays.ru.", 0)
	addMeasurement(st, "stays.ru.", day1, nil, nil, []netip.Addr{us}, false)
	// leaves: AS2 → AS1.
	mustReg("leaves.ru.", 0)
	addMeasurement(st, "leaves.ru.", day1, nil, nil, []netip.Addr{us}, false)
	// gone: in AS2 on day1, unmeasured on day2.
	mustReg("gone.ru.", 0)
	addMeasurement(st, "gone.ru.", day1, nil, nil, []netip.Addr{us}, false)
	// incomer: AS1 → AS2.
	mustReg("incomer.ru.", 0)
	addMeasurement(st, "incomer.ru.", day1, nil, nil, []netip.Addr{ru}, false)
	// newreg: registered after day1, lands in AS2.
	mustReg("newreg.ru.", day1+3)

	st.BeginSweep(day2)
	for name, addr := range map[string]netip.Addr{
		"stays.ru.": us, "leaves.ru.": ru, "incomer.ru.": us, "newreg.ru.": us,
	} {
		st.Add(store.Measurement{Domain: name, Day: day2, Config: store.Config{ApexAddrs: []netip.Addr{addr}}})
	}

	m := an.MovementAnalysis(2, day1, day2, b.Build(nil))
	if m.Original != 3 {
		t.Fatalf("Original = %d", m.Original)
	}
	if m.Remained != 1 || m.RelocatedOut != 1 || m.Gone != 1 {
		t.Fatalf("remained/out/gone = %d/%d/%d", m.Remained, m.RelocatedOut, m.Gone)
	}
	if m.RelocatedIn != 1 || m.NewlyRegistered != 1 {
		t.Fatalf("in/new = %d/%d", m.RelocatedIn, m.NewlyRegistered)
	}
	if m.OutDestinations[1] != 1 || m.InSources[1] != 1 {
		t.Fatalf("flows: out=%v in=%v", m.OutDestinations, m.InSources)
	}
	if m.RemainedPct() != 100.0/3 {
		t.Errorf("RemainedPct = %v", m.RemainedPct())
	}
	if d := m.TopDestinations(5); len(d) != 1 || d[0] != 1 {
		t.Errorf("TopDestinations = %v", d)
	}
}

func TestRelocationLatency(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	event := simtime.Day(100)
	// Three members on the event day; they relocate at +3, +9, never.
	addMeasurement(st, "fast.ru.", event, nil, nil, []netip.Addr{us}, false)
	addMeasurement(st, "slow.ru.", event, nil, nil, []netip.Addr{us}, false)
	addMeasurement(st, "stuck.ru.", event, nil, nil, []netip.Addr{us}, false)
	for _, d := range []simtime.Day{event + 3, event + 6, event + 9} {
		st.BeginSweep(d)
		fastAddr := ru
		slowAddr := us
		if d >= event+9 {
			slowAddr = ru
		}
		st.Add(store.Measurement{Domain: "fast.ru.", Day: d, Config: store.Config{ApexAddrs: []netip.Addr{fastAddr}}})
		st.Add(store.Measurement{Domain: "slow.ru.", Day: d, Config: store.Config{ApexAddrs: []netip.Addr{slowAddr}}})
		st.Add(store.Measurement{Domain: "stuck.ru.", Day: d, Config: store.Config{ApexAddrs: []netip.Addr{us}}})
	}
	rep := an.RelocationLatency(2, event, event+9)
	if rep.Relocated != 2 || rep.StillThere != 1 || rep.Gone != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Delays) != 2 || rep.Delays[0] != 3 || rep.Delays[1] != 9 {
		t.Fatalf("delays = %v", rep.Delays)
	}
	if med, ok := rep.Median(); !ok || med != 3 {
		t.Errorf("median = %d, %v", med, ok)
	}
	if p90, ok := rep.Percentile(90); !ok || p90 != 9 {
		t.Errorf("p90 = %d", p90)
	}
	empty := LatencyReport{}
	if _, ok := empty.Median(); ok {
		t.Error("median of empty report")
	}
}

func TestRelocationLatencyOnFixture(t *testing.T) {
	f := getFixture(t)
	rep := f.an.RelocationLatency(47846, simtime.Date(2022, 3, 8), simtime.StudyEnd)
	if rep.Relocated < 30 {
		t.Fatalf("sedo relocations = %d", rep.Relocated)
	}
	med, ok := rep.Median()
	if !ok {
		t.Fatal("no median")
	}
	// §6: "virtually all of the impacted sites quickly found new
	// providers" — the bulk relocates within the first weeks.
	if med > 45 {
		t.Errorf("median relocation latency = %d days, want quick (≤45)", med)
	}
}

func TestCompositionStrings(t *testing.T) {
	if CompFull.String() != "Full Russian" || CompPart.String() != "Part Russian" ||
		CompNon.String() != "Non Russian" || CompUnknown.String() != "Unknown" {
		t.Error("composition names do not match the paper's legend")
	}
}
