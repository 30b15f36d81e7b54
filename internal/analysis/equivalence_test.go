package analysis

import (
	"context"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/geo"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// The cold feeder's contract is exact equivalence: every series its
// accumulator produces (one snapshot, every domain's epochs covered in
// the calling goroutine) must be element-for-element identical to the
// per-day reference path. These tests hold it to that on three worlds —
// the full integration fixture, a lossy fault-injected collection, and a
// handcrafted dropout world with epoch gaps.

// seriesCheck is one cold series beside its per-day reference.
type seriesCheck struct {
	name      string
	fast, ref func() interface{}
}

// coldSeriesChecks lists every composition, share and mail series of an
// over days and filter, each with its reference.
func coldSeriesChecks(an *Analyzer, days []simtime.Day, filter Filter) []seriesCheck {
	return []seriesCheck{
		{"NSComposition",
			func() interface{} { return an.NSCompositionSeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, nsCompositionClassifier(an.Geo)) }},
		{"HostingComposition",
			func() interface{} { return an.HostingCompositionSeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, hostingCompositionClassifier(an.Geo)) }},
		{"TLDDependency",
			func() interface{} { return an.TLDDependencySeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, tldDependencyClassifier(an.Geo)) }},
		{"TLDShare",
			func() interface{} { return an.TLDShareSeries(days, filter) },
			func() interface{} { return an.referenceTLDShareSeries(days, filter) }},
		{"ASNShare",
			func() interface{} { return an.ASNShareSeries(days, filter) },
			func() interface{} { return an.referenceASNShareSeries(days, filter) }},
		{"MailProvider",
			func() interface{} { return an.MailProviderSeries(days, filter) },
			func() interface{} { return an.referenceMailProviderSeries(days, filter) }},
	}
}

// assertSeriesEqual runs every analysis in both engines and requires
// exact equality.
func assertSeriesEqual(t *testing.T, an *Analyzer, days []simtime.Day, filter Filter) {
	t.Helper()
	for _, c := range coldSeriesChecks(an, days, filter) {
		if got, want := c.fast(), c.ref(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: accumulator under the cold feeder diverges from reference\n got %+v\nwant %+v",
				c.name, got, want)
		}
	}
}

// TestColdSeriesConcurrentCallers is the cold feeder's concurrency
// contract: parallelism lives across callers, so goroutines asking one
// fresh Analyzer for the same series at once share its snapshot, geo DB
// and (through the movement analysis beside them) its memo, and each
// must get exactly what a lone caller gets.
func TestColdSeriesConcurrentCallers(t *testing.T) {
	f := getFixture(t)
	sanc := f.w.Sanctions
	filter := func(d string) bool { return sanc.ContainsEver(d) }
	withMovement := func(an *Analyzer) []seriesCheck {
		return append(coldSeriesChecks(an, f.days, filter), seriesCheck{name: "Movement",
			fast: func() interface{} {
				return an.MovementAnalysis(16509, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
			}})
	}
	var want []interface{}
	for _, c := range withMovement(f.an) {
		want = append(want, c.fast())
	}
	checks := withMovement(&Analyzer{Store: f.store, Geo: f.w.Geo, Internet: f.w.Internet})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range checks {
				j := (i + g) % len(checks) // callers start on different series
				if got := checks[j].fast(); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("caller %d: %s differs from its sequential result\n got %+v\nwant %+v",
						g, checks[j].name, got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEquivalenceOnFixture(t *testing.T) {
	f := getFixture(t)
	sanc := f.w.Sanctions
	filters := []struct {
		name string
		f    Filter
	}{
		{"all", nil},
		{"sanctioned", func(d string) bool { return sanc.ContainsEver(d) }},
	}
	an := &Analyzer{Store: f.store, Geo: f.w.Geo, Internet: f.w.Internet}
	for _, flt := range filters {
		assertSeriesEqual(t, an, f.days, flt.f)
	}
	for _, asn := range []netsim.ASN{16509, 47846, 13335, 15169} {
		got := an.MovementAnalysis(asn, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
		want := referenceMovementAnalysis(an, asn, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("MovementAnalysis(AS%d) diverges\n got %+v\nwant %+v", asn, got, want)
		}
	}
}

// TestEquivalenceOnLossyWorld repeats the check on a fault-injected
// collection: loss-induced Failed configs and retry-recovered
// measurements must flow through both engines identically.
func TestEquivalenceOnLossyWorld(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 20220224, Scale: 20000, RFShare: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ft := dns.NewFaultTransport(w.Mem, 7, w.Clock())
	ft.SetDefault(dns.FaultProfile{Loss: 0.15})
	resolver := dns.NewResolver(ft, w.Roots())
	resolver.Client = dns.NewSeededClient(ft, 7)
	st := store.New()
	pipe := &openintel.Pipeline{
		Resolver:  resolver,
		Seeds:     w.Registries,
		Clock:     w.Clock(),
		Store:     st,
		Workers:   4,
		CollectMX: true,
	}
	days := []simtime.Day{
		simtime.StudyStart,
		simtime.Date(2022, 2, 20),
		simtime.ConflictStart,
		simtime.Date(2022, 3, 4),
		simtime.Date(2022, 3, 12),
		simtime.StudyEnd,
	}
	if _, err := pipe.Run(context.Background(), days); err != nil {
		t.Fatal(err)
	}
	// Also probe days the sweep never ran on: carry-forward and
	// before-first-measurement behavior must match too.
	probe := append(append([]simtime.Day{simtime.StudyStart - 10}, days...),
		simtime.Date(2022, 3, 5), simtime.StudyEnd+10)
	an := &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet}
	assertSeriesEqual(t, an, probe, nil)
	// Loss-induced Failed configs on From, To and the sweeps between are
	// what the movement and relocation definitions must not count.
	assertMovementMatchesOracles(t, "lossy", an, w.Registries,
		[]netsim.ASN{47846, 16509, 197695, 12389}, probe, []simtime.Day{simtime.Date(2022, 3, 12), simtime.StudyEnd})
}

// TestEquivalenceOnDropoutWorld hand-builds the store shapes the fixture
// rarely produces in bulk: epoch gaps (a domain missing sweeps in the
// middle of its life), zone dropout, failed measurements, and a geo
// snapshot boundary mid-window so classification genuinely varies by
// day for a fixed config.
func TestEquivalenceOnDropoutWorld(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	// Second geo snapshot at day 50 swaps the countries, so every
	// geo-dependent classification flips mid-window.
	in := an.Internet
	b := geo.NewBuilder()
	for _, alloc := range in.Allocations() {
		as, _ := in.Lookup(alloc.ASN)
		country := geo.RU
		if as.Country == geo.RU {
			country = geo.US
		}
		b.Add(alloc.Prefix, country)
	}
	if err := an.Geo.Snapshot(50, b); err != nil {
		t.Fatal(err)
	}

	ruNS := store.Config{NSHosts: []string{"ns.a.ru."}, NSAddrs: []netip.Addr{ru},
		ApexAddrs: []netip.Addr{ru}, MXHosts: []string{"mx.yandex.net."}}
	usNS := store.Config{NSHosts: []string{"ns.b.com."}, NSAddrs: []netip.Addr{us},
		ApexAddrs: []netip.Addr{us}, MXHosts: []string{"mx.google.com."}}
	mixed := store.Config{NSHosts: []string{"ns.a.ru.", "ns.b.com."}, NSAddrs: []netip.Addr{ru, us},
		ApexAddrs: []netip.Addr{ru, us}}
	failed := store.Config{Failed: true}
	// Per-domain life stories, keyed by sweep day; a missing sweep is an
	// epoch gap (or zone dropout at the tail).
	lives := map[string]map[simtime.Day]store.Config{
		"steady.ru.":  {10: ruNS, 20: ruNS, 30: ruNS, 40: ruNS, 60: ruNS, 70: ruNS},
		"gap.ru.":     {10: usNS, 40: usNS, 70: usNS}, // carries across gaps
		"dropout.ru.": {10: mixed, 20: mixed},         // leaves the zone after 20
		"late.ru.":    {60: ruNS, 70: usNS},           // appears mid-study
		"flaky.ru.":   {10: ruNS, 20: failed, 30: ruNS, 60: failed, 70: usNS},
		"moved.ru.":   {10: usNS, 20: usNS, 30: ruNS, 40: ruNS, 60: ruNS, 70: ruNS},
	}
	// Deterministic insertion order so the store's contents don't depend
	// on map iteration.
	names := []string{"steady.ru.", "gap.ru.", "dropout.ru.", "late.ru.", "flaky.ru.", "moved.ru."}
	for _, day := range []simtime.Day{10, 20, 30, 40, 60, 70} {
		st.BeginSweep(day)
		for _, name := range names {
			if cfg, ok := lives[name][day]; ok {
				st.Add(store.Measurement{Domain: name, Day: day, Config: cfg})
			}
		}
	}

	// Probe every behavior class: before any sweep, on sweeps, between
	// sweeps (carry-forward), inside the gap, across the geo flip at 50,
	// and past the last sweep.
	probe := []simtime.Day{5, 10, 15, 20, 25, 30, 40, 45, 50, 55, 60, 65, 70, 75}
	assertSeriesEqual(t, an, probe, nil)
	only := func(d string) bool { return d == "gap.ru." || d == "flaky.ru." }
	assertSeriesEqual(t, an, probe, only)
}

// BenchmarkAblationSeriesEpoch and BenchmarkAblationSeriesNaive contrast
// the epoch analysis engine against the per-day reference path on the
// same Figure 1 computation over every collected sweep: the naive path
// re-walks and re-classifies the whole store once per day, while the
// epoch engine classifies once per (domain, epoch, geo-version window).
func BenchmarkAblationSeriesEpoch(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := f.an.NSCompositionSeries(f.days, nil); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkAblationSeriesNaive(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := f.an.referenceSeries(f.days, nil, nsCompositionClassifier(f.an.Geo)); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}
