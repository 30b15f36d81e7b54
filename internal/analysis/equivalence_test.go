package analysis

import (
	"context"
	"net/netip"
	"reflect"
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
// accumulators produce (one snapshot, epochs sharded over workers, shards
// merged) must be element-for-element identical to the per-day reference
// path, for any worker count. These tests hold it to that on
// three worlds — the full integration fixture, a lossy fault-injected
// collection, and a handcrafted dropout world with epoch gaps — at
// several shard widths, including widths that do not divide the domain
// count evenly.

var equivWorkerCounts = []int{1, 3, 8}

// assertSeriesEqual runs every analysis in both engines and requires
// exact equality.
func assertSeriesEqual(t *testing.T, an *Analyzer, days []simtime.Day, filter Filter) {
	t.Helper()
	type check struct {
		name      string
		fast, ref func() interface{}
	}
	checks := []check{
		{"NSComposition",
			func() interface{} { return an.NSCompositionSeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, nsCompositionClassifier(an.Geo)) }},
		{"HostingComposition",
			func() interface{} { return an.HostingCompositionSeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, hostingCompositionClassifier(an.Geo)) }},
		{"TLDDependency",
			func() interface{} { return an.TLDDependencySeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, tldDependencyClassifier(an.Geo)) }},
		{"MailComposition",
			func() interface{} { return an.MailCompositionSeries(days, filter) },
			func() interface{} { return an.referenceSeries(days, filter, mailCompositionClassifier(an.Geo)) }},
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
	for _, c := range checks {
		got, want := c.fast(), c.ref()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (workers=%d): accumulator under the cold feeder diverges from reference\n got %+v\nwant %+v",
				c.name, an.Workers, got, want)
		}
	}
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
	for _, w := range equivWorkerCounts {
		an := &Analyzer{Store: f.store, Geo: f.w.Geo, Internet: f.w.Internet, Workers: w}
		for _, flt := range filters {
			assertSeriesEqual(t, an, f.days, flt.f)
		}
		for _, asn := range []netsim.ASN{16509, 47846, 13335, 15169} {
			got := an.MovementAnalysis(asn, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
			want := referenceMovementAnalysis(an, asn, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("MovementAnalysis(AS%d, workers=%d) diverges\n got %+v\nwant %+v", asn, w, got, want)
			}
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
	resolver, _ := w.NewFaultyResolver(7, dns.FaultProfile{Loss: 0.15, ServFail: 0.05})
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
	for _, workers := range equivWorkerCounts {
		an := &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet, Workers: workers}
		assertSeriesEqual(t, an, probe, nil)
	}
	// Loss-induced Failed configs on From, To and the sweeps between are
	// what the movement and relocation definitions must not count.
	assertMovementMatchesOracles(t, "lossy", &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet}, w.Registries,
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
	for _, workers := range equivWorkerCounts {
		an.Workers = workers
		assertSeriesEqual(t, an, probe, nil)
		only := func(d string) bool { return d == "gap.ru." || d == "flaky.ru." }
		assertSeriesEqual(t, an, probe, only)
	}
}

// BenchmarkAblationSeriesEpoch and BenchmarkAblationSeriesNaive contrast
// the epoch-sharded analysis engine against the per-day reference path on
// the same Figure 1 computation over every collected sweep: the naive
// path re-walks and re-classifies the whole store once per day, while the
// epoch engine classifies once per (domain, epoch, geo-version window)
// and spreads domains over the worker pool.
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
