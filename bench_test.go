// Package whereru's root benchmark harness: one benchmark per table and
// figure in the paper's evaluation (see DESIGN.md §3 for the mapping),
// plus the ablation benchmarks for the design choices DESIGN.md §4 calls
// out. The world is built and collected once per `go test -bench` run;
// each benchmark then measures regenerating its experiment from the
// collected data, which is the recurring cost in a real measurement
// pipeline (collection happens once, analyses run many times).
package whereru

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"testing"

	"whereru/internal/analysis"
	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/openintel"
	"whereru/internal/pki"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	benchErr   error
)

func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := core.New(core.QuickOptions())
		if err != nil {
			benchErr = err
			return
		}
		if err := s.Collect(context.Background()); err != nil {
			benchErr = err
			return
		}
		benchStudy = s
	})
	if benchErr != nil {
		b.Fatalf("building bench study: %v", benchErr)
	}
	return benchStudy
}

// BenchmarkFig1NSComposition regenerates Figure 1 (name-server country
// composition over the full study window).
func BenchmarkFig1NSComposition(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Fig1(); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig2TLDDependency regenerates Figure 2.
func BenchmarkFig2TLDDependency(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Fig2(); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig3TopTLDs regenerates Figure 3.
func BenchmarkFig3TopTLDs(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := s.Fig3()
		if top := analysis.TopTLDs(series, 5); len(top) != 5 {
			b.Fatal("missing TLDs")
		}
	}
}

// BenchmarkFig4ASNShares regenerates Figure 4.
func BenchmarkFig4ASNShares(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Fig4(); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig5Sanctioned regenerates Figure 5.
func BenchmarkFig5Sanctioned(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Fig5(); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig6AmazonMovement regenerates Figure 6.
func BenchmarkFig6AmazonMovement(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := s.Movement(16509, world.AmazonStmtDay); m.Original == 0 {
			b.Fatal("empty movement")
		}
	}
}

// BenchmarkFig7SedoMovement regenerates Figure 7.
func BenchmarkFig7SedoMovement(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := s.Movement(47846, world.SedoStmtDay.Add(-1)); m.Original == 0 {
			b.Fatal("empty movement")
		}
	}
}

// BenchmarkCloudflareGoogleMovement regenerates the remaining §3.4 case
// studies.
func BenchmarkCloudflareGoogleMovement(b *testing.B) {
	s := study(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := s.Movement(13335, world.CloudflareStmtDay); m.Original == 0 {
			b.Fatal("empty movement")
		}
		s.Movement(15169, world.GoogleStmtDay)
	}
}

// BenchmarkTable1Issuance regenerates Table 1 from the CT log.
func BenchmarkTable1Issuance(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if periods := s.Table1(); len(periods) != 3 {
			b.Fatal("missing periods")
		}
	}
}

// BenchmarkFig8CATimelines regenerates Figure 8 from the CT log.
func BenchmarkFig8CATimelines(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tls := s.Fig8(); len(tls) == 0 {
			b.Fatal("no timelines")
		}
	}
}

// BenchmarkTable2Revocations regenerates Table 2 from CT + CRL state.
func BenchmarkTable2Revocations(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.Table2(); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkRussianCAImpact regenerates the §4.3 analysis from scan data.
func BenchmarkRussianCAImpact(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.RussianCA(); rep.UniqueCerts == 0 {
			b.Fatal("no certs")
		}
	}
}

// BenchmarkHostingComposition regenerates the §3.1 hosting breakdown.
func BenchmarkHostingComposition(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Hosting(); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkIssuanceRate regenerates the §4 per-day issuance volumes.
func BenchmarkIssuanceRate(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range s.Table1() {
			if p.PerDay() < 0 {
				b.Fatal("negative rate")
			}
		}
	}
}

// BenchmarkRenderAll renders the complete report (all charts + tables).
func BenchmarkRenderAll(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RenderAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures one full-zone measurement sweep (iterative
// resolution of every registered domain over the in-memory wire).
func BenchmarkSweep(b *testing.B) {
	s := study(b)
	pipe := &openintel.Pipeline{
		Resolver: s.World.NewResolver(),
		Seeds:    s.World.Registries,
		Clock:    s.World.Clock(),
		Store:    store.New(),
		Workers:  8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Sweep(context.Background(), simtime.ConflictStart); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepLossy is BenchmarkSweep over a degraded wire: 10%
// injected packet loss with two retries, quantifying what deterministic
// fault injection plus recovery costs relative to the clean sweep.
func BenchmarkSweepLossy(b *testing.B) {
	s := study(b)
	// Built as core builds a lossy study's resolver (Options.Loss).
	seed := s.Opts.World.Seed
	ft := dns.NewFaultTransport(s.World.Mem, seed, s.World.Clock())
	ft.SetDefault(dns.FaultProfile{Loss: 0.10})
	resolver := dns.NewResolver(ft, s.World.Roots())
	resolver.Client = dns.NewSeededClient(ft, seed)
	pipe := &openintel.Pipeline{
		Resolver: resolver,
		Seeds:    s.World.Registries,
		Clock:    s.World.Clock(),
		Store:    store.New(),
		Workers:  8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := pipe.Sweep(context.Background(), simtime.ConflictStart)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Failed > stats.Domains/100 {
			b.Fatalf("lossy sweep failed %d/%d domains", stats.Failed, stats.Domains)
		}
	}
}

// BenchmarkWorldBuild measures constructing the whole ecosystem
// (providers, domains, events, certificates, CT log).
func BenchmarkWorldBuild(b *testing.B) {
	cfg := world.TestConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationResolveInMemory times one cold resolution over the
// in-memory wire, the cost full-zone daily sweeps pay per name.
func BenchmarkAblationResolveInMemory(b *testing.B) {
	s := study(b)
	s.World.Clock().Set(simtime.ConflictStart)
	r := s.World.NewResolver()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FlushCache()
		if _, err := r.LookupA(ctx, "sanctioned001.ru.", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationResolverCache quantifies the delegation/host caches:
// with the cache warm, repeated resolutions skip the root and TLD hops.
func BenchmarkAblationResolverCacheWarm(b *testing.B) {
	s := study(b)
	s.World.Clock().Set(simtime.ConflictStart)
	r := s.World.NewResolver()
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "sanctioned001.ru.", nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupA(ctx, "sanctioned001.ru.", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStoreEpochVsNaive contrasts epoch-compressed storage
// against one-record-per-sweep storage for a stable domain measured over
// 200 sweeps.
func BenchmarkAblationStoreEpoch(b *testing.B) {
	cfg := store.Config{
		NSHosts:   []string{"ns1.reg.ru.", "ns2.reg.ru."},
		NSAddrs:   []netip.Addr{netip.MustParseAddr("11.0.0.1")},
		ApexAddrs: []netip.Addr{netip.MustParseAddr("11.0.1.1")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := store.New()
		for d := simtime.Day(0); d < 200; d++ {
			st.Add(store.Measurement{Domain: "x.ru.", Day: d, Config: cfg})
		}
		if stats := st.Stats(); stats.Epochs != 1 {
			b.Fatalf("epochs = %d", stats.Epochs)
		}
	}
}

func BenchmarkAblationStoreNaive(b *testing.B) {
	cfg := store.Config{
		NSHosts:   []string{"ns1.reg.ru.", "ns2.reg.ru."},
		NSAddrs:   []netip.Addr{netip.MustParseAddr("11.0.0.1")},
		ApexAddrs: []netip.Addr{netip.MustParseAddr("11.0.1.1")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The naive baseline: one distinct record per sweep (forced by
		// making each day's config unique, defeating compression).
		st := store.New()
		for d := simtime.Day(0); d < 200; d++ {
			c := cfg
			c.NSHosts = []string{fmt.Sprintf("ns%d.reg.ru.", d)}
			st.Add(store.Measurement{Domain: "x.ru.", Day: d, Config: c})
		}
		if stats := st.Stats(); stats.Epochs != 200 {
			b.Fatalf("epochs = %d", stats.Epochs)
		}
	}
}

// TestBenchFixture keeps `go test ./` meaningful: the shared fixture
// builds and the headline numbers are sane.
func TestBenchFixture(t *testing.T) {
	s, err := core.New(core.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	fig1 := s.Fig1()
	if len(fig1) == 0 {
		t.Fatal("no Figure 1 series")
	}
	last := fig1[len(fig1)-1]
	if last.FullPct() < 65 || last.FullPct() > 82 {
		t.Errorf("final fully-Russian NS share = %.1f, want ≈ 73.9", last.FullPct())
	}
	if err := s.RenderAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	var md testWriter
	if err := s.ExperimentsMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if md.n == 0 {
		t.Fatal("empty experiments markdown")
	}
	rows := s.Table2()
	for _, r := range rows {
		if r.Org == pki.DigiCert && r.SancRevokedPct() != 100 {
			t.Errorf("DigiCert sanctioned revocation = %.1f%%, want 100%%", r.SancRevokedPct())
		}
	}
}

type testWriter struct{ n int }

func (w *testWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
