package openintel

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

func buildPipeline(t testing.TB, scale int) (*Pipeline, *world.World) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 3, Scale: scale, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{
		Resolver: w.NewResolver(),
		Seeds:    w.Registries,
		Clock:    w.Clock(),
		Store:    store.New(),
		Workers:  4,
	}, w
}

func TestSweepMeasuresActiveZone(t *testing.T) {
	p, w := buildPipeline(t, 20000)
	day := simtime.ConflictStart
	stats, err := p.Sweep(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	want := w.ActiveDomains(day)
	if stats.Domains != want {
		t.Fatalf("swept %d domains, registry has %d active", stats.Domains, want)
	}
	if stats.Failed != 0 {
		t.Errorf("%d failures in a healthy world", stats.Failed)
	}
	if p.Store.NumDomains() != want {
		t.Fatalf("store has %d domains, want %d", p.Store.NumDomains(), want)
	}
	// Every stored measurement must have NS data.
	for _, domain := range p.Store.Domains() {
		cfg, _ := p.Store.At(domain, day)
		if len(cfg.NSHosts) == 0 || len(cfg.NSAddrs) == 0 {
			t.Errorf("%s measured with empty NS data: %+v", domain, cfg)
		}
		if len(cfg.ApexAddrs) == 0 {
			t.Errorf("%s has no apex addresses", domain)
		}
	}
}

func TestSweepTracksZoneChanges(t *testing.T) {
	p, w := buildPipeline(t, 20000)
	ctx := context.Background()
	early := simtime.StudyStart
	late := simtime.StudyEnd
	s1, err := p.Sweep(ctx, early)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Sweep(ctx, late)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Domains == s2.Domains && w.ActiveDomains(early) != w.ActiveDomains(late) {
		t.Error("sweeps did not follow registry churn")
	}
	sweeps := p.Store.Sweeps()
	if len(sweeps) != 2 || sweeps[0] != early || sweeps[1] != late {
		t.Fatalf("recorded sweeps = %v", sweeps)
	}
}

func TestSweepCancellation(t *testing.T) {
	p, _ := buildPipeline(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Sweep(ctx, simtime.StudyStart); err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
}

func TestOutageRecordsFailures(t *testing.T) {
	p, w := buildPipeline(t, 20000)
	day := simtime.MustParse("2021-03-22") // the paper's footnote-8 outage
	// The registry TLD servers drop off the wire by hand, then come back.
	setOutage := func(down bool) {
		for _, tld := range []string{"ru", idn.RFTLDASCII} {
			for _, a := range w.TLDServerAddrs(tld) {
				w.Mem.SetUnreachable(a, down)
			}
		}
	}
	setOutage(true)
	stats, err := p.Sweep(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != stats.Domains {
		t.Fatalf("outage sweep: %d/%d failed, want all", stats.Failed, stats.Domains)
	}
	setOutage(false)
	stats, err = p.Sweep(context.Background(), day.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("post-outage sweep still failing: %d", stats.Failed)
	}
}

func TestSchedule(t *testing.T) {
	days := Schedule(simtime.StudyStart, simtime.StudyEnd, simtime.Date(2022, 2, 1), 3)
	if days[0] != simtime.StudyStart {
		t.Fatalf("first day = %v", days[0])
	}
	if days[len(days)-1] != simtime.StudyEnd {
		t.Fatalf("last day = %v", days[len(days)-1])
	}
	// Monotonic, unique.
	monthly, dense := 0, 0
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			t.Fatalf("schedule not increasing at %d: %v then %v", i, days[i-1], days[i])
		}
		if days[i] < simtime.Date(2022, 2, 1) {
			monthly++
		} else {
			dense++
		}
	}
	if monthly < 50 {
		t.Errorf("monthly sweeps = %d, want ≈ 55", monthly)
	}
	if dense < 30 {
		t.Errorf("dense sweeps = %d, want ≈ 38", dense)
	}
	// The Netnod cutoff day must land on a sweep (dense step 3 from Feb 1).
	found := false
	for _, d := range days {
		if d == simtime.Date(2022, 3, 3) {
			found = true
		}
	}
	if !found {
		t.Error("2022-03-03 missing from the dense schedule")
	}
	// Degenerate step defaults to 1.
	one := Schedule(0, 5, 0, 0)
	if len(one) != 6 {
		t.Errorf("degenerate schedule = %v", one)
	}
}

func TestStatsString(t *testing.T) {
	s := SweepStats{Day: simtime.MustParse("2022-02-24"), JournalStats: store.JournalStats{Domains: 10, Failed: 1, NXDomain: 2}}
	want := "2022-02-24: 10 domains, 1 failed, 2 nxdomain"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
}

func TestRunStopsOnError(t *testing.T) {
	p, _ := buildPipeline(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, []simtime.Day{simtime.StudyStart, simtime.StudyEnd}); err == nil {
		t.Fatal("Run with cancelled context succeeded")
	}
}

// TestSweepAllocs is the allocation gate on the resolver fast path: one
// full-zone sweep of the 1:2000 test world, eight workers, caches warm.
// A dropped buffer pool, a message nobody releases, a decode that
// re-allocates or a lookup that makes its own slice again multiplies the
// count. The clean sweep's bounds are the measured figures (≈480
// allocations, ≈300 KB: the pool's chunks and goroutines, the zone
// snapshot, the store's growth; under 0.1 allocation per measurement)
// plus a fifth.
//
// The durable sweep is the checkpointed one under 5 % loss: a seeded
// client over the fault layer, every sweep appended to a journal. Its
// measured figures are ≈510 allocations and ≈305 KB — a lost exchange
// allocates nothing, and the segment is encoded as the sweep runs into
// buffers the next sweep reuses — and the bounds add a fifth. Holding the
// day for one sorted encode, with an error formatted per lost exchange,
// took ≈2,380 allocations and ≈2.1 MB.
func TestSweepAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sweeps the zone for a second; sync.Pool drops items under the race detector")
	}
	w, err := world.Build(world.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := &Pipeline{Resolver: w.NewResolver(), Seeds: w.Registries, Clock: w.Clock(), Store: store.New(), Workers: 8}

	ft := dns.NewFaultTransport(w.Mem, 7, w.Clock())
	ft.SetDefault(dns.FaultProfile{Loss: 0.05})
	lossy := dns.NewResolver(ft, w.Roots())
	lossy.Client = dns.NewSeededClient(ft, 7)
	j, err := store.CreateJournal(filepath.Join(t.TempDir(), "sweeps.wrjl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	durable := &Pipeline{Resolver: lossy, Seeds: w.Registries, Clock: w.Clock(), Store: store.New(), Workers: 8, Checkpoint: j}

	for _, tc := range []struct {
		name          string
		p             *Pipeline
		allocs, bytes int64
	}{
		{"clean", clean, 576, 360000},
		{"durable", durable, 612, 366000},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.p.Sweep(context.Background(), simtime.ConflictStart); err != nil {
					b.Fatal(err)
				}
			}
		})
		t.Logf("%s sweep: %d allocs/op, %d B/op over %d sweeps", tc.name, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
		if got := res.AllocsPerOp(); got > tc.allocs {
			t.Errorf("a %s sweep allocates %d times, want at most %d", tc.name, got, tc.allocs)
		}
		if got := res.AllocedBytesPerOp(); got > tc.bytes {
			t.Errorf("a %s sweep allocates %d bytes, want at most %d", tc.name, got, tc.bytes)
		}
	}
}

// deterministic drops a sweep's runtime, keeping its record, so stats
// can be compared across runs and against journal replays.
func deterministic(s SweepStats) SweepStats {
	return SweepStats{Day: s.Day, JournalStats: s.JournalStats}
}

func TestLatencyHistogramBuckets(t *testing.T) {
	var h LatencyHistogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{time.Microsecond, 0},             // 1µs fits the first bound
		{2 * time.Microsecond, 1},         // 2µs fits the second
		{3 * time.Microsecond, 2},         // 3µs overflows it
		{time.Millisecond, 10},            // 1000µs ≤ 1024
		{time.Hour, latBuckets - 1},       // overflow bucket catches everything
		{100 * time.Nanosecond, 0},        // sub-µs truncates to 0µs
		{8 * time.Second, latBuckets - 1}, // 8e6µs ≤ 2^23
	}
	for _, tc := range cases {
		before := h.Counts[tc.bucket]
		h.Observe(tc.d)
		if h.Counts[tc.bucket] != before+1 {
			t.Errorf("Observe(%v): bucket %d not incremented (counts %v)", tc.d, tc.bucket, h.Counts)
		}
	}
	if h.Total() != uint64(len(cases)) {
		t.Errorf("Total() = %d, want %d", h.Total(), len(cases))
	}
}

func TestLatencyHistogramQuantile(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	// 90 observations in the 64µs bucket, 10 in the 1024µs bucket.
	for i := 0; i < 90; i++ {
		h.Observe(50 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(513 * time.Microsecond)
	}
	if got := h.Quantile(0.50); got != 64*time.Microsecond {
		t.Errorf("p50 = %v, want 64µs", got)
	}
	if got := h.Quantile(0.90); got != 64*time.Microsecond {
		t.Errorf("p90 = %v, want 64µs", got)
	}
	if got := h.Quantile(0.99); got != 1024*time.Microsecond {
		t.Errorf("p99 = %v, want 1024µs", got)
	}
}
