package openintel

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"slices"
	"sync/atomic"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// buildLossyPipeline is buildPipeline routed through the fault layer.
func buildLossyPipeline(t testing.TB, scale int, seed int64, profile dns.FaultProfile, workers int) (*Pipeline, *world.World, *dns.FaultTransport) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 3, Scale: scale, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ft := dns.NewFaultTransport(w.Mem, seed, w.Clock())
	ft.SetDefault(profile)
	r := dns.NewResolver(ft, w.Roots())
	r.Client = dns.NewSeededClient(ft, seed)
	return &Pipeline{
		Resolver: r,
		Seeds:    w.Registries,
		Clock:    w.Clock(),
		Store:    store.New(),
		Workers:  workers,
	}, w, ft
}

func TestScheduleEdgeCases(t *testing.T) {
	s := simtime.Date(2022, 1, 10)
	tests := []struct {
		name                  string
		start, end, denseFrom simtime.Day
		step                  int
		want                  []simtime.Day
	}{
		{
			name:  "end before start is empty",
			start: s, end: s.Add(-1), denseFrom: s, step: 3,
			want: nil,
		},
		{
			name:  "denseFrom before start clamps to start",
			start: s, end: s.Add(10), denseFrom: s.Add(-30), step: 2,
			want: []simtime.Day{s, s.Add(2), s.Add(4), s.Add(6), s.Add(8), s.Add(10)},
		},
		{
			name:  "step larger than window keeps endpoints",
			start: s, end: s.Add(5), denseFrom: s, step: 100,
			want: []simtime.Day{s, s.Add(5)},
		},
		{
			name:  "final day appended when step overshoots",
			start: s, end: s.Add(7), denseFrom: s, step: 3,
			want: []simtime.Day{s, s.Add(3), s.Add(6), s.Add(7)},
		},
		{
			name:  "single-day study",
			start: s, end: s, denseFrom: s, step: 3,
			want: []simtime.Day{s},
		},
		{
			name:  "monthly-only still includes the final day",
			start: simtime.Date(2021, 1, 1), end: simtime.Date(2021, 3, 15),
			denseFrom: simtime.Date(2022, 2, 1), step: 3,
			want: []simtime.Day{
				simtime.Date(2021, 1, 1), simtime.Date(2021, 2, 1),
				simtime.Date(2021, 3, 1), simtime.Date(2021, 3, 15),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Schedule(tt.start, tt.end, tt.denseFrom, tt.step)
			if len(got) != len(tt.want) {
				t.Fatalf("Schedule = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Schedule[%d] = %v, want %v (full: %v)", i, got[i], tt.want[i], tt.want)
				}
			}
		})
	}
}

// sweepOnce runs a single-worker lossy sweep and returns the stats plus
// the serialized store.
func sweepOnce(t *testing.T, faultSeed int64) (SweepStats, []byte) {
	t.Helper()
	p, _, _ := buildLossyPipeline(t, 20000, faultSeed, dns.FaultProfile{Loss: 0.25}, 1)
	stats, err := p.Sweep(context.Background(), simtime.ConflictStart)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return stats, buf.Bytes()
}

func TestLossySweepDeterminism(t *testing.T) {
	s1, b1 := sweepOnce(t, 7)
	s2, b2 := sweepOnce(t, 7)
	if deterministic(s1) != deterministic(s2) || s1.Retries != s2.Retries || s1.Recovered != s2.Recovered {
		t.Errorf("same fault seed, different stats:\n  %+v\n  %+v", s1, s2)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("same fault seed produced different store contents")
	}
	if s1.Retries == 0 {
		t.Error("a 25%-loss sweep recorded zero retries — faults not injected?")
	}
	s3, b3 := sweepOnce(t, 8)
	if s1 == s3 && bytes.Equal(b1, b3) {
		t.Error("different fault seeds replayed identical degradation")
	}
}

func TestLossySweepRecovers(t *testing.T) {
	// The acceptance bar from the experiment design: 10% loss with two
	// retries must lose no more than 1% of the zone.
	p, _, ft := buildLossyPipeline(t, 2000, 20220224, dns.FaultProfile{Loss: 0.10}, 8)
	drops := &injectedCounter{Transport: ft}
	p.Resolver.Client.Transport = drops
	stats, err := p.Sweep(context.Background(), simtime.ConflictStart)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Domains < 2048 {
		t.Fatalf("fixture too small for the acceptance bar: %d domains", stats.Domains)
	}
	if limit := stats.Domains / 100; stats.Failed > limit {
		t.Errorf("lossy sweep failed %d/%d domains, want ≤ %d (1%%)", stats.Failed, stats.Domains, limit)
	}
	if stats.Retries == 0 || stats.Recovered == 0 {
		t.Errorf("degradation counters empty on a lossy wire: %+v", stats)
	}
	if drops.n.Load() == 0 {
		t.Error("fault layer dropped nothing")
	}
	t.Logf("lossy sweep: %s", stats)
}

// injectedCounter counts the exchanges the fault layer under it drops.
type injectedCounter struct {
	dns.Transport
	n atomic.Int64
}

func (c *injectedCounter) Exchange(ctx context.Context, server netip.Addr, q *dns.Message) (*dns.Message, error) {
	resp, err := c.Transport.Exchange(ctx, server, q)
	if errors.Is(err, dns.ErrInjected) {
		c.n.Add(1)
	}
	return resp, err
}

func TestScheduledOutageRecordsFailures(t *testing.T) {
	// The registry outage is a day window on the fault layer, so it lifts
	// by itself when the clock moves on; the schedule records what
	// /api/v1/outages serves.
	day := simtime.MeasurementOutage
	p, w, ft := buildLossyPipeline(t, 20000, 11, dns.FaultProfile{}, 4)
	sched := netsim.NewOutageSchedule()
	w.ScheduleRegistryOutage(ft, dns.FaultProfile{}, simtime.OneDay(day), sched)

	stats, err := p.Sweep(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != stats.Domains || stats.Domains == 0 {
		t.Fatalf("outage sweep: %d/%d failed, want all", stats.Failed, stats.Domains)
	}
	want := []netsim.ScheduledEvent{
		{Key: "tld:ru", Kind: "outage", Window: simtime.OneDay(day)},
		{Key: "tld:xn--p1ai", Kind: "outage", Window: simtime.OneDay(day)},
	}
	if got := sched.Events(); !slices.Equal(got, want) {
		t.Errorf("outage schedule = %v, want both registry TLDs on %s", got, day)
	}

	// No cleanup call: the next day's sweep must succeed on its own.
	stats, err = p.Sweep(context.Background(), day.Add(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("post-outage sweep still failing: %d", stats.Failed)
	}
}

func TestSweepCancelMidSweep(t *testing.T) {
	p, w := buildPipeline(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int64
	w.Mem.SetTap(func(_ netip.Addr, _ *dns.Message) {
		// Pull the plug while workers are mid-resolution, not before the
		// sweep starts (TestSweepCancellation covers that).
		if atomic.AddInt64(&n, 1) == 50 {
			cancel()
		}
	})
	if _, err := p.Sweep(ctx, simtime.ConflictStart); err == nil {
		t.Fatal("sweep cancelled mid-flight reported success")
	}
	// The pipeline must remain usable after a cancelled sweep.
	w.Mem.SetTap(nil)
	stats, err := p.Sweep(context.Background(), simtime.ConflictStart)
	if err != nil {
		t.Fatalf("sweep after cancellation: %v", err)
	}
	if stats.Failed != 0 {
		t.Errorf("sweep after cancellation: %d failures", stats.Failed)
	}
}
