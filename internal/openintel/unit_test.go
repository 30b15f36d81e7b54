package openintel

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"whereru/internal/simtime"
	"whereru/internal/store"
)

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

// TestLatencyHistogramMergeExact: quantiles of a merged histogram equal
// those of the histogram that observed everything directly — the property
// that makes worker-side observation safe.
func TestLatencyHistogramMergeExact(t *testing.T) {
	var whole, a, b LatencyHistogram
	durations := []time.Duration{
		3 * time.Microsecond, 90 * time.Microsecond, 90 * time.Microsecond,
		400 * time.Microsecond, 7 * time.Millisecond, 2 * time.Second,
	}
	for i, d := range durations {
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged counts %v != direct counts %v", a.Counts, whole.Counts)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("quantile(%v): merged %v != direct %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestMeasureUnitMatchesSweep splits one day's inventory into units,
// measures them against a second world, and requires the recombined
// result — tallies, measurement set, committed store bytes — to match
// what Sweep produced in one piece. This is the grid's merge contract in
// miniature, without any networking.
func TestMeasureUnitMatchesSweep(t *testing.T) {
	day := simtime.ConflictStart
	ctx := context.Background()

	swept, _ := buildPipeline(t, 20000)
	stats, err := swept.Sweep(ctx, day)
	if err != nil {
		t.Fatal(err)
	}

	unitized, _ := buildPipeline(t, 20000)
	if unitized.Clock != nil {
		unitized.Clock.Set(day)
	}
	unitized.Resolver.FlushCache()
	seeds := unitized.Seeds.ZoneSnapshot(day)

	const shard = 64
	sum := SweepStats{Day: day, JournalStats: store.JournalStats{Domains: len(seeds)}}
	var ms []store.Measurement
	for start := 0; start < len(seeds); start += shard {
		end := min(start+shard, len(seeds))
		res, err := unitized.MeasureUnit(ctx, day, seeds[start:end])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Measurements) != end-start {
			t.Fatalf("unit [%d,%d) returned %d measurements", start, end, len(res.Measurements))
		}
		if !sort.SliceIsSorted(res.Measurements, func(i, j int) bool {
			return res.Measurements[i].Domain < res.Measurements[j].Domain
		}) {
			t.Fatalf("unit [%d,%d) measurements not sorted by domain", start, end)
		}
		sum.Failed += res.Failed
		sum.NXDomain += res.NXDomain
		sum.Unreachable += res.Unreachable
		sum.Retries += res.Retries
		sum.Recovered += res.Recovered
		ms = append(ms, res.Measurements...)
	}

	if sum.Failed != stats.Failed || sum.NXDomain != stats.NXDomain || sum.Unreachable != stats.Unreachable ||
		sum.Retries != stats.Retries || sum.Recovered != stats.Recovered {
		t.Errorf("recombined tallies %+v != sweep tallies %+v", sum, stats)
	}
	if unitized.Store.NumDomains() != 0 {
		t.Errorf("MeasureUnit touched the worker store (%d domains)", unitized.Store.NumDomains())
	}

	// Committing the recombined units reproduces Sweep's store bytes.
	if err := unitized.CommitSweep(sum, ms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes(t, unitized), storeBytes(t, swept)) {
		t.Error("committed unit measurements differ from Sweep's store")
	}
}

// TestCommitSweepJournalMatchesSweep: the journal CommitSweep writes is
// byte-identical to the one Sweep writes for the same day — shard merge
// order cannot leak into the checkpoint file.
func TestCommitSweepJournalMatchesSweep(t *testing.T) {
	day := simtime.ConflictStart
	ctx := context.Background()
	dir := t.TempDir()

	journalFor := func(name string, run func(p *Pipeline)) []byte {
		p, _ := buildPipeline(t, 20000)
		path := filepath.Join(dir, name)
		j, err := store.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		p.Checkpoint = j
		run(p)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	sweepJournal := journalFor("sweep.wrjl", func(p *Pipeline) {
		if _, err := p.Sweep(ctx, day); err != nil {
			t.Fatal(err)
		}
	})
	commitJournal := journalFor("commit.wrjl", func(p *Pipeline) {
		if p.Clock != nil {
			p.Clock.Set(day)
		}
		p.Resolver.FlushCache()
		seeds := p.Seeds.ZoneSnapshot(day)
		stats := SweepStats{Day: day, JournalStats: store.JournalStats{Domains: len(seeds)}}
		var ms []store.Measurement
		// Deliberately commit units in reverse order of measurement: the
		// journal sorts by domain, so order must not matter... but the
		// merge contract is unit-index order, so recombine that way.
		for start := 0; start < len(seeds); start += 100 {
			end := min(start+100, len(seeds))
			res, err := p.MeasureUnit(ctx, day, seeds[start:end])
			if err != nil {
				t.Fatal(err)
			}
			stats.Failed += res.Failed
			stats.NXDomain += res.NXDomain
			stats.Unreachable += res.Unreachable
			ms = append(ms, res.Measurements...)
		}
		if err := p.CommitSweep(stats, ms); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(sweepJournal, commitJournal) {
		t.Errorf("CommitSweep journal (%d bytes) differs from Sweep journal (%d bytes)", len(commitJournal), len(sweepJournal))
	}
}
