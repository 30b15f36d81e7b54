package world

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// equalStreams draws n values from a lazySource already seeded with seed
// and from a fresh math/rand source, alternating Uint64 and Int63 so both
// entry points are held to the reference.
func equalStreams(t *testing.T, got *lazySource, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, g, w)
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 %#x, math/rand %#x", seed, i, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand holds lazySource to math/rand over the
// seeds rngSource.Seed treats specially (0, negatives, multiples of 2³¹−1,
// ±2⁶³) and a spread of ordinary ones, 3,000 draws each: every register
// word is read seeded, overwritten, and re-read across four wraps. One
// source serves all seeds, so a Seed that left a word or a bitmap bit of
// the previous stream behind fails on the next seed.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 7, 89482311, seedM - 1, seedM, seedM + 1, -seedM, 2 * seedM, -3 * seedM,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for i := int64(0); i < 194; i++ {
		seeds = append(seeds, 7^(i+1)*0x5851F42D4C957F2D) // the per-domain seeds of Seed 7
	}
	var src lazySource
	for _, seed := range seeds {
		src.Seed(seed)
		equalStreams(t, &src, seed, 3000)
	}
	// Reseeding mid-stream after only a few draws (what buildDomains does).
	for _, seed := range seeds {
		src.Seed(seed)
		equalStreams(t, &src, seed, 11)
	}
}

// TestBuildMatchesMathRand is the end the stream tests serve: every
// domain Build generated from its one reseeded lazySource — through
// Float64, Intn and ExpFloat64 of a rand.Rand that is never rebuilt — is,
// read back out of the table under its generation index, the domain a
// fresh math/rand generator seeded for it alone produces.
func TestBuildMatchesMathRand(t *testing.T) {
	for _, cfg := range []Config{{Seed: 3, Scale: 20000, RFShare: 0.1}, TestConfig()} {
		w, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.NumDomains(); i++ {
			var want draft
			w.genDomain(i, rand.New(rand.NewSource(w.domainSeed(i))), &want)
			if got := draftOf(w, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("scale %d domain %d: built %+v, math/rand gives %+v", cfg.Scale, i, got, want)
			}
		}
		if got, want := w.NumDomains(), cfg.NumDomains()+w.Sanctions.Len(); got != want {
			t.Errorf("scale %d: world has %d domains, %d generated + sanctioned", cfg.Scale, got, want)
		}
	}
}

// FuzzSeedStream is the differential against math/rand for arbitrary
// seeds and stream lengths, first on a source that has just produced
// another stream (a stale bitmap or register word must show) and then on
// a fresh one.
func FuzzSeedStream(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(7), uint16(2*rngLen+1))
	f.Add(int64(-1), uint16(rngLen))
	f.Add(int64(seedM), uint16(rngLen-rngTap))
	f.Add(int64(math.MinInt64), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var used lazySource
		used.Seed(^seed)
		for i := 0; i < int(draws%700); i++ {
			used.Uint64()
		}
		used.Seed(seed)
		equalStreams(t, &used, seed, int(draws))

		var fresh lazySource
		fresh.Seed(seed)
		equalStreams(t, &fresh, seed, int(draws))
	})
}

var sinkU64 uint64

// BenchmarkSeedAndDraw is one domain's worth of generator work: a seed
// and 30 draws (the median domain makes 11, the busiest 26).
func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("lazySource", func(b *testing.B) {
		b.ReportAllocs()
		var src lazySource
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			for d := 0; d < 30; d++ {
				sinkU64 += src.Uint64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := rand.NewSource(int64(i)).(rand.Source64)
			for d := 0; d < 30; d++ {
				sinkU64 += src.Uint64()
			}
		}
	})
}
