package world

import (
	"runtime"
	"testing"
)

// heapNow is the live heap after the collector has settled (two cycles:
// the first can leave just-unreachable objects for the next sweep).
func heapNow() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCorpusHoldsNothingNobodyReads measures what the certificate corpus
// keeps per certificate by dropping its owners in turn — the CT log, the
// scan endpoints, the store — and reading the heap after each. A
// certificate is its struct, its SAN list, the one name made for it and
// three pointers (issuance order, serial index, log entry): ≈170 bytes.
// A second copy of its issuer strings, a serial-keyed map or a leaf hash
// computed at build time each show here (all three together were 345).
func TestCorpusHoldsNothingNobodyReads(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	w, err := Build(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	certs := w.Certs.Len()
	if certs < 5000 {
		t.Fatalf("%d certificates", certs)
	}
	held := heapNow()
	w.CTLog = nil
	afterLog := heapNow()
	w.Scanner = nil
	afterScan := heapNow()
	w.Certs = nil
	afterCerts := heapNow()
	runtime.KeepAlive(w)
	corpus := int64(held) - int64(afterCerts)
	t.Logf("%d certificates: log %d + scanner %d + store %d = %d bytes, %.1f per certificate",
		certs, int64(held)-int64(afterLog), int64(afterLog)-int64(afterScan), int64(afterScan)-int64(afterCerts),
		corpus, float64(corpus)/float64(certs))
	if corpus > int64(190*certs) {
		t.Errorf("the corpus holds %d bytes for %d certificates (%.1f each), want at most 190 each",
			corpus, certs, float64(corpus)/float64(certs))
	}
	if corpus < int64(100*certs) {
		t.Errorf("the corpus reads %d bytes for %d certificates: the probe is not measuring it", corpus, certs)
	}
}

// TestBuildAllocs is the allocation gate on world.Build (what CI's
// "Bench allocs gate" read off BenchmarkWorldBuild): a per-domain
// math/rand register costs +31 MB per build, a certificate that copies
// its names or its issuer +90,000 allocations, the per-domain records and
// registry maps the domain table replaced +31,000 and +1.5 MB.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds the world for a second")
	}
	cfg := TestConfig()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("world.Build: %d allocs/op, %d B/op over %d builds", res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if got := res.AllocsPerOp(); got > 54600 {
		t.Errorf("world.Build allocates %d times, want at most 54,600", got)
	}
	if got := res.AllocedBytesPerOp(); got > 5000000 {
		t.Errorf("world.Build allocates %d bytes, want at most 5.0 MB", got)
	}
}
