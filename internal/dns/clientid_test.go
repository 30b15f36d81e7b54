package dns

import (
	"sync"
	"testing"
)

// TestSeededIDsPinned holds the seeded ID function to values the
// mutex-and-rand client computed: FaultTransport hashes the ID into every
// fault decision, so one moved bit moves every fault-seeded artifact.
func TestSeededIDsPinned(t *testing.T) {
	c := NewSeededClient(nil, 99)
	if got := c.idFor("a.ru.", TypeA, 0); got != 42929 {
		t.Errorf("idFor(a.ru., A, 0) = %d, want 42929", got)
	}
	if got := c.idFor("xn--e1afmkfd.xn--p1ai.", TypeMX, 2); got != 41795 {
		t.Errorf("idFor(xn--e1afmkfd.xn--p1ai., MX, 2) = %d, want 41795", got)
	}
	// The backoff jitter's draw: 0.5 + 9559/2^17 = 0.5729293823242188.
	if got := c.idFor("a.ru.", Type(0xFFFF), 1); got != 9559 {
		t.Errorf("idFor(a.ru., 0xFFFF, 1) = %d, want 9559", got)
	}
}

// TestUnseededIDsConcurrent draws IDs the way a clean sweep's workers do:
// eight goroutines on one unseeded client (run under -race). The draw
// shares nothing but an atomic counter, allocates nothing, and spreads
// over the ID space as a random draw would (80,000 uniform draws leave
// ≈46,000 distinct values; a stuck or narrow generator leaves far fewer).
func TestUnseededIDsConcurrent(t *testing.T) {
	const workers, each = 8, 10000
	c := NewClient(nil)
	ids := make([][]uint16, workers)
	var wg sync.WaitGroup
	for w := range ids {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint16, each)
			for i := range out {
				out[i] = c.idFor("a.ru.", TypeA, 0)
			}
			ids[w] = out
		}()
	}
	wg.Wait()
	if got := c.draws.Load(); got != workers*each {
		t.Fatalf("%d draws counted, want %d", got, workers*each)
	}
	distinct := make(map[uint16]struct{})
	for _, out := range ids {
		for _, id := range out {
			distinct[id] = struct{}{}
		}
	}
	if len(distinct) < 40000 {
		t.Errorf("%d draws gave %d distinct IDs, want at least 40000", workers*each, len(distinct))
	}
	if got := testing.AllocsPerRun(1000, func() { c.idFor("a.ru.", TypeA, 0) }); got != 0 {
		t.Errorf("an unseeded ID draw allocates %.1f times, want 0", got)
	}
}
