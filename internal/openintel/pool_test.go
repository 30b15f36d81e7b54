package openintel

import (
	"context"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// poolWorld builds a 1:2000 world at day and returns it with the day's
// inventory: enough names (≥2049) that the pool runs at its full chunk
// size of 32, which it reaches once len(domains) ≥ 128·workers.
func poolWorld(t *testing.T, day simtime.Day) (*world.World, []string) {
	t.Helper()
	_, w := buildPipeline(t, 2000)
	w.Clock().Set(day)
	seeds := w.Registries.ZoneSnapshot(day)
	if len(seeds) < 2049 {
		t.Fatalf("zone has %d names on %s, the table needs 2049", len(seeds), day)
	}
	return w, seeds
}

// TestMeasurePoolDeliversEachDomainOnce walks the pool's edges: nothing
// to do, fewer domains than workers, and one short of, exactly, and one
// past a whole number of chunks (2048 = 64 chunks of 32). Every domain
// must reach the sink exactly once, on the calling goroutine, and
// OnProgress must fire once per 2048 completions with the unit's total.
func TestMeasurePoolDeliversEachDomainOnce(t *testing.T) {
	day := simtime.ConflictStart
	w, seeds := poolWorld(t, day)
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, 2047, 2048, 2049} {
			var mu sync.Mutex
			var progress []int
			p := &Pipeline{
				Resolver: w.NewResolver(),
				Workers:  workers,
				OnProgress: func(done, total int) {
					mu.Lock()
					defer mu.Unlock()
					if total != n {
						t.Errorf("workers=%d n=%d: OnProgress total %d", workers, n, total)
					}
					progress = append(progress, done)
				},
			}
			delivered := make(map[string]int, n) // unlocked: the sink runs on this goroutine
			p.measurePool(context.Background(), day, seeds[:n], func(r measured) {
				if r.m.Day != day || r.m.Config.Failed {
					t.Errorf("workers=%d n=%d: %s measured as %+v", workers, n, r.m.Domain, r.m)
				}
				delivered[r.m.Domain]++
			})
			if len(delivered) != n {
				t.Errorf("workers=%d n=%d: %d distinct domains delivered", workers, n, len(delivered))
			}
			for _, d := range seeds[:n] {
				if delivered[d] != 1 {
					t.Errorf("workers=%d n=%d: %s delivered %d times", workers, n, d, delivered[d])
				}
			}
			sort.Ints(progress)
			if len(progress) != n/2048 || (len(progress) == 1 && progress[0] != 2048) {
				t.Errorf("workers=%d n=%d: OnProgress done values %v", workers, n, progress)
			}
		}
	}
}

// TestMeasurePoolCancelDeliversPartial cancels after 100 exchanges (about
// 25 domains: inside the first chunk of every worker). What was measured
// before the cancel must still reach the sink — with one worker that is a
// part of one chunk, so a pool that dropped unfinished chunks delivers
// nothing — no domain may arrive twice, the pool must stop well short of
// the zone, and every pool goroutine must be gone afterwards.
func TestMeasurePoolCancelDeliversPartial(t *testing.T) {
	day := simtime.ConflictStart
	w, seeds := poolWorld(t, day)
	defer w.Mem.SetTap(nil)
	for _, workers := range []int{1, 3, 8} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var exchanges atomic.Int64
		w.Mem.SetTap(func(netip.Addr, *dns.Message) {
			if exchanges.Add(1) == 100 {
				cancel()
			}
		})
		p := &Pipeline{Resolver: w.NewResolver(), Workers: workers}
		delivered := make(map[string]int)
		p.measurePool(ctx, day, seeds, func(r measured) { delivered[r.m.Domain]++ })
		cancel()

		if len(delivered) == 0 || len(delivered) >= len(seeds) {
			t.Errorf("workers=%d: cancelled pool delivered %d of %d domains, want a strict non-empty partial", workers, len(delivered), len(seeds))
		}
		for d, c := range delivered {
			if c != 1 {
				t.Errorf("workers=%d: %s delivered %d times", workers, d, c)
			}
		}
		// The workers have exited by the time measurePool returns; the
		// goroutine that closed the channel may still be on its way out.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after cancel, %d before", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
