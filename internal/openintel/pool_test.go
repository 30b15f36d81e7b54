package openintel

import (
	"bytes"
	"context"
	"net/netip"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
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
// must reach the sink exactly once, on the calling goroutine.
func TestMeasurePoolDeliversEachDomainOnce(t *testing.T) {
	day := simtime.ConflictStart
	w, seeds := poolWorld(t, day)
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, workers - 1, 2047, 2048, 2049} {
			p := &Pipeline{Resolver: w.NewResolver(), Workers: workers}
			delivered := make(map[string]int, n) // unlocked: the sink runs on this goroutine
			p.measurePool(context.Background(), day, seeds[:n], false, func(r measured) {
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
		p.measurePool(ctx, day, seeds, false, func(r measured) { delivered[r.m.Domain]++ })
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

// TestMeasurePoolOrdered pins the checkpointed sweep's delivery order:
// with ordered set the sink sees exactly the seeds in order, and a pool
// cancelled mid-sweep (after 1,000 exchanges, some hundreds of domains)
// delivers a non-empty, strict prefix of them — a journal segment built
// from it lists the zone in name order, with no gap.
func TestMeasurePoolOrdered(t *testing.T) {
	day := simtime.ConflictStart
	w, seeds := poolWorld(t, day)
	defer w.Mem.SetTap(nil)
	for _, workers := range []int{3, 8} {
		var got []string
		p := &Pipeline{Resolver: w.NewResolver(), Workers: workers}
		p.measurePool(context.Background(), day, seeds, true, func(r measured) { got = append(got, r.m.Domain) })
		if !slices.Equal(got, seeds) {
			t.Errorf("workers=%d: %d domains delivered, not the %d seeds in order", workers, len(got), len(seeds))
		}

		ctx, cancel := context.WithCancel(context.Background())
		var exchanges atomic.Int64
		w.Mem.SetTap(func(netip.Addr, *dns.Message) {
			if exchanges.Add(1) == 1000 {
				cancel()
			}
		})
		got = got[:0]
		p = &Pipeline{Resolver: w.NewResolver(), Workers: workers}
		p.measurePool(ctx, day, seeds, true, func(r measured) { got = append(got, r.m.Domain) })
		cancel()
		w.Mem.SetTap(nil)
		if len(got) == 0 || len(got) >= len(seeds) || !slices.Equal(got, seeds[:len(got)]) {
			t.Errorf("workers=%d: a cancelled ordered pool delivered %d of %d domains, want a strict non-empty prefix of the seeds", workers, len(got), len(seeds))
		}
	}
}

// TestRecycledArenasAliasNothing holds lists past their sink, where the
// poison must reach them, and sweeps the 1:2000 world for a few days with
// recycled, poisoned chunk arenas: a checkpointed sweep (one worker,
// whose journal segment is built from the lists as they arrive) and
// unjournaled ones (workers 3 and 8). Every store must serialize to the
// same bytes, and so must the journal replayed into a fresh store. A row
// or a segment that kept a list carved from a reused chunk would read the
// poison.
func TestRecycledArenasAliasNothing(t *testing.T) {
	days := []simtime.Day{simtime.ConflictStart, simtime.ConflictStart.Add(3), simtime.ConflictStart.Add(6)}
	ctx := context.Background()
	w, seeds := poolWorld(t, days[0])
	pipeline := func(workers int) *Pipeline {
		return &Pipeline{Resolver: w.NewResolver(), Seeds: w.Registries, Clock: w.Clock(), Store: store.New(), Workers: workers, CollectMX: true}
	}

	// The last list delivered lies in its chunk's current arena, which
	// the chunk's last recycling poisoned.
	var held []string
	p := pipeline(3)
	p.measurePool(ctx, days[0], seeds, false, func(r measured) {
		if len(r.m.Config.NSHosts) > 0 {
			held = r.m.Config.NSHosts
		}
	})
	if len(held) == 0 || held[0] != "recycled.invalid." {
		t.Fatalf("an NS list held past its sink reads %v, want the poison", held)
	}

	// Fewer domains than 4·workers make 1-domain chunks, whose host arena
	// has room for 4. A domain with at most 4 NS hosts and more than 4 NS
	// and MX hosts together outgrows it at its MX lookup, so its NS list
	// lies in an array the chunk has dropped, which the poison must
	// reach too.
	const workers = 3
	var outgrowing []string
	p.measurePool(ctx, days[0], seeds, true, func(r measured) {
		if ns := len(r.m.Config.NSHosts); ns <= 4 && ns+len(r.m.Config.MXHosts) > 4 && len(outgrowing) < 4*workers-1 {
			outgrowing = append(outgrowing, r.m.Domain)
		}
	})
	if len(outgrowing) < 2*workers {
		t.Fatalf("%d domains outgrow a 1-domain chunk's host arena, the check needs %d", len(outgrowing), 2*workers)
	}
	held = nil
	pipeline(workers).measurePool(ctx, days[0], outgrowing, true, func(r measured) {
		if held == nil {
			held = r.m.Config.NSHosts
		}
	})
	if len(held) == 0 || held[0] != "recycled.invalid." {
		t.Fatalf("the first NS list delivered, carved before its arena grew, reads %v past its sink, want the poison", held)
	}

	path := filepath.Join(t.TempDir(), "kept.wrjl")
	judge := pipeline(1)
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	judge.Checkpoint = j
	if _, err := judge.Run(ctx, days); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := storeBytes(t, judge)
	replayed := pipeline(1)
	if _, err := store.ReplayJournalFile(path, replayed.Store); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes(t, replayed), want) {
		t.Error("the journal of a checkpointed sweep replays to a different store")
	}
	for _, workers := range []int{3, 8} {
		p := pipeline(workers)
		if _, err := p.Run(ctx, days); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(storeBytes(t, p), want) {
			t.Errorf("workers=%d: the store of an unjournaled sweep differs from the checkpointed one's", workers)
		}
	}
}
