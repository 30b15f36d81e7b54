package openintel

import (
	"bytes"
	"context"
	"net/netip"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// storeBytes serializes a pipeline's store for equality comparison.
func storeBytes(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.Store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeStoreEquivalence runs a short schedule three ways —
// uninterrupted without a journal, uninterrupted with one, and split
// across a simulated crash at a sweep boundary — and requires all three
// stores to serialize to identical bytes.
func TestCheckpointResumeStoreEquivalence(t *testing.T) {
	start := simtime.ConflictStart
	schedule := []simtime.Day{start, start.Add(3), start.Add(6), start.Add(9)}
	ctx := context.Background()

	plain, _ := buildPipeline(t, 20000)
	if _, err := plain.Run(ctx, schedule); err != nil {
		t.Fatal(err)
	}
	want := storeBytes(t, plain)

	dir := t.TempDir()
	journaled, _ := buildPipeline(t, 20000)
	j, err := store.CreateJournal(filepath.Join(dir, "full.wrjl"))
	if err != nil {
		t.Fatal(err)
	}
	journaled.Checkpoint = j
	if _, err := journaled.Run(ctx, schedule); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := storeBytes(t, journaled); !bytes.Equal(got, want) {
		t.Fatal("checkpointing changed the collected store")
	}

	for crashAfter := 0; crashAfter <= len(schedule); crashAfter++ {
		path := filepath.Join(dir, "crash.wrjl")
		first, _ := buildPipeline(t, 20000)
		j1, err := store.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		first.Checkpoint = j1
		if _, err := first.Run(ctx, schedule[:crashAfter]); err != nil {
			t.Fatal(err)
		}
		j1.Close() // the "crash": the process is gone, only the journal survives

		second, _ := buildPipeline(t, 20000)
		replay, err := store.VerifyJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j2, _, err := store.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		second.Checkpoint = j2
		if got := len(replay.Sweeps); got != crashAfter {
			t.Fatalf("crashAfter=%d: journal replayed %d sweeps", crashAfter, got)
		}
		second.ReplayJournal(replay)
		done := Covered(replay)
		for _, day := range schedule {
			if done[day] {
				continue
			}
			if _, err := second.Sweep(ctx, day); err != nil {
				t.Fatal(err)
			}
		}
		j2.Close()
		if got := storeBytes(t, second); !bytes.Equal(got, want) {
			t.Fatalf("crashAfter=%d: resumed store differs from uninterrupted run", crashAfter)
		}
	}
}

// TestReplayJournalStats pins that replayed stats match what the live
// sweeps reported, so a resumed run's summary output is indistinguishable
// from an uninterrupted one.
func TestReplayJournalStats(t *testing.T) {
	start := simtime.ConflictStart
	schedule := []simtime.Day{start, start.Add(3)}
	path := filepath.Join(t.TempDir(), "stats.wrjl")
	p, _ := buildPipeline(t, 20000)
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = j
	live, err := p.Run(context.Background(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SkipSweep(start.Add(6)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	q, _ := buildPipeline(t, 20000)
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed := q.ReplayJournal(replay)
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d stats, live run had %d", len(replayed), len(live))
	}
	for i := range live {
		// Replays carry no wall-clock timings, so compare the
		// deterministic portion.
		if replayed[i] != deterministic(live[i]) {
			t.Fatalf("stats[%d]: replayed %+v != live %+v", i, replayed[i], live[i])
		}
	}
	if got := q.Store.MissingSweeps(); len(got) != 1 || got[0] != start.Add(6) {
		t.Fatalf("skipped day not replayed as missing: %v", got)
	}
	if !Covered(replay)[start.Add(6)] {
		t.Fatal("skipped day not covered by replay")
	}

	// The streaming resume (what Collect does) against the decode-then-
	// apply one above: same store bytes, same generation, same stats,
	// same days covered.
	r, _ := buildPipeline(t, 20000)
	streamed, err := store.ReplayJournalFile(path, r.Store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes(t, r), storeBytes(t, q)) || r.Store.Generation() != q.Store.Generation() {
		t.Fatalf("streaming replay left a different store (generation %d vs %d)", r.Store.Generation(), q.Store.Generation())
	}
	if got := JournaledStats(streamed); !reflect.DeepEqual(got, replayed) {
		t.Fatalf("JournaledStats of the streamed replay %+v != ReplayJournal's %+v", got, replayed)
	}
	if !reflect.DeepEqual(Covered(streamed), Covered(replay)) || streamed.GoodBytes != replay.GoodBytes {
		t.Fatalf("streamed replay covers %v (%d bytes), decoded %v (%d bytes)", Covered(streamed), streamed.GoodBytes, Covered(replay), replay.GoodBytes)
	}
}

// TestSweepCancelReturnsPromptly asserts a mid-sweep cancel returns
// quickly with partial stats and leaks no worker goroutines.
func TestSweepCancelReturnsPromptly(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 3, Scale: 20000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	p := &Pipeline{
		Resolver: w.NewResolver(),
		Seeds:    w.Registries,
		Clock:    w.Clock(),
		Store:    store.New(),
		Workers:  8,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int64
	w.Mem.SetTap(func(_ netip.Addr, _ *dns.Message) {
		if atomic.AddInt64(&n, 1) == 100 {
			cancel()
		}
	})
	startTime := time.Now()
	stats, err := p.Sweep(ctx, simtime.ConflictStart)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if elapsed := time.Since(startTime); elapsed > 5*time.Second {
		t.Fatalf("cancelled sweep took %s to return", elapsed)
	}
	if stats.Day != simtime.ConflictStart || stats.Domains == 0 {
		t.Fatalf("cancelled sweep lost its partial stats: %+v", stats)
	}
	// Partial work reached the store but not every domain did.
	if got := p.Store.NumDomains(); got == 0 || got >= stats.Domains {
		t.Fatalf("cancelled sweep stored %d of %d domains, want a strict partial", got, stats.Domains)
	}
	w.Mem.SetTap(nil)

	// All sweep goroutines (workers, closer) must wind down; allow
	// the scheduler a grace window before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
