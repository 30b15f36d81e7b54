package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"whereru/internal/analysis"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// memoJournal collects a short study with a routing scenario and one
// dropped day into a journal, and returns the options that rebuild its
// world and the journal's records, measurements and all: sweeps and a
// missing-day marker to apply one at a time.
func memoJournal(t *testing.T) (Options, []store.JournalSweep) {
	t.Helper()
	opts := shortOpts()
	opts.StudyStart, opts.Scenario = simtime.Date(2021, 10, 1), "netnod-depeering"
	sched := opts.schedule()
	opts.DropSweeps = []simtime.Day{sched[len(sched)-3]}
	opts.CheckpointPath = filepath.Join(t.TempDir(), "j.wrjl")
	runStudy(t, opts)
	replay, err := store.VerifyJournal(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, rec := range replay.Sweeps {
		if rec.Missing {
			missing++
		}
	}
	if len(replay.Sweeps) < 6 || missing != 1 {
		t.Fatalf("journal holds %d records, %d of them missing-day markers: want ≥ 6 and 1", len(replay.Sweeps), missing)
	}
	opts.DropSweeps, opts.CheckpointPath = nil, ""
	return opts, replay.Sweeps
}

// prefixStore is a store holding recs, applied as a followed server
// applies them.
func prefixStore(recs []store.JournalSweep) *store.Store {
	st := store.New()
	for _, rec := range recs {
		openintel.ApplyJournaled(st, rec)
	}
	return st
}

// freshOver is a study that has computed nothing: s's world over st, with
// its own analyzer and an empty memo.
func freshOver(s *Study, st *store.Store) *Study {
	an := &analysis.Analyzer{Store: st, Geo: s.Analyzer.Geo, Internet: s.Analyzer.Internet, Routes: s.Analyzer.Routes}
	return &Study{Opts: s.Opts, World: s.World, Store: st, Analyzer: an, Outages: s.Outages, Sweeps: st.Sweeps()}
}

// results returns every memoized experiment of s by name.
func results(s *Study) map[string]any {
	hosting, ca, mail := s.Concentration()
	comps, err := s.Comparisons()
	out := map[string]any{
		"Fig1": s.Fig1(), "Fig2": s.Fig2(), "Fig3": s.Fig3(), "Fig4": s.Fig4(), "Fig5": s.Fig5(),
		"Hosting": s.Hosting(), "Mail": s.Mail(), "SweepCounts": s.SweepCounts(),
		"Reachability": s.Reachability(), "RouteLatency": s.RouteLatency(),
		"Concentration": [][]analysis.ConcentrationPoint{hosting, ca, mail},
		"Comparisons":   comps, "ComparisonsErr": fmt.Sprint(err),
		"Table1": s.Table1(), "Table2": s.Table2(), "Fig8": s.Fig8(), "RussianCA": s.RussianCA(),
	}
	for i, p := range paperMovements {
		out["movement "+p.name] = s.paperMovement(i)
	}
	return out
}

func assertExperimentsEqual(t *testing.T, when string, got, want map[string]any) {
	t.Helper()
	for name, w := range want {
		if g := got[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s\n got %+v\nwant %+v", when, name, g, w)
		}
	}
}

// TestMemoFollowsEveryStoreChange: after each applied sweep, after the
// missing-day marker and after adoptStore swaps in a loaded store, every
// memoized experiment — read once to fill the memo, then again from it —
// equals a fresh study's over the same store. A missing-day marker
// recomputes what reads the store and keeps what reads only the world.
func TestMemoFollowsEveryStoreChange(t *testing.T) {
	opts, recs := memoJournal(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k, rec := range recs {
		s.ApplySweep(rec)
		want := results(freshOver(s, prefixStore(recs[:k+1])))
		when := fmt.Sprintf("after %s (missing %v)", rec.Day, rec.Missing)
		assertExperimentsEqual(t, when, results(s), want)
		assertExperimentsEqual(t, when+", read again", results(s), want)
	}

	t1, fig8, t2, fig1 := s.Table1(), s.Fig8(), s.Table2(), s.Fig1()
	s.Store.MarkMissingSweep(simtime.StudyEnd.Add(7))
	if &s.Table1()[0] != &t1[0] || &s.Fig8()[0] != &fig8[0] || &s.Table2()[0] != &t2[0] {
		t.Error("a world-sourced experiment was computed again after MarkMissingSweep")
	}
	if &s.Fig1()[0] == &fig1[0] {
		t.Error("Fig1 was not computed again after MarkMissingSweep")
	}

	// A loaded store at the generation of the one the memo was filled
	// from, holding other measurements: its third sweep failed throughout.
	s.adoptStore(prefixStore(recs[:3]))
	results(s)
	alt := append([]store.JournalSweep(nil), recs[:3]...)
	alt[2].Measurements = append([]store.Measurement(nil), alt[2].Measurements...)
	for i := range alt[2].Measurements {
		alt[2].Measurements[i].Config = store.Config{Failed: true}
	}
	var blob bytes.Buffer
	if _, err := prefixStore(alt).WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Read(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != s.Store.Generation() {
		t.Fatalf("loaded store at generation %d, memo filled at %d: the swap would not test the reset", loaded.Generation(), s.Store.Generation())
	}
	s.adoptStore(loaded)
	want := results(freshOver(s, loaded))
	assertExperimentsEqual(t, "after adoptStore", results(s), want)
	assertExperimentsEqual(t, "after adoptStore, read again", results(s), want)
}

// TestMemoConcurrentWithApplySweep: two callers read every memoized
// experiment while ApplySweep appends the journal's records, in a few
// rounds from an empty store. Each value a caller gets equals a fresh
// study's at some sweep boundary — never one computed across two
// generations.
func TestMemoConcurrentWithApplySweep(t *testing.T) {
	opts, recs := memoJournal(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]any, len(recs)) // want[k]: after recs[:k+1]
	for k := range recs {
		want[k] = results(freshOver(s, prefixStore(recs[:k+1])))
	}
	for round := 0; round < 4; round++ {
		s.adoptStore(store.New())
		s.ApplySweep(recs[0])
		var (
			reads atomic.Int64
			stop  = make(chan struct{})
			wg    sync.WaitGroup
		)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for failed := false; ; reads.Add(1) {
					select {
					case <-stop:
						return
					default:
					}
					for name, v := range results(s) {
						ok := false
						for k := range want {
							ok = ok || reflect.DeepEqual(v, want[k][name])
						}
						if !ok && !failed {
							failed = true
							t.Errorf("round %d: %s = %+v: no sweep boundary has this value", round, name, v)
						}
					}
				}
			}()
		}
		for _, rec := range recs[1:] {
			s.ApplySweep(rec)
			// Wait for a read to end, so the next apply lands while the
			// other caller is still computing.
			for n := reads.Load(); reads.Load() <= n; {
				runtime.Gosched()
			}
		}
		close(stop)
		wg.Wait()
		assertExperimentsEqual(t, fmt.Sprintf("round %d, after the last record", round), results(s), want[len(recs)-1])
	}
}

// TestApplySweepPublishesWholeSweeps: a reader polling the generation
// while ApplySweep applies the journal sees only generations a sweep
// boundary has — the store before a record or after it, never part of
// one.
func TestApplySweepPublishesWholeSweeps(t *testing.T) {
	opts, recs := memoJournal(t)
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[uint64]bool{0: true}
	st := store.New()
	for _, rec := range recs {
		openintel.ApplyJournaled(st, rec)
		boundary[st.Generation()] = true
	}
	for round := 0; round < 5; round++ {
		st := store.New()
		s.adoptStore(st)
		seen := map[uint64]bool{}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					seen[st.Generation()] = true
				}
			}
		}()
		for _, rec := range recs {
			s.ApplySweep(rec)
		}
		close(stop)
		<-done
		for g := range seen {
			if !boundary[g] {
				t.Fatalf("round %d: a reader saw generation %d, inside a sweep (boundaries: %v)", round, g, boundary)
			}
		}
	}
}
