package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"whereru/internal/simtime"
)

// TestSnapshotSharedPerGeneration pins the memo's contract: no mutation
// between two calls means the same snapshot; every observable mutation —
// and nothing else — means a new one, stamped with the new generation.
func TestSnapshotSharedPerGeneration(t *testing.T) {
	s := New()
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	s.BeginSweep(10)
	s.Add(Measurement{Domain: "d.ru.", Day: 10, Config: c})

	last := s.Snapshot()
	if again := s.Snapshot(); again != last {
		t.Fatal("two snapshots of one generation are different captures")
	}
	if last.Generation() != s.Generation() {
		t.Fatalf("snapshot stamped %d, store at %d", last.Generation(), s.Generation())
	}
	steps := []struct {
		name    string
		mutate  func()
		changes bool
	}{
		{"Add extending an epoch", func() { s.Add(Measurement{Domain: "d.ru.", Day: 10, Config: c}) }, true},
		{"BeginSweep", func() { s.BeginSweep(20) }, true},
		{"repeated BeginSweep", func() { s.BeginSweep(20) }, false},
		{"Add of a new domain", func() { s.Add(Measurement{Domain: "new.ru.", Day: 20, Config: c}) }, true},
		{"MarkMissingSweep", func() { s.MarkMissingSweep(15) }, true},
		{"repeated MarkMissingSweep", func() { s.MarkMissingSweep(15) }, false},
		{"reads", func() { s.Domains(); s.Sweeps(); s.At("d.ru.", 10); s.ForEachAt(10, func(string, Config) {}) }, false},
	}
	for _, step := range steps {
		step.mutate()
		snap := s.Snapshot()
		if (snap != last) != step.changes {
			t.Errorf("%s: new snapshot = %v, want %v", step.name, snap != last, step.changes)
		}
		if snap.Generation() != s.Generation() {
			t.Errorf("%s: snapshot stamped %d, store at %d", step.name, snap.Generation(), s.Generation())
		}
		last = snap
	}
}

// TestSnapshotZeroEpochDomain: a store file may carry a domain record
// with no epochs; the point lookup and the epoch walk must read it as
// never measured, like Store.At does, not index past its (empty) rows.
func TestSnapshotZeroEpochDomain(t *testing.T) {
	s := New()
	s.BeginSweep(10)
	s.adoptTailRows("empty.ru.", 0) // what decodeV3 does with such a record
	s.Add(Measurement{Domain: "full.ru.", Day: 10, Config: cfg([]string{"ns.x.ru."}, nil, nil)})
	snap := s.Snapshot()
	for i := range snap.Domains() {
		for _, day := range []simtime.Day{5, 10, 15} {
			assertLookupMatchesStore(t, s, snap, i, day)
		}
	}
	snap.EpochsIn(0, []simtime.Day{5, 10, 15}, func(uint32, int, int) bool {
		t.Error("a domain without epochs was walked")
		return true
	})
}

// snapshotImage is everything a snapshot can be asked, flattened.
func snapshotImage(sn *Snapshot, probe []simtime.Day) string {
	out := fmt.Sprintf("gen=%d sweeps=%v configs=%d\n", sn.Generation(), sn.Sweeps(), sn.NumConfigs())
	for i, d := range sn.Domains() {
		out += d
		for _, day := range probe {
			id, measured, ok := sn.Lookup(i, day)
			out += fmt.Sprintf(" %d:%d/%v/%v", day, id, measured, ok)
			if ok {
				out += fmt.Sprint(*sn.Config(id))
			}
		}
		sn.EpochsIn(i, probe, func(id uint32, lo, hi int) bool {
			out += fmt.Sprintf(" [%d,%d)=%d", lo, hi, id)
			return true
		})
		out += "\n"
	}
	return out
}

// TestHeldSnapshotNeverChanges keeps one snapshot across everything the
// store does to its columns afterwards — tail extension, relocation of a
// domain's rows, compaction, intern-table growth, new domains — and
// requires every answer to stay what it was, and to match the live store
// as of the capture.
func TestHeldSnapshotNeverChanges(t *testing.T) {
	s := New()
	const domains = 40
	name := func(d int) string { return fmt.Sprintf("dom%02d.ru.", d) }
	sweep := func(day simtime.Day, nDomains int) {
		s.BeginSweep(day)
		for d := 0; d < nDomains; d++ {
			if (d+int(day))%7 == 0 {
				continue // an epoch gap, or a dropout at the tail
			}
			s.Add(Measurement{Domain: name(d), Day: day,
				Config: cfg([]string{fmt.Sprintf("ns%d.reg.ru.", (d+int(day)/20)%5)}, nil, []string{fmt.Sprintf("11.0.%d.1", (d*int(day))%9)})})
		}
	}
	for day := simtime.Day(10); day <= 60; day += 10 {
		sweep(day, domains)
	}
	probe := []simtime.Day{5, 10, 15, 20, 30, 40, 45, 50, 60, 65}
	held := s.Snapshot()
	for i, d := range held.Domains() {
		for _, day := range probe {
			assertLookupMatchesStore(t, s, held, i, day)
		}
		if i > 0 && held.Domains()[i-1] >= d {
			t.Fatalf("snapshot domains not sorted at %d", i)
		}
	}
	before := snapshotImage(held, probe)

	// Enough churn to relocate every domain's rows many times over and
	// compact the columns (which shrinks them) under the held snapshot.
	compactions, rows := 0, len(s.epochFrom)
	for day := simtime.Day(70); day < 70+10*200; day += 10 {
		sweep(day, domains+int(day)/100)
		if len(s.epochFrom) < rows {
			compactions++
		}
		rows = len(s.epochFrom)
	}
	if compactions == 0 {
		t.Fatal("churn never compacted the columns")
	}
	if after := snapshotImage(held, probe); after != before {
		t.Fatalf("held snapshot changed under later writes\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if s.Snapshot() == held {
		t.Fatal("store still hands out the pre-churn snapshot")
	}
}

// TestSnapshotConsistentWithGeneration is the regression test for a
// snapshot missing a domain its generation includes: the sorted view was
// taken before the lock the columns were read under, so a new-domain Add
// between the two left the view one domain short. Every Add here brings a
// new domain and nothing else mutates, so a snapshot stamped generation G
// must hold exactly G domains, each with its epoch. Run under -race.
func TestSnapshotConsistentWithGeneration(t *testing.T) {
	s := New()
	const adds, readers = 3000, 3
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one more look at the final state
				default:
				}
				snap := s.Snapshot()
				if uint64(snap.NumDomains()) != snap.Generation() {
					t.Errorf("snapshot at generation %d holds %d domains", snap.Generation(), snap.NumDomains())
					return
				}
				if !sort.StringsAreSorted(snap.Domains()) {
					t.Errorf("snapshot at generation %d: domains not sorted", snap.Generation())
					return
				}
				for i := range snap.Domains() {
					if _, measured, ok := snap.Lookup(i, 10); !ok || !measured {
						t.Errorf("snapshot at generation %d: domain %d has no epoch", snap.Generation(), i)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < adds; i++ {
		// Names arrive out of order so the sorted view really is rebuilt.
		s.Add(Measurement{Domain: fmt.Sprintf("d%04d.ru.", (i*7919)%adds), Day: 10, Config: c})
	}
	close(done)
	wg.Wait()
	if snap := s.Snapshot(); snap.NumDomains() != adds || snap.Generation() != adds {
		t.Fatalf("final snapshot: %d domains at generation %d, want %d", snap.NumDomains(), snap.Generation(), adds)
	}
}
