package stream_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"whereru/internal/core"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/stream"
	"whereru/internal/world"
)

// The fold/recompute equivalence contract: after folding journal
// segments 1..k, every engine getter must equal — element for element —
// the corresponding batch method of a cold study that replayed the same
// k segments. The tests below assert it for every prefix of journals
// produced by plain, gap-day, crash-resumed and scenario runs.

// streamOpts is a short window straddling the 2022-02-01 dense cutoff,
// so the Fig4/Fig5 suffix axis is exercised: two monthly sweeps, then
// weekly dense ones.
func streamOpts() core.Options {
	return core.Options{
		World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep:  7,
		CollectMX:  true,
		StudyStart: simtime.Date(2021, 12, 1),
		StudyEnd:   simtime.Date(2022, 3, 1),
	}
}

// journalFor collects a study with opts (plus a checkpoint journal) and
// returns the journal replay.
func journalFor(t *testing.T, opts core.Options) *store.JournalReplay {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	opts.CheckpointPath = path
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Sweeps) == 0 {
		t.Fatal("journal is empty")
	}
	return replay
}

// assertPrefixEquivalence folds the replay one segment at a time into a
// fresh engine while applying the same segments to a cold study, and
// DeepEqual-compares every series after every segment.
func assertPrefixEquivalence(t *testing.T, opts core.Options, replay *store.JournalReplay) {
	t.Helper()
	cold, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := cold.NewStreamEngine()
	for k, rec := range replay.Sweeps {
		if _, err := eng.Fold(rec); err != nil {
			t.Fatalf("fold %d (%s): %v", k, rec.Day, err)
		}
		cold.ApplySweep(rec)
		compareSeries(t, fmt.Sprintf("prefix %d/%d (%s)", k+1, len(replay.Sweeps), rec.Day), eng, cold)
		if t.Failed() {
			return
		}
	}
}

func compareSeries(t *testing.T, label string, eng *stream.Engine, cold *core.Study) {
	t.Helper()
	check := func(name string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s diverged from cold recompute\n fold: %+v\n cold: %+v", label, name, got, want)
		}
	}
	check("Fig1", eng.Fig1(), cold.Fig1())
	check("Fig2", eng.Fig2(), cold.Fig2())
	check("Fig3", eng.Fig3(), cold.Fig3())
	check("Fig4", eng.Fig4(), cold.Fig4())
	check("Fig5", eng.Fig5(), cold.Fig5())
	check("Hosting", eng.Hosting(), cold.Hosting())
	check("Mail", eng.Mail(), cold.Mail())
	check("Reachability", eng.Reachability(), cold.Reachability())
	check("RouteLatency", eng.RouteLatency(), cold.RouteLatency())
}

func TestFoldEquivalencePlain(t *testing.T) {
	opts := streamOpts()
	assertPrefixEquivalence(t, opts, journalFor(t, opts))
}

func TestFoldEquivalenceGapDays(t *testing.T) {
	opts := streamOpts()
	probe := journalFor(t, opts)
	if len(probe.Sweeps) < 5 {
		t.Fatalf("only %d sweeps", len(probe.Sweeps))
	}
	// Drop one monthly day and one dense day: the engine must fold the
	// missing markers as Interpolated zero points and backfill them when
	// later sweeps extend epochs across the gap.
	opts.DropSweeps = []simtime.Day{probe.Sweeps[1].Day, probe.Sweeps[3].Day}
	assertPrefixEquivalence(t, opts, journalFor(t, opts))
}

func TestFoldEquivalenceScenario(t *testing.T) {
	opts := streamOpts()
	opts.Scenario = "netnod-depeering"
	assertPrefixEquivalence(t, opts, journalFor(t, opts))
}

// TestFoldEquivalenceCrashResumedJournal folds a journal that was cut
// after its second segment, the state a collector killed there leaves,
// and then resumed to the end.
func TestFoldEquivalenceCrashResumedJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	opts := streamOpts()
	opts.CheckpointPath = path
	for _, resume := range []bool{false, true} {
		if resume {
			cutJournal(t, path, 2)
		}
		opts.Resume = resume
		s, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Collect(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	assertPrefixEquivalence(t, streamOpts(), replay)
}

// cutJournal truncates the complete journal at path at the end of its
// k-th segment, as core's crash tests do.
func cutJournal(t *testing.T, path string, k int) {
	t.Helper()
	tl, err := store.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	ended, cancel := context.WithCancel(context.Background())
	cancel() // Next reads what is on disk and never waits
	for i := 1; i <= k; i++ {
		if _, err := tl.Next(ended); err != nil {
			t.Fatalf("segment %d of %s: %v", i, path, err)
		}
	}
	if err := os.Truncate(path, tl.Offset()); err != nil {
		t.Fatal(err)
	}
}

func TestFoldRejectsOutOfOrderDays(t *testing.T) {
	opts := streamOpts()
	replay := journalFor(t, opts)
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := s.NewStreamEngine()
	if _, err := eng.Fold(replay.Sweeps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Fold(replay.Sweeps[0]); err == nil {
		t.Fatal("folding an earlier day after a later one should fail")
	}
	if _, err := eng.Fold(replay.Sweeps[1]); err == nil {
		t.Fatal("re-folding the same day should fail")
	}
}

// TestFoldCostIndependentOfStudyLength is the O(day) assertion: folding
// the final segment must perform identical work whether the engine has
// already folded the whole study or just the immediately preceding
// segment — fold cost depends on the day's deltas, not the axis length.
func TestFoldCostIndependentOfStudyLength(t *testing.T) {
	opts := streamOpts()
	replay := journalFor(t, opts)
	n := len(replay.Sweeps)
	if n < 3 {
		t.Fatalf("only %d segments", n)
	}
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	long := s.NewStreamEngine()
	for _, rec := range replay.Sweeps[:n-1] {
		if _, err := long.Fold(rec); err != nil {
			t.Fatal(err)
		}
	}
	short := s.NewStreamEngine()
	if _, err := short.Fold(replay.Sweeps[n-2]); err != nil {
		t.Fatal(err)
	}
	stLong, err := long.Fold(replay.Sweeps[n-1])
	if err != nil {
		t.Fatal(err)
	}
	stShort, err := short.Fold(replay.Sweeps[n-1])
	if err != nil {
		t.Fatal(err)
	}
	if stLong != stShort {
		t.Errorf("fold work depends on study length:\n long-primed: %+v\nshort-primed: %+v", stLong, stShort)
	}
	if stLong.PointsPatched == 0 || stLong.Classifications == 0 {
		t.Errorf("fold counters empty: %+v", stLong)
	}
}

// TestEngineConcurrentReaders hammers every getter from multiple
// goroutines while segments fold — the race detector turns interleaving
// bugs into failures.
func TestEngineConcurrentReaders(t *testing.T) {
	opts := streamOpts()
	replay := journalFor(t, opts)
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := s.NewStreamEngine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Fig1()
				eng.Fig3()
				eng.Fig4()
				eng.Mail()
				eng.Reachability()
				eng.RouteLatency()
				eng.SweepCounts()
				eng.LastDay()
				eng.Folds()
			}
		}()
	}
	for _, rec := range replay.Sweeps {
		if _, err := eng.Fold(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkFoldOneDay times folding a full short-study journal, reported
// per segment.
func BenchmarkFoldOneDay(b *testing.B) {
	opts := streamOpts()
	path := filepath.Join(b.TempDir(), "sweeps.wrjl")
	opts.CheckpointPath = path
	s, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		b.Fatal(err)
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	folds := 0
	for i := 0; i < b.N; i++ {
		eng := ctx.NewStreamEngine()
		for _, rec := range replay.Sweeps {
			if _, err := eng.Fold(rec); err != nil {
				b.Fatal(err)
			}
			folds++
		}
	}
	b.StopTimer()
	if folds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(folds), "ns/fold")
	}
}
