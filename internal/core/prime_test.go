package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/stream"
	"whereru/internal/world"
)

// engineState reads every getter of an engine, for DeepEqual.
func engineState(e *stream.Engine) []any {
	last, ok := e.LastDay()
	return []any{
		e.Fig1(), e.Fig2(), e.Fig3(), e.Fig4(), e.Fig5(), e.Hosting(), e.Mail(),
		e.Reachability(), e.RouteLatency(), e.SweepCounts(), last, ok, e.Folds(),
	}
}

// oracleEngine is the engine the materialising reader primes: every
// record store.VerifyJournal keeps, folded in order.
func oracleEngine(t *testing.T, s *Study, path string) (*stream.Engine, *store.JournalReplay) {
	t.Helper()
	oracle, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := s.NewStreamEngine()
	for _, rec := range oracle.Sweeps {
		if _, err := eng.Fold(rec); err != nil {
			t.Fatal(err)
		}
	}
	return eng, oracle
}

// TestLoadCheckpointStreamsLikeReplay pins the one load path and the
// prime that follows it. LoadCheckpoint and LoadCheckpointReplay stream
// the journal into the store and leave the study the collection left —
// same store bytes and generation (served ETags hang on it), same sweeps
// and journaled stats; the replay returned holds no measurement; and an
// engine primed by FoldReplay, which re-reads the file a segment at a
// time, equals on every getter one fed the records the materialising
// reader keeps. On a plain journal, one with a dropped day, and one with
// a torn tail.
func TestLoadCheckpointStreamsLikeReplay(t *testing.T) {
	_, probe := runStudy(t, shortOpts())
	for _, tc := range []struct {
		name string
		drop []simtime.Day
		torn bool
	}{
		{name: "plain"},
		{name: "dropped_day", drop: []simtime.Day{probe.Sweeps[1]}},
		{name: "torn_tail", torn: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweeps.wrjl")
			opts := shortOpts()
			opts.CheckpointPath, opts.DropSweeps = path, tc.drop
			_, collected := runStudy(t, opts)
			if tc.torn {
				// A crashed appender's leftovers: the start of one more segment.
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, raw[6:6+len(raw)/20]...), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			streamed, err := LoadCheckpoint(shortOpts(), path)
			if err != nil {
				t.Fatal(err)
			}
			primed, replay, err := LoadCheckpointReplay(shortOpts(), path)
			if err != nil {
				t.Fatal(err)
			}
			if replay.Path != path || replay.Torn() != tc.torn {
				t.Errorf("replay: path %q, torn %v; want %q, %v", replay.Path, replay.Torn(), path, tc.torn)
			}
			if n, want := len(replay.Sweeps), len(collected.Sweeps)+len(tc.drop); n != want {
				t.Fatalf("replay has %d records, want %d", n, want)
			}
			for _, rec := range replay.Sweeps {
				if rec.Measurements != nil {
					t.Fatalf("replay record %s holds %d measurements: the load must not keep them", rec.Day, len(rec.Measurements))
				}
			}
			want := storeBytes(t, collected)
			for name, s := range map[string]*Study{"LoadCheckpoint": streamed, "LoadCheckpointReplay": primed} {
				if !bytes.Equal(storeBytes(t, s), want) {
					t.Errorf("%s: store differs from the collected one", name)
				}
				if got, want := s.Store.Generation(), collected.Store.Generation(); got != want {
					t.Errorf("%s: store generation %d, collected %d", name, got, want)
				}
				if !reflect.DeepEqual(s.Sweeps, collected.Sweeps) {
					t.Errorf("%s: sweeps %v, collected %v", name, s.Sweeps, collected.Sweeps)
				}
				// The collected stats carry a runtime the journal does not;
				// the record must survive the round trip.
				journaled := make([]openintel.SweepStats, len(collected.Stats))
				for i, st := range collected.Stats {
					journaled[i] = openintel.SweepStats{Day: st.Day, JournalStats: st.JournalStats}
				}
				if !reflect.DeepEqual(s.Stats, journaled) {
					t.Errorf("%s: stats %+v, collected %+v", name, s.Stats, journaled)
				}
			}

			eng := primed.NewStreamEngine()
			if err := FoldReplay(eng, replay); err != nil {
				t.Fatal(err)
			}
			oracle, kept := oracleEngine(t, primed, path)
			if kept.GoodBytes != replay.GoodBytes || kept.TornBytes != replay.TornBytes {
				t.Errorf("streamed scan %d good / %d torn bytes, materialising scan %d / %d", replay.GoodBytes, replay.TornBytes, kept.GoodBytes, kept.TornBytes)
			}
			if got, want := engineState(eng), engineState(oracle); !reflect.DeepEqual(got, want) {
				t.Errorf("engine primed from the file differs from one fed the kept records\n file: %+v\n kept: %+v", got, want)
			}
		})
	}
}

// TestFoldReplayStopsAtLoadedOffset: the prime folds exactly the bytes the
// store loaded. Segments appended after the load belong to Follow; a file
// that shrank, was damaged or was replaced below GoodBytes is an error —
// at once, not a wait for bytes to come back, and never another journal's
// records under the store's.
func TestFoldReplayStopsAtLoadedOffset(t *testing.T) {
	src := filepath.Join(t.TempDir(), "sweeps.wrjl")
	opts := shortOpts()
	opts.CheckpointPath = src
	runStudy(t, opts)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := store.VerifyJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.Sweeps)

	// load writes the first n-1 segments to a fresh file and loads it.
	load := func(t *testing.T) (string, *Study, *store.JournalReplay) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "prefix.wrjl")
		j, err := store.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for _, rec := range full.Sweeps[:n-1] {
			if err := j.AppendSweep(rec); err != nil {
				t.Fatal(err)
			}
		}
		s, replay, err := LoadCheckpointReplay(shortOpts(), path)
		if err != nil {
			t.Fatal(err)
		}
		return path, s, replay
	}
	// fold runs FoldReplay under a deadline: it has nothing to wait for.
	fold := func(t *testing.T, s *Study, replay *store.JournalReplay) (*stream.Engine, error) {
		t.Helper()
		eng := s.NewStreamEngine()
		done := make(chan error, 1)
		go func() { done <- FoldReplay(eng, replay) }()
		select {
		case err := <-done:
			return eng, err
		case <-time.After(30 * time.Second):
			t.Fatal("FoldReplay is waiting on the file")
			return nil, nil
		}
	}

	// rewrite replaces the file at path with the same n-1 segments, the
	// last one edited.
	rewrite := func(t *testing.T, path string, edit func(last *store.JournalSweep)) {
		t.Helper()
		j, err := store.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i, rec := range full.Sweeps[:n-1] {
			if i == n-2 {
				edit(&rec)
			}
			if err := j.AppendSweep(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("grew", func(t *testing.T) {
		path, s, replay := load(t)
		if err := os.WriteFile(path, raw, 0o644); err != nil { // the appender finished the journal
			t.Fatal(err)
		}
		eng, err := fold(t, s, replay)
		if err != nil {
			t.Fatal(err)
		}
		if last, _ := eng.LastDay(); eng.Folds() != uint64(n-1) || last != full.Sweeps[n-2].Day {
			t.Fatalf("folded %d segments up to %s, want the %d loaded up to %s", eng.Folds(), last, n-1, full.Sweeps[n-2].Day)
		}
	})
	for name, damage := range map[string]func(t *testing.T, path string, good int64){
		"shrank": func(t *testing.T, path string, good int64) {
			if err := os.Truncate(path, good-1); err != nil {
				t.Fatal(err)
			}
		},
		"flipped": func(t *testing.T, path string, good int64) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[good/2] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"removed": func(t *testing.T, path string, _ int64) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		// Another journal with a segment boundary at the same offset: the
		// same segments, the last one re-dated.
		"replaced": func(t *testing.T, path string, _ int64) {
			rewrite(t, path, func(last *store.JournalSweep) { last.Day++ })
		},
		// Another journal whose records read the same — day, stats — but
		// whose last segment holds one measurement more and so ends past
		// the loaded offset.
		"resized": func(t *testing.T, path string, _ int64) {
			rewrite(t, path, func(last *store.JournalSweep) {
				extra := last.Measurements[0]
				extra.Domain = "zz-" + extra.Domain
				last.Measurements = append(last.Measurements[:len(last.Measurements):len(last.Measurements)], extra)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			path, s, replay := load(t)
			damage(t, path, replay.GoodBytes)
			if _, err := fold(t, s, replay); err == nil {
				t.Fatal("FoldReplay primed an engine from a file that is not the journal the store loaded")
			}
		})
	}
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// primeChildEnv names the journal TestPrimePeakIndependentOfJournalLength's
// child process primes a study from.
const primeChildEnv = "WHERERU_TEST_PRIME_JOURNAL"

func primeOpts() Options {
	day := simtime.Date(2022, 2, 1)
	return Options{World: world.Config{Seed: 5, Scale: 2000, RFShare: 0.1}, CollectMX: true, StudyStart: day, StudyEnd: day}
}

// TestPrimePeakIndependentOfJournalLength pins priming's memory model in
// the terms an operator meets it — the peak RSS (VmHWM) of a process that
// loads a journal, primes an engine and exits: O(store + engine + largest
// segment). Segments that repeat known domains and configs add nothing to
// the first two, so four times the journal must peak where one does. A
// prime that keeps the replay's measurements peaks ≈0.9 MB per segment
// higher at this scale.
func TestPrimePeakIndependentOfJournalLength(t *testing.T) {
	if path := os.Getenv(primeChildEnv); path != "" {
		s, replay, err := LoadCheckpointReplay(primeOpts(), path)
		if err != nil {
			t.Fatal(err)
		}
		if err := FoldReplay(s.NewStreamEngine(), replay); err != nil {
			t.Fatal(err)
		}
		// This address space's own high-water mark: ru_maxrss would start
		// from the RSS of the process that forked us.
		status, _ := os.ReadFile("/proc/self/status")
		fmt.Printf("%s\n", vmHWM.Find(status))
		return
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("the race detector's shadow memory is not the program's")
			}
		}
	}
	dir := t.TempDir()
	opts := primeOpts()
	opts.CheckpointPath = filepath.Join(dir, "one.wrjl")
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	one, err := store.VerifyJournal(opts.CheckpointPath)
	if err != nil || len(one.Sweeps) != 1 {
		t.Fatalf("collected %+v, %v; want one sweep", one, err)
	}
	// peak primes a journal of n copies of the sweep, on consecutive days,
	// in a child process and returns the child's peak RSS in bytes.
	peak := func(n int) int64 {
		path := filepath.Join(dir, "n.wrjl")
		j, err := store.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := one.Sweeps[0]
		for i := 0; i < n; i++ {
			if err := j.AppendSweep(rec); err != nil {
				t.Fatal(err)
			}
			rec.Day++
		}
		j.Close()
		cmd := exec.Command(os.Args[0], "-test.run=^TestPrimePeakIndependentOfJournalLength$")
		// A tight collector: the peak is the live heap, not the pacer's
		// headroom over it.
		cmd.Env = append(os.Environ(), primeChildEnv+"="+path, "GOGC=10")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child priming %d segments: %v\n%s", n, err, out)
		}
		m := vmHWM.FindSubmatch(out)
		if m == nil {
			t.Skipf("no VmHWM in /proc/self/status here:\n%s", out)
		}
		kb, _ := strconv.ParseInt(string(m[1]), 10, 64)
		return kb << 10
	}
	const k, slack = 8, 6 << 20
	short, long := peak(k), peak(4*k)
	t.Logf("peak RSS priming %d segments: %.1f MB; %d segments: %.1f MB", k, float64(short)/(1<<20), 4*k, float64(long)/(1<<20))
	if long > short+slack {
		t.Fatalf("priming %d segments peaks at %d bytes, %d segments at %d: priming memory grows with the journal", k, short, 4*k, long)
	}
}
