package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// shortOpts is the crash-test configuration: five dense sweeps over one
// month at 1:20000 scale, cheap enough to re-collect once per crash
// boundary while still exercising the full pipeline.
func shortOpts() Options {
	return Options{
		World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep:  7,
		CollectMX:  true,
		StudyStart: simtime.Date(2022, 2, 1),
		StudyEnd:   simtime.Date(2022, 3, 1),
	}
}

// runStudy collects with opts and returns the rendered report plus the
// study itself.
func runStudy(t *testing.T, opts Options) ([]byte, *Study) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RenderAll(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), s
}

func storeBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cutJournal truncates the complete journal at path at the end of its
// k-th segment, leaving what a collector killed right after journaling
// its k-th sweep leaves (a dropped day is a segment too), and returns
// the cut's length.
func cutJournal(t *testing.T, path string, k int) int64 {
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
	return tl.Offset()
}

// TestCrashResumeEquivalence cuts a complete journal after every
// possible sweep boundary, and 1 byte into the next segment (a torn
// tail), and proves a resumed run produces a byte-identical report,
// store and journal — the headline durability guarantee.
func TestCrashResumeEquivalence(t *testing.T) {
	opts := shortOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "full.wrjl")
	want, base := runStudy(t, opts)
	wantStore := storeBytes(t, base)
	wantJournal, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Sweeps)
	if n < 3 || n > 10 {
		t.Fatalf("window produced %d sweeps, want a handful", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("crash_after_%d_of_%d", k, n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweeps.wrjl")
			if err := os.WriteFile(path, wantJournal, 0o644); err != nil {
				t.Fatal(err)
			}
			sizes := []int64{cutJournal(t, path, k)}
			if k < n {
				sizes = append(sizes, sizes[0]+1)
			}
			for _, size := range sizes {
				if err := os.WriteFile(path, wantJournal[:size], 0o644); err != nil {
					t.Fatal(err)
				}
				ropts := shortOpts()
				ropts.CheckpointPath = path
				ropts.Resume = true
				got, resumed := runStudy(t, ropts)
				if len(resumed.Sweeps) != n {
					t.Errorf("cut at %d B: resumed run has %d sweeps, want %d", size, len(resumed.Sweeps), n)
				}
				if len(resumed.Stats) != n {
					t.Errorf("cut at %d B: resumed run has %d sweep stats, want %d", size, len(resumed.Stats), n)
				}
				if !bytes.Equal(storeBytes(t, resumed), wantStore) {
					t.Errorf("cut at %d B: resumed store differs from uninterrupted run", size)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("cut at %d B: resumed report differs from uninterrupted run", size)
				}
				if j, err := os.ReadFile(path); err != nil || !bytes.Equal(j, wantJournal) {
					t.Errorf("cut at %d B: resumed journal differs from uninterrupted run (%v)", size, err)
				}
			}
		})
	}
}

// TestResumeWithoutCrashIsNoop resumes a journal that already covers the
// whole schedule: no sweeps re-run, output unchanged.
func TestResumeWithoutCrashIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	opts := shortOpts()
	opts.CheckpointPath = path
	want, full := runStudy(t, opts)

	ropts := opts
	ropts.Resume = true
	got, resumed := runStudy(t, ropts)
	if len(resumed.Sweeps) != len(full.Sweeps) {
		t.Errorf("resumed %d sweeps, want %d", len(resumed.Sweeps), len(full.Sweeps))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("noop resume changed the report")
	}
}

// TestDropSweepsRefusesUnscheduledDay: a drop day off the schedule would
// skip nothing, so New refuses it, naming the day and the scheduled days
// around it (shortOpts sweeps 02-01, 02-08, 02-15, 02-22 and 03-01).
func TestDropSweepsRefusesUnscheduledDay(t *testing.T) {
	for _, tc := range []struct{ drop, near string }{
		{"2022-02-10", "[2022-02-08 2022-02-15]"},
		{"2022-01-31", "[2022-02-01]"},
		{"2022-03-02", "[2022-03-01]"},
	} {
		opts := shortOpts()
		opts.DropSweeps = []simtime.Day{simtime.MustParse("2022-02-15"), simtime.MustParse(tc.drop)}
		_, err := New(opts)
		if !errors.Is(err, ErrUnscheduledDrop) || !strings.Contains(err.Error(), "drop day "+tc.drop+" ") ||
			!strings.HasSuffix(err.Error(), "(scheduled neighbours: "+tc.near+")") {
			t.Errorf("drop %s: New = %v, want ErrUnscheduledDrop naming it and %s", tc.drop, err, tc.near)
		}
	}
}

// TestDropSweepsGapAnalysis drops a scheduled sweep and checks the outage
// is recorded, flagged Interpolated in the series (with non-gap points
// unchanged), and marked in the rendered charts.
func TestDropSweepsGapAnalysis(t *testing.T) {
	opts := shortOpts()
	_, base := runStudy(t, opts)
	if len(base.Sweeps) < 4 {
		t.Fatalf("only %d sweeps", len(base.Sweeps))
	}
	dropDay := base.Sweeps[2]

	dopts := shortOpts()
	dopts.DropSweeps = []simtime.Day{dropDay}
	out, s := runStudy(t, dopts)

	missing := s.Store.MissingSweeps()
	if len(missing) != 1 || missing[0] != dropDay {
		t.Fatalf("MissingSweeps = %v, want [%s]", missing, dropDay)
	}
	if !strings.Contains(string(out), ":=collection gap") {
		t.Errorf("report does not mark the collection gap")
	}

	// The gap day still appears on the series axis, flagged Interpolated;
	// every other point is identical to the uninterrupted run.
	days := s.keyDays()
	gapPts := s.Analyzer.NSCompositionSeries(days, nil)
	refPts := base.Analyzer.NSCompositionSeries(days, nil)
	if len(gapPts) != len(refPts) {
		t.Fatalf("series lengths differ: %d vs %d", len(gapPts), len(refPts))
	}
	sawGap := false
	for i, p := range gapPts {
		if p.Day == dropDay {
			sawGap = true
			if !p.Interpolated {
				t.Errorf("point at dropped day %s not flagged Interpolated", dropDay)
			}
			continue
		}
		if p.Interpolated {
			t.Errorf("swept day %s wrongly flagged Interpolated", p.Day)
		}
		if p != refPts[i] {
			t.Errorf("non-gap point at %s changed: %+v vs %+v", p.Day, p, refPts[i])
		}
	}
	if !sawGap {
		t.Fatalf("dropped day %s missing from series axis %v", dropDay, days)
	}
}

// TestDropSweepsSurviveResume journals a run with an outage, cuts it
// after the gap, and checks the resumed run still knows about the missing
// sweep — the gap marker must be as durable as the measurements.
func TestDropSweepsSurviveResume(t *testing.T) {
	dropDay := simtime.MustParse("2022-02-08") // shortOpts' second sweep
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	dopts := shortOpts()
	dopts.DropSweeps = []simtime.Day{dropDay}
	dopts.CheckpointPath = path
	want, full := runStudy(t, dopts)

	// Two live sweeps past the drop: sweep, drop marker, sweep.
	cutJournal(t, path, 3)
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Sweeps) != 3 || !replay.Sweeps[1].Missing || replay.Sweeps[1].Day != dropDay {
		t.Fatalf("cut journal holds %d segments, want 3 with the second a missing %s", len(replay.Sweeps), dropDay)
	}

	ropts := dopts
	ropts.Resume = true
	got, resumed := runStudy(t, ropts)
	if ms := resumed.Store.MissingSweeps(); len(ms) != 1 || ms[0] != dropDay {
		t.Errorf("resumed MissingSweeps = %v, want [%s]", ms, dropDay)
	}
	if len(resumed.Sweeps) != len(full.Sweeps) {
		t.Errorf("resumed %d sweeps, want %d", len(resumed.Sweeps), len(full.Sweeps))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed gap report differs from uninterrupted gap run")
	}
}
