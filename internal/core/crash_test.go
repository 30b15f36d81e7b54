package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"whereru/internal/simtime"
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
	if err := s.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashResumeEquivalence kills a checkpointed run after every possible
// sweep boundary and proves a resumed run produces a byte-identical report
// and store — the headline durability guarantee.
func TestCrashResumeEquivalence(t *testing.T) {
	opts := shortOpts()
	want, base := runStudy(t, opts)
	wantStore := storeBytes(t, base)
	n := len(base.Sweeps)
	if n < 3 || n > 10 {
		t.Fatalf("window produced %d sweeps, want a handful", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("crash_after_%d_of_%d", k, n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweeps.wrjl")

			copts := opts
			copts.CheckpointPath = path
			copts.CrashAfter = k
			crashed, err := New(copts)
			if err != nil {
				t.Fatal(err)
			}
			if err := crashed.Collect(context.Background()); !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("crash run returned %v, want ErrCrashInjected", err)
			}
			if len(crashed.Sweeps) != k {
				t.Fatalf("crashed after %d sweeps, want %d", len(crashed.Sweeps), k)
			}

			ropts := opts
			ropts.CheckpointPath = path
			ropts.Resume = true
			got, resumed := runStudy(t, ropts)
			if len(resumed.Sweeps) != n {
				t.Errorf("resumed run has %d sweeps, want %d", len(resumed.Sweeps), n)
			}
			if len(resumed.Stats) != n {
				t.Errorf("resumed run has %d sweep stats, want %d", len(resumed.Stats), n)
			}
			if !bytes.Equal(storeBytes(t, resumed), wantStore) {
				t.Errorf("resumed store differs from uninterrupted run")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed report differs from uninterrupted run")
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

// TestDropSweepsSurviveResume journals a run with an outage, crashes it
// after the gap, and checks the resumed run still knows about the missing
// sweep — the gap marker must be as durable as the measurements.
func TestDropSweepsSurviveResume(t *testing.T) {
	opts := shortOpts()
	_, base := runStudy(t, opts)
	if len(base.Sweeps) < 4 {
		t.Fatalf("only %d sweeps", len(base.Sweeps))
	}
	dropDay := base.Sweeps[1]

	dopts := shortOpts()
	dopts.DropSweeps = []simtime.Day{dropDay}
	want, full := runStudy(t, dopts)

	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	copts := dopts
	copts.CheckpointPath = path
	copts.CrashAfter = 2 // fires on the sweep after the dropped day
	crashed, err := New(copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.Collect(context.Background()); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("crash run returned %v, want ErrCrashInjected", err)
	}
	if got := crashed.Store.MissingSweeps(); len(got) != 1 || got[0] != dropDay {
		t.Fatalf("crashed run MissingSweeps = %v, want [%s]", got, dropDay)
	}

	ropts := dopts
	ropts.CheckpointPath = path
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
