package dns_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// The tests in this file run whole studies with TestMain's release poison
// on: every pooled response is scribbled the moment the resolver releases
// it, every request arena the moment MemNet takes it back. Anything that
// kept an alias past the release point (Result.Answers, a flight's
// addresses, an InfraCache entry, a store.Config slice) would carry
// garbage into the store, the report or the journal, and the bytes would
// differ from the judge's: the same stack, one sweep worker, poison off.
// They live here because only this test binary can set the poison.

// studyArtifacts collects a study and returns its serialized store,
// rendered report and — when the study journals — raw sweep journal.
func studyArtifacts(t *testing.T, s *core.Study) (storeB, reportB, journalB []byte) {
	t.Helper()
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var st, rep bytes.Buffer
	if err := s.SaveStore(&st); err != nil {
		t.Fatal(err)
	}
	if err := s.RenderAll(&rep); err != nil {
		t.Fatal(err)
	}
	if path := s.Opts.CheckpointPath; path != "" {
		var err error
		if journalB, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return st.Bytes(), rep.Bytes(), journalB
}

func newStudy(t *testing.T, opts core.Options) *core.Study {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// judge collects opts with one sweep worker and the poison off, holding
// every exchanged message to the reference codec (dns.CheckCodecs). Call
// it only in a top-level test's prologue, before any t.Parallel: the
// poison is one package variable. One worker joins no flight — a flight
// lives only while its leader, the one goroutine asking, resolves — and
// the judge checks that it coalesced nothing.
func judge(t *testing.T, opts core.Options) (storeB, reportB, journalB []byte) {
	t.Helper()
	opts.Workers = 1
	dns.SetReleasePoison(false)
	defer dns.SetReleasePoison(true)
	s := newStudy(t, opts)
	codecs := dns.CheckCodecs(s.World.Mem)
	storeB, reportB, journalB = studyArtifacts(t, s)
	if n, mismatch := codecs(); mismatch != "" || n == 0 {
		t.Errorf("%d messages checked; fast and reference codecs disagree: %q", n, mismatch)
	}
	var coalesced int64
	for _, st := range s.Stats {
		coalesced += st.CacheCoalesced
	}
	if coalesced != 0 {
		t.Errorf("a one-worker study coalesced %d host lookups, want 0", coalesced)
	}
	return storeB, reportB, journalB
}

// TestPoisonedFastPathEquivalence: clean and 15 % loss, the poisoned fast
// path at workers 1/3/8 against the judge. Store, report and journal
// bytes are compared in every cell.
func TestPoisonedFastPathEquivalence(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		opts := core.Options{
			World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
			DenseStep:  7,
			CollectMX:  true,
			StudyStart: simtime.Date(2022, 2, 1),
			StudyEnd:   simtime.Date(2022, 3, 1),
		}
		if lossy {
			opts.Loss = 0.15
			opts.FaultSeed = 7
		}
		opts.CheckpointPath = filepath.Join(t.TempDir(), "judge.wrjl")
		// Parallel subtests wait for this body to return: no judge overlaps one.
		refStore, refReport, refJournal := judge(t, opts)
		for _, workers := range []int{1, 3, 8} {
			name := fmt.Sprintf("clean_workers_%d", workers)
			if lossy {
				name = fmt.Sprintf("lossy_workers_%d", workers)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := opts
				opts.Workers = workers
				opts.CheckpointPath = filepath.Join(t.TempDir(), "fast.wrjl")
				fastStore, fastReport, fastJournal := studyArtifacts(t, newStudy(t, opts))
				if !bytes.Equal(fastStore, refStore) {
					t.Errorf("store bytes differ between the poisoned fast path and the judge")
				}
				if !bytes.Equal(fastReport, refReport) {
					t.Errorf("rendered report differs between the poisoned fast path and the judge")
				}
				if !bytes.Equal(fastJournal, refJournal) {
					t.Errorf("sweep journal differs between the poisoned fast path and the judge")
				}
			})
		}
	}
}

// TestPoisonedScenarioGridDeterminism: every routing scenario, the
// poisoned fast path at workers 1/3/8 against the judge — the route
// layer's exchanges (RouteTransport, simulated path latency, unreachable
// servers) under the poison, which TestPoisonedFastPathEquivalence runs
// without. grid_N runs N sweep workers (Options.Workers); the names are
// from the retired grid.
func TestPoisonedScenarioGridDeterminism(t *testing.T) {
	scenarioOpts := func(scenario string) core.Options {
		opts := core.QuickOptions()
		opts.World.Scale = 20000
		opts.World.Seed = 5
		opts.DenseStep = 3
		opts.StudyStart = simtime.Date(2022, 2, 18)
		opts.StudyEnd = simtime.Date(2022, 3, 8)
		opts.Scenario = scenario
		return opts
	}
	for _, scenario := range world.Scenarios() {
		refStore, refReport, _ := judge(t, scenarioOpts(scenario))
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("grid_%d", workers), func(t *testing.T) {
					t.Parallel()
					opts := scenarioOpts(scenario)
					opts.Workers = workers
					gotStore, gotReport, _ := studyArtifacts(t, newStudy(t, opts))
					if !bytes.Equal(gotStore, refStore) {
						t.Errorf("store bytes differ from the judge (%d vs %d bytes)", len(gotStore), len(refStore))
					}
					if !bytes.Equal(gotReport, refReport) {
						t.Errorf("report differs from the judge")
					}
				})
			}
		})
	}
}
