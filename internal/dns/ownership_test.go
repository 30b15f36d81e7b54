package dns_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/core"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// The tests in this file run whole studies with TestMain's release poison
// on: every pooled response is scribbled the moment the resolver releases
// it, every request arena the moment MemNet takes it back. Ownership is
// thereby enforced rather than argued — anything that kept an alias past
// the release point (Result.Answers, a flight's addresses, an InfraCache
// entry, a store.Config slice) would carry garbage into the store, the
// report or the journal, and the bytes would differ from the judge's. The
// judge is the preserved reference stack (core.Options.ReferenceResolver:
// reference codec, no pools, no arenas), which the poison cannot touch.
//
// They live here, not beside internal/core's and internal/grid's own
// versions, because the poison hook is an unexported variable of package
// dns and only this test binary can set it.

// studyArtifacts collects a study and returns its serialized store,
// rendered report and — when journalPath is set — raw sweep journal.
func studyArtifacts(t *testing.T, opts core.Options) (storeB, reportB, journalB []byte) {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
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
	if opts.CheckpointPath != "" {
		if journalB, err = os.ReadFile(opts.CheckpointPath); err != nil {
			t.Fatal(err)
		}
	}
	return st.Bytes(), rep.Bytes(), journalB
}

// TestPoisonedFastPathEquivalence is internal/core's
// TestFastPathEquivalence under the poison: clean and 15 % loss, workers
// 1/3/8, poisoned fast path against the reference stack. Journals are
// compared where they are deterministic (see the original).
func TestPoisonedFastPathEquivalence(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			name := fmt.Sprintf("clean_workers_%d", workers)
			if lossy {
				name = fmt.Sprintf("lossy_workers_%d", workers)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := core.Options{
					World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
					DenseStep:  7,
					CollectMX:  true,
					StudyStart: simtime.Date(2022, 2, 1),
					StudyEnd:   simtime.Date(2022, 3, 1),
					Workers:    workers,
				}
				if lossy {
					opts.Loss = 0.15
					opts.FaultSeed = 7
				}
				refOpts := opts
				refOpts.ReferenceResolver = true
				opts.CheckpointPath = filepath.Join(t.TempDir(), "fast.wrjl")
				refOpts.CheckpointPath = filepath.Join(t.TempDir(), "ref.wrjl")

				fastStore, fastReport, fastJournal := studyArtifacts(t, opts)
				refStore, refReport, refJournal := studyArtifacts(t, refOpts)
				if !bytes.Equal(fastStore, refStore) {
					t.Errorf("store bytes differ between the poisoned fast path and the reference stack")
				}
				if !bytes.Equal(fastReport, refReport) {
					t.Errorf("rendered report differs between the poisoned fast path and the reference stack")
				}
				if (!lossy || workers == 1) && !bytes.Equal(fastJournal, refJournal) {
					t.Errorf("sweep journal differs between the poisoned fast path and the reference stack")
				}
			})
		}
	}
}

// TestPoisonedScenarioGridDeterminism is internal/grid's
// TestScenarioGridDeterminism under the poison: every routing scenario,
// over grids of 1, 3 and 8 workers, against a single-process run of the
// reference stack. That run uses one sweep worker: the reference stack
// resolves host-cache misses without flights, so with several workers and
// a scenario's unreachable servers whether glue or the failed chase wins
// depends on scheduling (at the parent commit 3 of 8 such runs differed);
// sequentially it is the order-free answer the fast path must reproduce.
func TestPoisonedScenarioGridDeterminism(t *testing.T) {
	gridOpts := func(scenario string) core.Options {
		opts := core.QuickOptions()
		opts.World.Scale = 20000
		opts.World.Seed = 5
		opts.DenseStep = 3
		opts.StudyStart = simtime.Date(2022, 2, 18)
		opts.StudyEnd = simtime.Date(2022, 3, 8)
		opts.GridShard = 64
		opts.Scenario = scenario
		return opts
	}
	for _, scenario := range world.Scenarios() {
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			ref := gridOpts(scenario)
			ref.ReferenceResolver = true
			ref.Workers = 1
			refStore, refReport, _ := studyArtifacts(t, ref)

			for _, workers := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("grid_%d", workers), func(t *testing.T) {
					t.Parallel()
					opts := gridOpts(scenario)
					opts.GridListen = "127.0.0.1:0"
					opts.GridWorkers = workers
					opts.GridMinWorkers = workers
					gotStore, gotReport, _ := studyArtifacts(t, opts)
					if !bytes.Equal(gotStore, refStore) {
						t.Errorf("store bytes differ from the single-process reference run (%d vs %d bytes)", len(gotStore), len(refStore))
					}
					if !bytes.Equal(gotReport, refReport) {
						t.Errorf("report differs from the single-process reference run")
					}
				})
			}
		})
	}
}
