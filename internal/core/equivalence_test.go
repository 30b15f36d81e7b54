package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/simtime"
)

// collectArtifacts runs a full checkpointed study with opts and returns
// its three byte-level artifacts: the serialized store, the rendered
// report, and the raw sweep journal.
func collectArtifacts(t *testing.T, opts Options) (storeB, reportB, journalB []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	opts.CheckpointPath = path
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := s.RenderAll(&report); err != nil {
		t.Fatal(err)
	}
	journalB, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return storeBytes(t, s), report.Bytes(), journalB
}

// TestFastPathEquivalence is the oracle pinning the resolver fast path:
// a full multi-day study through the preserved reference stack
// (reference wire codec on every in-memory exchange, no cache-miss
// coalescing) must be byte-identical to the same study through the fast
// path (pooled wire buffers, zero-copy decode, singleflight misses) —
// for the store, the rendered report, and (where comparable, see below)
// the sweep journal. Clean and fault-injected worlds, workers 1/3/8.
//
// The journal rows carry per-sweep Retries/Recovered totals. Under
// injected loss with concurrent workers those totals depend on how the
// scheduler interleaved queries against the fault stream — in both
// stacks equally — so journal bytes are only compared where they are
// deterministic: every clean run, and lossy runs with one worker. The
// measured answers (store) and everything derived from them (report)
// are compared unconditionally; that caching and codec changes cannot
// alter them is the determinism contract under test.
func TestFastPathEquivalence(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			name := fmt.Sprintf("workers_%d", workers)
			if lossy {
				name = "lossy_" + name
			} else {
				name = "clean_" + name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := shortOpts()
				opts.Workers = workers
				if lossy {
					opts.Loss = 0.15
					opts.FaultSeed = 7
				}
				refOpts := opts
				refOpts.ReferenceResolver = true

				fastStore, fastReport, fastJournal := collectArtifacts(t, opts)
				refStore, refReport, refJournal := collectArtifacts(t, refOpts)

				if !bytes.Equal(fastStore, refStore) {
					t.Errorf("store bytes differ between fast path and reference resolver")
				}
				if !bytes.Equal(fastReport, refReport) {
					t.Errorf("rendered report differs between fast path and reference resolver")
				}
				if !lossy || workers == 1 {
					if !bytes.Equal(fastJournal, refJournal) {
						t.Errorf("sweep journal differs between fast path and reference resolver")
					}
				}
			})
		}
	}
}

// TestReferenceResolverIsSequential: the oracle is no less deterministic
// than what it judges. With coalescing off, a scenario and eight workers
// the reference stack left a different store in most runs over this window
// (7 of 12 at the parent commit); it now sweeps with one worker whatever
// Workers says, so four runs agree to the byte.
func TestReferenceResolverIsSequential(t *testing.T) {
	opts := shortOpts()
	opts.DenseStep, opts.StudyStart, opts.StudyEnd = 3, simtime.Date(2022, 2, 18), simtime.Date(2022, 3, 8)
	opts.Scenario, opts.Workers, opts.ReferenceResolver = "netnod-depeering", 8, true
	var want []byte
	for run := 0; run < 4; run++ {
		_, s := runStudy(t, opts)
		if n := measurementPipeline(s.Opts, s.World, s.Outages, s.Store).Workers; n != 1 {
			t.Fatalf("reference study sweeps with %d workers, want 1", n)
		}
		if got := storeBytes(t, s); run == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("run %d of the reference resolver left a different store than run 0", run)
		}
	}
}
