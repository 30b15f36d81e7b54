package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFastPathEquivalence: clean and 15 % loss, the resolver fast path in
// its production configuration (no release poison — that is dns_test's
// TestPoisonedFastPathEquivalence) at workers 1/3/8 against the judge, a
// one-worker run of the same options. Store, report and journal bytes
// are compared in every cell. The lossy world is 1:2000, big enough that
// workers usually race for a shared lookup, so a run-time counter such as
// a sweep's retry count, were it journaled, shows up as a journal diff.
func TestFastPathEquivalence(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		opts := shortOpts()
		if lossy {
			opts.Loss = 0.15
			opts.FaultSeed = 7
			opts.World.Scale = 2000
		}
		judge := opts
		judge.Workers = 1
		judge.CheckpointPath = filepath.Join(t.TempDir(), "judge.wrjl")
		refReport, ref := runStudy(t, judge)
		refStore := storeBytes(t, ref)
		refJournal, err := os.ReadFile(judge.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
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
				report, s := runStudy(t, opts)
				journal, err := os.ReadFile(opts.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(storeBytes(t, s), refStore) {
					t.Errorf("store bytes differ between %d workers and the one-worker judge", workers)
				}
				if !bytes.Equal(report, refReport) {
					t.Errorf("rendered report differs between %d workers and the one-worker judge", workers)
				}
				if !bytes.Equal(journal, refJournal) {
					t.Errorf("sweep journal differs between %d workers and the one-worker judge", workers)
				}
			})
		}
	}
}
