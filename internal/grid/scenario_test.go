package grid_test

import (
	"bytes"
	"testing"

	"whereru/internal/world"
)

// TestScenarioGridDeterminism extends the grid determinism guarantee to
// the routing layer: with a scenario active, every route decision is a
// pure function of (topology, day, address), so the store and report
// must stay byte-identical across any worker count — each worker builds
// a private topology and must reach the same verdicts. The test window
// (2022-02-18 .. 2022-03-08) covers every scenario's trigger day:
// conflict start, the Netnod cutoff, and the partition onset. Its
// negative control, that a scenario reshapes the measured bytes at all, is
// core's TestScenarioChangesMeasurements.
func TestScenarioGridDeterminism(t *testing.T) {
	for _, scenario := range world.Scenarios() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			base := testOpts()
			base.Scenario = scenario
			baseStore, baseReport := runStudy(t, base)

			for _, workers := range []int{1, 3, 8} {
				workers := workers
				t.Run(map[int]string{1: "one", 3: "three", 8: "eight"}[workers], func(t *testing.T) {
					t.Parallel()
					opts := testOpts()
					opts.Scenario = scenario
					gotStore, gotReport := runGrid(t, opts, gridRun{workers: workers, wait: workers})
					if !bytes.Equal(gotStore, baseStore) {
						t.Errorf("store bytes differ from single-process run (%d vs %d bytes)", len(gotStore), len(baseStore))
					}
					if !bytes.Equal(gotReport, baseReport) {
						t.Errorf("report differs from single-process run")
					}
				})
			}
		})
	}
}
