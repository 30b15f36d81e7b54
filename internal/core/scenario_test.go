package core

import (
	"bytes"
	"testing"

	"whereru/internal/simtime"
	"whereru/internal/world"
)

// TestScenarioChangesMeasurements is the negative control for every
// scenario determinism comparison: a scenario must actually reshape the
// measured bytes, or comparing runs under it proves nothing. The window
// (2022-02-18 .. 2022-03-08) reaches past the Netnod cutoff, so the
// difference comes from the route layer rather than from a window the
// scenario never acts in.
func TestScenarioChangesMeasurements(t *testing.T) {
	opts := QuickOptions()
	opts.World.Scale, opts.World.Seed = 20000, 5
	opts.StudyStart, opts.StudyEnd = simtime.Date(2022, 2, 18), simtime.Date(2022, 3, 8)
	if opts.StudyEnd <= world.NetnodCutoffDay {
		t.Fatalf("window ends %s, before the Netnod cutoff %s", opts.StudyEnd, world.NetnodCutoffDay)
	}
	_, plain := runStudy(t, opts)
	opts.Scenario = world.ScenarioNetnodDepeering
	_, scenario := runStudy(t, opts)
	if bytes.Equal(storeBytes(t, plain), storeBytes(t, scenario)) {
		t.Fatal("netnod-depeering produced a byte-identical store; the route layer is not reaching measurement")
	}
}
