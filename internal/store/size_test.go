package store_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// TestJournalBytesPerMeasurement pins the journal's size where it is paid:
// sweeps of a TestConfig world, NS and MX collected, journaled as the
// pipeline journals them. The measurement list spends ≈17 bytes on a
// measurement — set numbers, a front-coded name, the apex addresses —
// where spelling each config out took ≈101. The floor fails a test that
// stops measuring.
func TestJournalBytesPerMeasurement(t *testing.T) {
	w, err := world.Build(world.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := &openintel.Pipeline{Resolver: w.NewResolver(), Seeds: w.Registries, Clock: w.Clock(),
		Store: store.New(), Workers: 2, CollectMX: true, Checkpoint: j}
	start := simtime.ConflictStart
	if _, err := p.Run(context.Background(), []simtime.Day{start, start.Add(3), start.Add(6)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	measurements := 0
	for _, rec := range replay.Sweeps {
		measurements += len(rec.Measurements)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(fi.Size()) / float64(measurements)
	t.Logf("%d sweeps, %d measurements, %d bytes: %.1f B per measurement", len(replay.Sweeps), measurements, fi.Size(), per)
	if measurements < 3*2000 || per < 8 || per > 20 {
		t.Fatalf("%.1f journal bytes per measurement over %d measurements, want 8..20", per, measurements)
	}
}
