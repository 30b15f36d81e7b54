// Tests live in grid_test beside the harness (harness_test.go), which
// drives core.Study from outside the package.
package grid_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"whereru/internal/grid"
)

// TestGridDeterminism is the core guarantee: the same study through the
// grid — any worker count, including zero (local fallback) — produces a
// store and report byte-identical to the single-process run.
func TestGridDeterminism(t *testing.T) {
	baseStore, baseReport := runStudy(t, testOpts())

	for _, workers := range []int{0, 1, 3, 8} {
		workers := workers
		t.Run(map[int]string{0: "local-fallback", 1: "one", 3: "three", 8: "eight"}[workers], func(t *testing.T) {
			t.Parallel()
			gotStore, gotReport := runGrid(t, testOpts(), gridRun{workers: workers, wait: workers})
			if !bytes.Equal(gotStore, baseStore) {
				t.Errorf("store bytes differ from single-process run (%d vs %d bytes)", len(gotStore), len(baseStore))
			}
			if !bytes.Equal(gotReport, baseReport) {
				t.Errorf("report differs from single-process run")
			}
		})
	}
}

// TestGridJournalDeterminism: with checkpointing on, the journal a grid
// run fsyncs is byte-identical to a single-process run's (fault-free
// runs; the journal sorts measurements by domain, so shard merge order
// cannot leak into the bytes).
func TestGridJournalDeterminism(t *testing.T) {
	dir := t.TempDir()
	base := testOpts()
	base.CheckpointPath = dir + "/base.wrjl"
	baseStore, _ := runStudy(t, base)

	gridOpts := testOpts()
	gridOpts.CheckpointPath = dir + "/grid.wrjl"
	gridStore, _ := runGrid(t, gridOpts, gridRun{workers: 3, wait: 3})

	if !bytes.Equal(gridStore, baseStore) {
		t.Fatalf("store bytes differ")
	}
	baseJ := readFile(t, base.CheckpointPath)
	gridJ := readFile(t, gridOpts.CheckpointPath)
	if !bytes.Equal(baseJ, gridJ) {
		t.Errorf("journal bytes differ: single-process %d bytes, grid %d bytes", len(baseJ), len(gridJ))
	}
}

// TestGridKillWorkerMidSweep: a worker that vanishes mid-unit (abrupt
// connection close on its second assignment) must not change a byte of
// the result, and the coordinator must observably reassign its unit.
func TestGridKillWorkerMidSweep(t *testing.T) {
	baseStore, baseReport := runStudy(t, testOpts())

	opts := testOpts()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	doomed := func(addr string) {
		w := &grid.Worker{
			Pipeline:       workerPipeline(t, opts),
			Name:           "doomed",
			Fingerprint:    testFingerprint,
			ExitAfterUnits: 1,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Exits nil when it self-kills on its second assignment.
			if err := w.Run(ctx, addr); err != nil && ctx.Err() == nil {
				t.Errorf("doomed worker: %v", err)
			}
		}()
	}
	// Two healthy in-process workers plus the doomed one.
	study, coord := collectGrid(t, opts, gridRun{workers: 2, wait: 3, onListen: doomed})
	cancel()
	wg.Wait()

	snap := coord.Metrics().Snapshot()
	if snap["grid_units_reassigned_total"] == 0 {
		t.Errorf("expected a nonzero reassignment counter after killing a worker, got %v", snap)
	}
	if snap["grid_store_epochs"] == 0 || snap["grid_store_distinct_configs"] == 0 ||
		snap["grid_store_resident_bytes"] == 0 {
		t.Errorf("store memory gauges missing from grid metrics: %v", snap)
	}

	gotStore, gotReport := artifacts(t, study)
	if !bytes.Equal(gotStore, baseStore) {
		t.Errorf("store bytes differ after mid-sweep worker death")
	}
	if !bytes.Equal(gotReport, baseReport) {
		t.Errorf("report differs after mid-sweep worker death")
	}
}

// TestGridHangWorkerLeaseExpiry: a worker that goes silent — connection
// open, no results, no heartbeats — must lose its lease to the TTL and
// the unit must complete elsewhere with identical bytes.
func TestGridHangWorkerLeaseExpiry(t *testing.T) {
	opts := testOpts()
	opts.StudyEnd = opts.StudyStart // single sweep day keeps the hang short
	day := opts.StudyStart

	// Single-process baseline for the day.
	base := workerPipeline(t, opts)
	if _, err := base.Sweep(context.Background(), day); err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	var baseStore bytes.Buffer
	if _, err := base.Store.WriteTo(&baseStore); err != nil {
		t.Fatalf("baseline store: %v", err)
	}

	coordPipe := workerPipeline(t, opts)
	coord := grid.NewCoordinator(coordPipe)
	coord.ShardSize = testShard
	coord.LeaseTTL = 200 * time.Millisecond
	coord.Fingerprint = testFingerprint
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range []*grid.Worker{
		{Pipeline: workerPipeline(t, opts), Name: "healthy", Fingerprint: testFingerprint, HeartbeatEvery: 50 * time.Millisecond},
		{Pipeline: workerPipeline(t, opts), Name: "hanger", Fingerprint: testFingerprint, HeartbeatEvery: 50 * time.Millisecond, HangAfterUnits: 1},
	} {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx, addr) // errors are fine: the hanger dies by cancel
		}()
	}
	if err := coord.WaitWorkers(ctx, 2); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}

	if _, err := coord.SweepDay(ctx, day); err != nil {
		t.Fatalf("SweepDay: %v", err)
	}
	cancel()
	coord.Close()
	wg.Wait()

	snap := coord.Metrics().Snapshot()
	if snap["grid_units_reassigned_total"] == 0 {
		t.Errorf("expected lease expiry to reassign the hung worker's unit, got %v", snap)
	}
	var got bytes.Buffer
	if _, err := coordPipe.Store.WriteTo(&got); err != nil {
		t.Fatalf("store: %v", err)
	}
	if !bytes.Equal(got.Bytes(), baseStore.Bytes()) {
		t.Errorf("store bytes differ after lease expiry")
	}
}

// TestGridFingerprintMismatch: a worker built against a different world
// must be rejected at handshake, never leased work.
func TestGridFingerprintMismatch(t *testing.T) {
	opts := testOpts()
	coord := grid.NewCoordinator(workerPipeline(t, opts))
	coord.Fingerprint = testFingerprint
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer coord.Close()

	w := &grid.Worker{
		Pipeline:    workerPipeline(t, opts),
		Name:        "imposter",
		Fingerprint: testFingerprint + 1,
	}
	err = w.Run(context.Background(), addr)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want handshake rejection, got %v", err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return b
}
