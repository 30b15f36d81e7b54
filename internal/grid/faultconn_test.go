package grid_test

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"whereru/internal/grid"
	"whereru/internal/iofault"
)

// The grid's transport faults are injected with iofault.Conn — the
// generalized descendant of the seeded lossy conn these tests were born
// with. Decisions are pure functions of (seed, write-index), so every
// run degrades the same frame the same way.

// resultFrameMin distinguishes result frames (hundreds of bytes, they
// carry a measurement batch) from hello (~tens) and heartbeats (9).
const resultFrameMin = 200

// faultDial wraps each dialed connection in an iofault.Conn with p.
func faultDial(seed int64, p iofault.ConnProfile) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return iofault.NewConn(nc, seed, p), nil
	}
}

// lossyGridSweep runs one sweep day with a faulted worker plus a clean
// worker, returning the coordinator's metrics and store bytes alongside
// the store bytes of a clean single-process baseline.
func lossyGridSweep(t *testing.T, p iofault.ConnProfile) (snap map[string]uint64, got, want []byte) {
	t.Helper()
	opts := testOpts()
	day := opts.StudyStart

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
	coord.LeaseTTL = time.Second
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
		{Pipeline: workerPipeline(t, opts), Name: "lossy", Fingerprint: testFingerprint, Dial: faultDial(0xC0FFEE, p)},
		{Pipeline: workerPipeline(t, opts), Name: "clean", Fingerprint: testFingerprint},
	} {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx, addr) // a lossy worker may die of its own faults
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

	var gotStore bytes.Buffer
	if _, err := coordPipe.Store.WriteTo(&gotStore); err != nil {
		t.Fatalf("store: %v", err)
	}
	return coord.Metrics().Snapshot(), gotStore.Bytes(), baseStore.Bytes()
}

// TestGridLossyWorker: a worker whose transport corrupts or tears a
// result frame must be detected (checksum / framing), dropped, and its
// units re-measured elsewhere — with the final store byte-identical to
// a clean single-process sweep.
func TestGridLossyWorker(t *testing.T) {
	profiles := map[string]iofault.ConnProfile{
		"corrupt": {Corrupt: 1, MinWriteLen: resultFrameMin, Once: true},
		"cut":     {Cut: 1, MinWriteLen: resultFrameMin, Once: true},
	}
	for mode, p := range profiles {
		mode, p := mode, p
		t.Run(mode, func(t *testing.T) {
			snap, got, want := lossyGridSweep(t, p)
			if mode == "corrupt" && snap["grid_frames_rejected_total"] == 0 {
				t.Errorf("expected the corrupted frame to be rejected, got %v", snap)
			}
			if snap["grid_units_reassigned_total"] == 0 {
				t.Errorf("expected the lossy worker's unit to be reassigned, got %v", snap)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("store bytes differ after transport faults")
			}
		})
	}
}

// TestGridDuplicateFrames: a transport that delivers a result frame
// twice must not double-merge the unit — at-most-once is the merge
// contract, and the store must stay byte-identical.
func TestGridDuplicateFrames(t *testing.T) {
	snap, got, want := lossyGridSweep(t, iofault.ConnProfile{
		Duplicate: 1, MinWriteLen: resultFrameMin, Once: true,
	})
	if snap["grid_duplicate_units_total"] == 0 {
		t.Errorf("expected the duplicated frame to be counted, got %v", snap)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store bytes differ after a duplicated result frame")
	}
}

// TestGridSlowDrip: a fragmenting, dribbling transport (every frame
// delivered in 7-byte pieces) is slow but not wrong — the length-framed
// reader reassembles, nothing is rejected, and the store is
// byte-identical.
func TestGridSlowDrip(t *testing.T) {
	snap, got, want := lossyGridSweep(t, iofault.ConnProfile{
		Drip: 1, DripChunk: 7,
	})
	if snap["grid_frames_rejected_total"] != 0 {
		t.Errorf("drip delivery caused frame rejections: %v", snap)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store bytes differ after drip delivery")
	}
}

// TestGridPartitionedWorker: a worker that falls silent mid-sweep (a
// netsplit: its writes are swallowed, reads deliver nothing) must have
// its leases expire and its units re-measured elsewhere, with the final
// store byte-identical.
func TestGridPartitionedWorker(t *testing.T) {
	snap, got, want := lossyGridSweep(t, iofault.ConnProfile{
		// Let the hello and the first result through, then netsplit.
		PartitionAfterWrites: 2,
	})
	if snap["grid_units_reassigned_total"] == 0 {
		t.Errorf("expected the partitioned worker's units to be reassigned, got %v", snap)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("store bytes differ after a partition")
	}
}
