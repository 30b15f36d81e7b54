package grid_test

import (
	"context"
	"testing"

	"whereru/internal/grid"
	"whereru/internal/simtime"
)

// benchDay is a dense-window day with the full zone active.
var benchDay = simtime.ConflictStart

// BenchmarkSingleProcessSweep is the baseline the grid is measured
// against: Pipeline.Sweep of one day, in-process.
func BenchmarkSingleProcessSweep(b *testing.B) {
	opts := testOpts()
	p := workerPipeline(b, opts)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Sweep(ctx, benchDay); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSweep measures one day's sweep dispatched over the wire
// to three workers and merged: the loopback-TCP overhead of the grid
// against BenchmarkSingleProcessSweep. Worker and coordinator setup
// (world builds, handshakes) is outside the timed region, as it
// amortizes over a whole study in real runs.
func BenchmarkGridSweep(b *testing.B) {
	opts := testOpts()
	coordPipe := workerPipeline(b, opts)
	coord := grid.NewCoordinator(coordPipe)
	coord.ShardSize = testShard
	coord.Fingerprint = testFingerprint
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		w := &grid.Worker{
			Pipeline:    workerPipeline(b, opts),
			Name:        "bench",
			Fingerprint: testFingerprint,
		}
		go w.Run(ctx, addr)
	}
	if err := coord.WaitWorkers(ctx, 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.SweepDay(ctx, benchDay); err != nil {
			b.Fatal(err)
		}
	}
}
