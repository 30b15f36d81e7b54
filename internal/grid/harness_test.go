package grid_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/grid"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// No program runs the grid: core.Collect measures every day with
// Pipeline.Sweep. The harness below is the grid's only caller. It
// collects a study the way core.Collect does, except that each day goes
// through a Coordinator, and the tests judge it against core.Collect
// itself, so a harness that drifts from the product fails them.

// testFingerprint is the configuration fingerprint the harness's
// coordinators and workers present. All of them run one configuration;
// TestGridFingerprintMismatch presents another.
const testFingerprint uint64 = 0x5eed_0005_0000_4e20

// testShard is the work-unit size: several units per day at 1:20000.
const testShard = 64

// testOpts is a short dense window over the small world: ~8 sweeps of a
// few hundred domains, enough for several work units per day.
func testOpts() core.Options {
	opts := core.QuickOptions()
	opts.World.Scale = 20000
	opts.World.Seed = 5
	opts.DenseStep = 3
	opts.StudyStart = simtime.Date(2022, 2, 18)
	opts.StudyEnd = simtime.Date(2022, 3, 8)
	return opts
}

// runStudy collects with core.Collect, the product's one collection
// path, and returns the serialized store and the rendered report.
func runStudy(t *testing.T, opts core.Options) (storeBytes, report []byte) {
	t.Helper()
	study, err := core.New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := study.Collect(context.Background()); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return artifacts(t, study)
}

// gridRun shapes one harness collection.
type gridRun struct {
	workers  int               // in-process workers, each on its own world
	wait     int               // connected workers to wait for before the first sweep
	onListen func(addr string) // called with the coordinator's address before the wait
}

// runGrid collects opts through the grid and returns the serialized store
// and the rendered report.
func runGrid(t *testing.T, opts core.Options, run gridRun) (storeBytes, report []byte) {
	t.Helper()
	study, _ := collectGrid(t, opts, run)
	return artifacts(t, study)
}

// collectGrid does what core.Collect does for a fault-free,
// uninterrupted study, measuring each scheduled day with
// Coordinator.SweepDay instead of Pipeline.Sweep: the coordinator
// commits into the study's store (and journal, with CheckpointPath set),
// the sweep list and stats are kept the same way, and the weekly TLS
// scans are recorded after the last day. The coordinator is closed on
// return; its metrics stay readable.
func collectGrid(t *testing.T, opts core.Options, run gridRun) (*core.Study, *grid.Coordinator) {
	t.Helper()
	s, err := core.New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pipe := pipelineOver(s.World, s.Opts, s.Store)
	if path := s.Opts.CheckpointPath; path != "" {
		j, err := store.CreateJournal(path)
		if err != nil {
			t.Fatalf("CreateJournal: %v", err)
		}
		defer j.Close()
		pipe.Checkpoint = j
	}

	coord := grid.NewCoordinator(pipe)
	coord.ShardSize = testShard
	coord.Fingerprint = testFingerprint
	addr, err := coord.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		coord.Close()
		stopWorkers()
		wg.Wait()
	}()
	for i := 0; i < run.workers; i++ {
		w := &grid.Worker{Pipeline: workerPipeline(t, s.Opts), Name: "in-process", Fingerprint: testFingerprint}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx, addr); err != nil && ctx.Err() == nil {
				t.Logf("worker: %v", err)
			}
		}()
	}
	if run.onListen != nil {
		run.onListen(addr)
	}
	if run.wait > 0 {
		if err := coord.WaitWorkers(ctx, run.wait); err != nil {
			t.Fatalf("WaitWorkers: %v", err)
		}
	}

	start, end := s.Opts.StudyStart, s.Opts.StudyEnd
	if start == 0 {
		start = simtime.StudyStart
	}
	if end == 0 {
		end = simtime.StudyEnd
	}
	for _, day := range openintel.Schedule(start, end, s.Opts.DenseFrom, s.Opts.DenseStep) {
		stats, err := coord.SweepDay(ctx, day)
		if err != nil {
			t.Fatalf("SweepDay(%s): %v", day, err)
		}
		s.Sweeps = append(s.Sweeps, day)
		s.Stats = append(s.Stats, stats)
	}
	for d := world.RussianCAStartDay; d <= simtime.CTWindowEnd; d = d.Add(7) {
		s.Archive.Record(d, s.World.Scanner.Sweep(d))
	}
	return s, coord
}

// workerPipeline builds a private world for opts, as a worker process
// would, and returns a measurement pipeline over it.
func workerPipeline(t testing.TB, opts core.Options) *openintel.Pipeline {
	t.Helper()
	w, err := world.Build(opts.World)
	if err != nil {
		t.Fatalf("world.Build: %v", err)
	}
	if opts.Scenario != "" {
		// The private topology must carry the coordinator's route events,
		// or the worker would measure another Internet.
		if err := w.ApplyScenario(opts.Scenario, nil); err != nil {
			t.Fatalf("ApplyScenario: %v", err)
		}
	}
	return pipelineOver(w, opts, store.New())
}

// pipelineOver builds the sweep pipeline core.Collect builds for a
// fault-free study over w, into st: the route layer under a scenario, the
// in-memory wire otherwise.
func pipelineOver(w *world.World, opts core.Options, st *store.Store) *openintel.Pipeline {
	pipe := &openintel.Pipeline{
		Seeds:     w.Registries,
		Clock:     w.Clock(),
		Store:     st,
		Workers:   opts.Workers,
		CollectMX: opts.CollectMX,
	}
	var base dns.Transport = w.Mem
	if opts.Scenario != "" {
		base = w.RoutedTransport()
		pipe.Routes = w.RouteView()
	}
	pipe.Resolver = dns.NewResolver(base, w.Roots())
	return pipe
}

// artifacts serializes a collected study's store and renders its report.
func artifacts(t *testing.T, s *core.Study) (storeBytes, report []byte) {
	t.Helper()
	var st, rep bytes.Buffer
	if err := s.SaveStore(&st); err != nil {
		t.Fatalf("SaveStore: %v", err)
	}
	if err := s.RenderAll(&rep); err != nil {
		t.Fatalf("RenderAll: %v", err)
	}
	return st.Bytes(), rep.Bytes()
}
