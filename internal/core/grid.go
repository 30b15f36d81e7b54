package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"whereru/internal/grid"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/store"
	"whereru/internal/world"
)

// GridFingerprint hashes every option that shapes measurement content.
// A coordinator only accepts workers with an equal fingerprint: a worker
// built from a different world seed, scale, or fault configuration would
// return units from a different simulated Internet, and merging them
// would silently corrupt the study. The measurement batch format version
// is part of it too: a worker whose results the coordinator cannot decode
// is refused at its handshake.
func GridFingerprint(opts Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(3) // fingerprint schema version
	put(store.BatchVersion)
	put(uint64(opts.World.Seed))
	put(uint64(opts.World.Scale))
	put(math.Float64bits(opts.World.RFShare))
	put(math.Float64bits(opts.World.GeoNoise))
	put(math.Float64bits(opts.Loss))
	put(uint64(opts.FaultSeed))
	if opts.CollectMX {
		put(1)
	} else {
		put(0)
	}
	if opts.SimulateOutage {
		put(1)
	} else {
		put(0)
	}
	// Scenario selects route events that reshape every measurement; a
	// worker running a different scenario lives on a different Internet.
	put(uint64(len(opts.Scenario)))
	h.Write([]byte(opts.Scenario))
	return h.Sum64()
}

// startGrid brings up the sweep coordinator and any in-process workers
// for Collect. The returned shutdown func closes the coordinator and
// waits for the workers to drain; Collect defers it so the grid comes
// down even when the run aborts mid-schedule.
func (s *Study) startGrid(ctx context.Context, pipe *openintel.Pipeline) (func(), error) {
	coord := grid.NewCoordinator(pipe)
	if s.Opts.GridShard > 0 {
		coord.ShardSize = s.Opts.GridShard
	}
	if s.Opts.GridLeaseTTL > 0 {
		coord.LeaseTTL = s.Opts.GridLeaseTTL
	}
	coord.Fingerprint = GridFingerprint(s.Opts)
	coord.Logf = s.Opts.Progress
	listen := s.Opts.GridListen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := coord.Listen(listen)
	if err != nil {
		return nil, fmt.Errorf("core: starting grid: %w", err)
	}
	s.Grid = coord
	s.Opts.Progress("grid: coordinating sweeps on %s (%d in-process workers)", addr, s.Opts.GridWorkers)
	if s.Opts.OnGridListen != nil {
		s.Opts.OnGridListen(addr)
	}

	// In-process workers get their own context: the coordinator's done
	// message is the normal exit; the cancel is the backstop for workers
	// stuck dialing or measuring when the grid is torn down.
	wctx, stopWorkers := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < s.Opts.GridWorkers; i++ {
		wg.Add(1)
		name := fmt.Sprintf("worker-%d", i+1)
		go func() {
			defer wg.Done()
			if err := RunGridWorker(wctx, s.Opts, addr, name); err != nil && wctx.Err() == nil {
				s.Opts.Progress("grid: %s: %v", name, err)
			}
		}()
	}
	shutdown := func() {
		coord.Close()
		stopWorkers()
		wg.Wait()
	}
	if min := s.Opts.GridMinWorkers; min > 0 {
		if err := coord.WaitWorkers(ctx, min); err != nil {
			shutdown()
			return nil, err
		}
	}
	return shutdown, nil
}

// RunGridWorker builds a private copy of the measurement world for opts
// and serves grid work units from the coordinator at addr until told to
// drain. This is the body of `whereru -grid-worker`; it is also what
// Collect spawns in-process for Options.GridWorkers. The worker's store
// and journal options are ignored — workers measure, the coordinator
// commits.
func RunGridWorker(ctx context.Context, opts Options, addr, name string) error {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Progress == nil {
		opts.Progress = func(string, ...any) {}
	}
	if err := opts.World.Validate(); err != nil {
		return err
	}
	w, err := world.Build(opts.World)
	if err != nil {
		return fmt.Errorf("core: grid worker %s: building world: %w", name, err)
	}
	if opts.Scenario != "" {
		// The worker's private topology must carry the same route events
		// as the coordinator's, or unit results would diverge.
		if err := w.ApplyScenario(opts.Scenario, nil); err != nil {
			return fmt.Errorf("core: grid worker %s: %w", name, err)
		}
	}
	worker := &grid.Worker{
		// The store is scratch: MeasureUnit never touches it.
		Pipeline:    measurementPipeline(opts, w, netsim.NewOutageSchedule(), store.New()),
		Name:        name,
		Fingerprint: GridFingerprint(opts),
		Logf:        opts.Progress,
	}
	if opts.GridLeaseTTL > 0 {
		// Three beats per TTL, matching the coordinator's expectations.
		worker.HeartbeatEvery = opts.GridLeaseTTL / 3
	}
	return worker.Run(ctx, addr)
}
