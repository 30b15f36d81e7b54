// Package core is the top of the library: a Study wires the synthetic
// world, the OpenINTEL-style collection pipeline, the CUIDS-style scans
// and the analysis layer together, and regenerates every figure and table
// of the paper with a paper-vs-measured comparison. cmd/whereru and the
// examples are thin wrappers around this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"whereru/internal/analysis"
	"whereru/internal/dns"
	"whereru/internal/iofault"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// Options configures a Study.
type Options struct {
	// World configures the synthetic ecosystem (seed, scale).
	World world.Config
	// DenseStep is the dense sweep interval in days (default 3) from
	// simtime.DenseWindowStart, when sweeps switch from monthly to dense.
	DenseStep int
	// Workers is the sweep concurrency (default 8).
	Workers int
	// CollectMX enables the mail-measurement extension (MX records are
	// collected alongside NS/A, enabling the mail-concentration analyses).
	CollectMX bool
	// Loss is the per-exchange packet-loss probability injected into
	// every sweep (0, the default, disables fault injection). Retries in
	// the resolver stack recover almost all injected loss; the recovery
	// is quantified in each sweep's SweepRuntime.
	Loss float64
	// FaultSeed seeds the fault-injection layer and the DNS client's
	// query IDs; 0 reuses the world seed. Fault decisions are pure
	// functions of the seed and the query, so a fixed seed reproduces the
	// same degraded measurements run after run.
	FaultSeed int64
	// SimulateOutage schedules the paper's 2021-03-22 collection outage
	// (footnote 8) as a one-day fault-profile outage window on the
	// registry TLD servers.
	SimulateOutage bool
	// Scenario selects a built-in routing scenario (world.Scenarios lists
	// the catalog: "netnod-depeering", "ru-ixp-isolation",
	// "runet-partition"). When set, every sweep exchange consults the
	// AS-level route table: servers with no path fail like timeouts,
	// routed exchanges accumulate simulated path latency, and the
	// reachability/latency analyses light up. Empty disables the route
	// layer entirely — measurements are byte-identical to earlier
	// versions.
	Scenario string
	// CheckpointPath, when set, makes collection crash-safe: every
	// completed sweep is appended to an fsynced journal at this path, so
	// a killed run can pick up where it left off.
	CheckpointPath string
	// Resume replays an existing journal at CheckpointPath before
	// collecting: journaled sweeps load from disk, collection continues
	// from the first unswept scheduled day, and the final results are
	// byte-identical to an uninterrupted run. Without Resume the journal
	// is created fresh (truncating any previous one).
	Resume bool
	// DropSweeps lists scheduled days to deliberately skip, simulating
	// collection outages: the store records them as missing, the analyses
	// flag their series points Interpolated, and the charts mark them.
	// New refuses a day the schedule does not hold (ErrUnscheduledDrop).
	DropSweeps []simtime.Day
	// StudyStart/StudyEnd override the collection window (zero = the
	// paper's 2017-06-18 .. 2022-05-25). Tests use short windows to
	// exercise crash/resume cheaply.
	StudyStart, StudyEnd simtime.Day
	// FS routes the study's durability-critical file I/O — the
	// checkpoint journal and SaveStoreFile — through a filesystem
	// abstraction. nil means the real OS; the chaos matrix installs a
	// chaostest.FaultFS here to crash collection at exact byte offsets.
	FS iofault.FS
	// Progress, if non-nil, receives human-readable progress lines.
	Progress func(format string, args ...any)
}

// ErrUnscheduledDrop is New's refusal of a DropSweeps day that is not on
// the sweep schedule: skipping it would silently skip nothing.
var ErrUnscheduledDrop = errors.New("not a scheduled sweep day")

// DefaultOptions returns the full-fidelity configuration.
func DefaultOptions() Options {
	return Options{World: world.DefaultConfig(), DenseStep: 3, Workers: 8, CollectMX: true}
}

// QuickOptions returns a small, fast configuration (used by tests and the
// quickstart example).
func QuickOptions() Options {
	return Options{World: world.TestConfig(), DenseStep: 3, Workers: 8, CollectMX: true}
}

// Study is one full reproduction run. Its experiment methods compute each
// result once per store generation (memoized), or once per study for one
// that reads only the world, and share it between callers, so a result
// is read-only.
type Study struct {
	Opts     Options
	World    *world.World
	Store    *store.Store
	Analyzer *analysis.Analyzer
	// Outages records the scheduled outage windows in effect during
	// collection (day-indexed, keyed by "tld:<label>").
	Outages *netsim.OutageSchedule
	// Sweeps are the measurement days collected.
	Sweeps []simtime.Day
	// Stats summarizes each sweep; a sweep loaded from a journal has only
	// its record, with a zero SweepRuntime.
	Stats []openintel.SweepStats

	memo memo
	// worldMemo keeps the experiments that read only World: its CT log,
	// certificates, sanctions list and scan endpoints are all built by
	// world.Build, and nothing changes them after.
	worldMemo memo
}

// New builds the world for a study. A zero DenseStep or Workers selects
// its default; a negative one is refused.
func New(opts Options) (*Study, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"DenseStep", opts.DenseStep}, {"Workers", opts.Workers}} {
		if f.v < 0 {
			return nil, fmt.Errorf("core: %s must be ≥ 0 (0 selects the default), got %d", f.name, f.v)
		}
	}
	if opts.DenseStep == 0 {
		opts.DenseStep = 3
	}
	if opts.Workers == 0 {
		opts.Workers = 8
	}
	if opts.Progress == nil {
		opts.Progress = func(string, ...any) {}
	}
	if err := opts.World.Validate(); err != nil {
		return nil, err
	}
	if err := checkDrops(opts.schedule(), opts.DropSweeps); err != nil {
		return nil, err
	}
	opts.Progress("building world (scale 1:%d, %d domains)...", opts.World.Scale, opts.World.NumDomains())
	w, err := world.Build(opts.World)
	if err != nil {
		return nil, fmt.Errorf("core: building world: %w", err)
	}
	st := store.New()
	outages := netsim.NewOutageSchedule()
	an := &analysis.Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet}
	if opts.Scenario != "" {
		if err := w.ApplyScenario(opts.Scenario, outages); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		an.Routes = w.RouteView()
	}
	return &Study{
		Opts:     opts,
		World:    w,
		Store:    st,
		Analyzer: an,
		Outages:  outages,
	}, nil
}

// window is the collection's first and last day.
func (o *Options) window() (start, end simtime.Day) {
	start, end = o.StudyStart, o.StudyEnd
	if start == 0 {
		start = simtime.StudyStart
	}
	if end == 0 {
		end = simtime.StudyEnd
	}
	return start, end
}

// schedule is the collection's sweep days: monthly from the window's
// start, every DenseStep days from simtime.DenseWindowStart, and its end.
func (o *Options) schedule() []simtime.Day {
	start, end := o.window()
	return openintel.Schedule(start, end, simtime.DenseWindowStart, o.DenseStep)
}

// checkDrops refuses a drop day the schedule does not hold, naming the
// scheduled days around it.
func checkDrops(schedule, drops []simtime.Day) error {
	for _, d := range drops {
		i := sort.Search(len(schedule), func(i int) bool { return schedule[i] >= d })
		if i < len(schedule) && schedule[i] == d {
			continue
		}
		near := schedule[max(i-1, 0):min(i+1, len(schedule))]
		return fmt.Errorf("core: drop day %s is %w (scheduled neighbours: %v)", d, ErrUnscheduledDrop, near)
	}
	return nil
}

// LoadStore builds the world for opts and adopts a previously saved
// measurement store (written by SaveStore / `whereru -store`) in place
// of running Collect. The world must be built with the same seed and
// scale that produced the store: the geolocation, routing and registry
// context the analyses consult is regenerated from opts, while the DNS
// measurements come from the file. Every figure and table renders as
// the collected study's did: §4.3 scans the rebuilt world.
func LoadStore(opts Options, src io.Reader) (*Study, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	st, err := store.Read(src)
	if err != nil {
		return nil, fmt.Errorf("core: loading store: %w", err)
	}
	s.adoptStore(st)
	return s, nil
}

// LoadCheckpoint builds the world for opts and replays a sweep journal
// (written by `whereru -checkpoint`) into the study's store, without
// collecting further. A torn tail is tolerated exactly as Resume
// tolerates it: the intact prefix replays, the damage is reported via
// Progress. The journal file itself is not modified.
func LoadCheckpoint(opts Options, path string) (*Study, error) {
	s, _, err := LoadCheckpointReplay(opts, path)
	return s, err
}

// adoptStore swaps in st as the study's measurement database, pointing
// the analysis engine at it, deriving the sweep list from it and starting
// an empty memo.
func (s *Study) adoptStore(st *store.Store) {
	s.Store = st
	s.Analyzer.Store = st
	s.Sweeps = st.Sweeps()
	s.memo = memo{}
}

// measurementPipeline builds the sweep pipeline for opts against w, into
// st: its resolver fault-injected with the scheduled outage when
// configured, plain otherwise.
func measurementPipeline(opts Options, w *world.World, outages *netsim.OutageSchedule, st *store.Store) *openintel.Pipeline {
	pipe := &openintel.Pipeline{
		Seeds:     w.Registries,
		Clock:     w.Clock(),
		Store:     st,
		Workers:   opts.Workers,
		CollectMX: opts.CollectMX,
	}
	// With a scenario active every exchange passes through the route
	// layer before touching the wire; without one the stack is built
	// directly over the in-memory wire, byte-identical to scenario-less
	// versions of this code.
	var base dns.Transport = w.Mem
	if opts.Scenario != "" {
		base = w.RoutedTransport()
		pipe.Routes = w.RouteView()
	}
	resolver := dns.NewResolver(base, w.Roots())
	if opts.Loss > 0 || opts.SimulateOutage {
		seed := opts.FaultSeed
		if seed == 0 {
			seed = opts.World.Seed
		}
		profile := dns.FaultProfile{Loss: opts.Loss}
		ft := dns.NewFaultTransport(base, seed, w.Clock())
		ft.SetDefault(profile)
		resolver = dns.NewResolver(ft, w.Roots())
		resolver.Client = dns.NewSeededClient(ft, seed)
		if opts.SimulateOutage {
			w.ScheduleRegistryOutage(ft, profile, simtime.OneDay(simtime.MeasurementOutage), outages)
		}
	}
	pipe.Resolver = resolver
	return pipe
}

// Collect runs the DNS measurement campaign: sweeps over the study window
// (monthly, then dense for 2022). With CheckpointPath set each completed
// sweep is journaled durably; with Resume the journal's sweeps replay
// from disk and collection continues from the first unswept scheduled
// day.
func (s *Study) Collect(ctx context.Context) error {
	start, end := s.Opts.window()
	schedule := s.Opts.schedule()
	pipe := measurementPipeline(s.Opts, s.World, s.Outages, s.Store)

	done := map[simtime.Day]bool{}
	if s.Opts.CheckpointPath != "" {
		if s.Opts.Resume {
			// The journal streams into the store segment by segment: a
			// resume holds one segment in memory, not the journal.
			j, replay, err := store.ResumeJournalFS(s.fs(), s.Opts.CheckpointPath, s.Store)
			if err != nil {
				return fmt.Errorf("core: opening checkpoint: %w", err)
			}
			defer j.Close()
			if replay.Torn() {
				s.Opts.Progress("warning: checkpoint had a torn tail (%d bytes dropped); resuming from the last complete sweep", replay.TornBytes)
			}
			s.Stats = append(s.Stats, openintel.JournaledStats(replay)...)
			done = openintel.Covered(replay)
			s.Opts.Progress("resumed %d journaled sweeps from %s", len(replay.Sweeps), s.Opts.CheckpointPath)
			pipe.Checkpoint = j
		} else {
			j, err := store.CreateJournalFS(s.fs(), s.Opts.CheckpointPath)
			if err != nil {
				return fmt.Errorf("core: creating checkpoint: %w", err)
			}
			defer j.Close()
			pipe.Checkpoint = j
		}
	}
	drop := map[simtime.Day]bool{}
	for _, d := range s.Opts.DropSweeps {
		drop[d] = true
	}

	s.Sweeps = s.Store.Sweeps()
	s.Opts.Progress("collecting %d DNS sweeps (%s .. %s)...", len(schedule), start, end)
	for i, day := range schedule {
		if done[day] {
			continue
		}
		if drop[day] {
			if err := pipe.SkipSweep(day); err != nil {
				return fmt.Errorf("core: skipping sweep %s: %w", day, err)
			}
			continue
		}
		stats, err := pipe.Sweep(ctx, day)
		if err != nil {
			return fmt.Errorf("core: sweep %s: %w", day, err)
		}
		s.Sweeps = append(s.Sweeps, day)
		s.Stats = append(s.Stats, stats)
		if (i+1)%25 == 0 {
			s.Opts.Progress("  sweep %d/%d done (%s: %d domains)", i+1, len(schedule), day, stats.Domains)
		}
	}
	return nil
}

// SaveStore writes the measurement store to w (the on-disk interchange
// format; see internal/store).
func (s *Study) SaveStore(w io.Writer) error {
	_, err := s.Store.WriteTo(w)
	return err
}

// fs resolves Options.FS, defaulting to the real filesystem.
func (s *Study) fs() iofault.FS {
	if s.Opts.FS != nil {
		return s.Opts.FS
	}
	return iofault.OS
}

// SaveStoreFile durably writes the measurement store to path via an
// atomic replace (temp file, fsync, rename, directory fsync): a crash
// at any byte leaves either the previous store or the complete new one,
// never a torn file.
func (s *Study) SaveStoreFile(path string) error {
	return iofault.WriteAtomic(s.fs(), path, func(w io.Writer) error {
		_, err := s.Store.WriteTo(w)
		return err
	})
}

// Scale returns the study's population scale divisor.
func (s *Study) Scale() int { return s.Opts.World.Scale }

// memo holds the experiments computed at one memoKey: one render reads
// most of them several times (report, CSVs, markdown, comparison index),
// and every read after the first is a lookup. Values are shared and
// read-only.
type memo struct {
	mu   sync.Mutex
	key  memoKey
	vals map[any]any
}

// memoKey is what an experiment depends on that can change after New:
// the store and its generation.
type memoKey struct {
	st  *store.Store
	gen uint64
}

func (s *Study) memoKey() memoKey { return memoKey{s.Store, s.Store.Generation()} }

// memoized returns the value kept under name at the study's current
// memoKey, computing it on a miss. A value counts only if the key did not
// move while it was computed: a followed server applies sweeps beside its
// readers, and a value read across two generations belongs to neither,
// so it is computed again.
func memoized[T any](s *Study, name any, compute func() T) T {
	return memoizedAt(&s.memo, s.memoKey, name, compute)
}

// worldMemoized is memoized for an experiment that reads only the world:
// its key never moves, so the value is computed once per study.
func worldMemoized[T any](s *Study, name any, compute func() T) T {
	return memoizedAt(&s.worldMemo, func() memoKey { return memoKey{} }, name, compute)
}

func memoizedAt[T any](m *memo, keyOf func() memoKey, name any, compute func() T) T {
	for {
		key := keyOf()
		m.mu.Lock()
		v, ok := m.vals[name]
		ok = ok && m.key == key
		m.mu.Unlock()
		if ok {
			return v.(T)
		}
		v = compute()
		m.mu.Lock()
		ok = keyOf() == key
		if ok {
			if m.vals == nil || m.key != key {
				m.key, m.vals = key, map[any]any{}
			}
			m.vals[name] = v
		}
		m.mu.Unlock()
		if ok {
			return v.(T)
		}
	}
}
