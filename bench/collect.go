package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/iofault"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/scan"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// pinnedMeasurements is the (domain, sweep) count of the full schedule
// at the default seed, by scale: the input size the baseline was taken
// at. Any other seed is checked against the registries' own inventory.
var pinnedMeasurements = map[int]int64{1000: 508389, 2000: 260158}

const defaultSeed = 20220224

// collectPass is one full collection and what was measured around it.
type collectPass struct {
	wall, cpu    time.Duration
	measurements int64
	failed       int64
	// sweepUS is each sweep's wall-clock per measurement, in µs.
	sweepUS []float64
	stats   []openintel.SweepStats
	mallocs uint64
	bytes   uint64

	// What the pass left behind, for the checks.
	world      *world.World
	store      *store.Store
	storeSHA   string
	journalIO  fileIO
	storeBytes int64
}

// runCollect is collect_clean (faulty=false) and collect_faulty_durable.
func runCollect(cfg config, faulty bool) (*workloadResult, error) {
	name := wlCollectClean
	if faulty {
		name = wlCollectFaulty
	}
	r := newRunner(name, cfg)
	dir := cfg.FixtureDir
	if dir == "" {
		var err error
		if dir, err = cfg.workDir(name); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	journalPath, storePath := fixturePaths(dir)

	// Untraced passes: every end-to-end number comes from these. A traced
	// run measures one, then repeats it with the probes in place. Only the
	// last pass's world and store are kept (for the checks): holding every
	// pass's would make peak RSS grow with the pass count.
	var last collectPass
	var cpuPerOp, cpuS, wallS, sweepUS []float64
	var measured time.Duration
	for {
		last = collectPass{}
		settle()
		p, err := r.collectOnce(faulty, journalPath, storePath)
		if err != nil {
			return nil, err
		}
		last = p
		r.res.Ops += p.measurements
		r.res.FailedOps += p.failed
		cpuPerOp = append(cpuPerOp, micros(p.cpu)/float64(p.measurements))
		cpuS = append(cpuS, p.cpu.Seconds())
		wallS = append(wallS, p.wall.Seconds())
		sweepUS = append(sweepUS, p.sweepUS...)
		measured += p.wall
		if cfg.Trace || r.enough(measured) {
			break
		}
	}
	r.peakRSS = peakRSSMB()
	// setup_s is a median: build the world until there are three samples.
	for len(r.setups) < 3 {
		t0 := time.Now()
		if _, err := core.New(cfg.studyOptions()); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	r.res.Passes = len(cpuS)
	r.res.Samples["cpu_us_per_op"] = len(cpuPerOp)
	r.res.Samples["op_wall_us_p50"] = len(sweepUS)
	r.m.set("cpu_us_per_op", median(cpuPerOp))
	r.m.set("op_wall_us_p50", median(sweepUS))
	r.m.set("bench.cpu_s", median(cpuS))
	r.m.set("bench.wall_s", median(wallS))
	r.collectCounters(last)

	// Output checks.
	r.res.Digests["store"] = last.storeSHA
	inventory := int64(0)
	for _, st := range last.stats {
		inventory += int64(last.world.Registries.Count(st.Day))
	}
	r.check("all_domains_measured", last.measurements == inventory && len(last.stats) == len(schedule()),
		"%d measurements over %d sweeps; the registries list %d over %d scheduled days",
		last.measurements, len(last.stats), inventory, len(schedule()))
	if want, ok := pinnedMeasurements[cfg.Scale]; ok && cfg.Seed == defaultSeed {
		r.check("pinned_input_size", last.measurements == want, "%d measurements, baseline input is %d", last.measurements, want)
	}
	var replay *store.JournalReplay
	if faulty {
		r.res.JournalOffsets = last.journalIO.syncBytes
		share := float64(last.failed) / float64(last.measurements)
		r.check("failed_share", share < 0.01, "%d of %d measurements failed (%.4f%%), limit 1%%", last.failed, last.measurements, 100*share)
		var err error
		if replay, err = r.checkJournalReplay(journalPath, last); err != nil {
			return nil, err
		}
		// The report digest is taken the way resume_report renders: from a
		// study loaded from the store file.
		digest, err := loadedReportDigest(cfg.faultyOptions(), storePath)
		if err != nil {
			return nil, err
		}
		r.res.Digests["report"] = digest
		r.m.set("journal_bytes_per_measurement", float64(last.journalIO.bytes)/float64(last.measurements))
		r.m.set("store_bytes_per_measurement", float64(last.storeBytes)/float64(last.measurements))
		r.m.set("store.file_bytes", float64(last.storeBytes))
	} else {
		r.check("none_failed", last.failed == 0, "%d measurements failed on a clean wire", last.failed)
		fig1, err := fig1FinalFullPct(cfg.studyOptions(), last.store)
		if err != nil {
			return nil, err
		}
		r.check("fig1_final_full_russian", fig1 >= 65 && fig1 <= 82, "final fully-Russian NS share %.1f%%, want 65..82 (paper: 73.9)", fig1)
	}

	if cfg.Trace {
		if err := r.collectTraced(faulty, dir, last, replay); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// schedule is the study's sweep schedule under the shipped defaults.
func schedule() []simtime.Day {
	return openintel.Schedule(simtime.StudyStart, simtime.StudyEnd, simtime.Date(2022, 2, 1), core.DefaultOptions().DenseStep)
}

// collectOnce builds a study (a set-up sample) and collects it (the
// timed region: Collect, plus SaveStoreFile on the durable workload).
func (r *runner) collectOnce(faulty bool, journalPath, storePath string) (collectPass, error) {
	var p collectPass
	opts := r.cfg.studyOptions()
	fsp := newFSProbe(nil)
	if faulty {
		opts = r.cfg.faultyOptions()
		opts.CheckpointPath = journalPath
		opts.FS = fsp
	}
	t0 := time.Now()
	s, err := core.New(opts)
	if err != nil {
		return p, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())

	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.wall, p.cpu, err = timed(func() error {
		if err := s.Collect(context.Background()); err != nil {
			return err
		}
		if faulty {
			return s.SaveStoreFile(storePath)
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	runtime.ReadMemStats(&after)
	p.mallocs, p.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	p.stats, p.world, p.store = s.Stats, s.World, s.Store
	for _, st := range s.Stats {
		p.measurements += int64(st.Domains)
		p.failed += int64(st.Failed)
	}

	if !faulty {
		for _, st := range s.Stats {
			p.sweepUS = append(p.sweepUS, micros(st.Duration)/float64(st.Domains))
		}
		var buf bytes.Buffer
		if _, err := s.Store.WriteTo(&buf); err != nil {
			return p, err
		}
		p.storeSHA, p.storeBytes = sha256Hex(buf.Bytes()), int64(buf.Len())
		return p, nil
	}

	// On the durable workload a sweep ends when its segment is durable:
	// the interval between consecutive journal fsync completions (the
	// first is the header's) is the sweep's time with the journal inside.
	p.journalIO = fsp.io(journalPath)
	if got, want := len(p.journalIO.syncDone), len(s.Stats)+1; got != want {
		return p, fmt.Errorf("journal saw %d fsyncs for %d sweeps, expected %d", got, len(s.Stats), want)
	}
	for i, st := range s.Stats {
		d := p.journalIO.syncDone[i+1].Sub(p.journalIO.syncDone[i])
		p.sweepUS = append(p.sweepUS, micros(d)/float64(st.Domains))
	}
	p.storeSHA, p.storeBytes, err = sha256File(storePath)
	return p, err
}

// collectCounters sets the per-layer numbers the untraced pass already
// knows: SweepStats counters, allocation deltas, the FS probe's view of
// the journal.
func (r *runner) collectCounters(p collectPass) {
	var hits, misses, coalesced, retries, recovered, unreachable float64
	for _, st := range p.stats {
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
		coalesced += float64(st.CacheCoalesced)
		retries += float64(st.Retries)
		recovered += float64(st.Recovered)
		unreachable += float64(st.Unreachable)
	}
	n := float64(p.measurements)
	if hits+misses > 0 {
		r.m.set("dns.cache_hit_ratio", hits/(hits+misses))
	}
	r.m.set("dns.cache_coalesced", coalesced)
	r.m.set("dns.retries", retries)
	r.m.set("dns.recovered", recovered)
	r.m.set("dns.unreachable", unreachable)
	r.m.set("openintel.failed", float64(p.failed))
	r.m.set("openintel.allocs_per_measurement", float64(p.mallocs)/n)
	r.m.set("openintel.alloc_bytes_per_measurement", float64(p.bytes)/n)
	r.m.set("store.journal_write_s", time.Duration(p.journalIO.writeNS).Seconds())
	r.m.set("store.journal_fsync_s", time.Duration(p.journalIO.syncNS).Seconds())
	r.m.set("store.journal_fsyncs", float64(p.journalIO.syncs))
	r.m.set("store.journal_bytes", float64(p.journalIO.bytes))
}

// replayJournalTimed decodes the journal at path and replays it into a
// fresh store, timing both: the store layer's decode and add costs.
func (r *runner) replayJournalTimed(path string, measurements int64) (*store.JournalReplay, *store.Store, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	replay, err := store.DecodeJournal(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	decode := time.Since(t0)
	if replay.Torn() {
		return nil, nil, fmt.Errorf("journal has a torn tail of %d bytes", replay.TornBytes)
	}

	fresh := store.New()
	pipe := &openintel.Pipeline{Store: fresh}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	pipe.ReplayJournal(replay)
	replayD := time.Since(t0)
	runtime.ReadMemStats(&after)

	n := float64(measurements)
	r.m.set("store.journal_decode_s", decode.Seconds())
	r.m.set("store.journal_decode_mb_s", float64(len(raw))/1e6/decode.Seconds())
	r.m.set("store.replay_s", replayD.Seconds())
	r.m.set("store.add_ns_op", float64(replayD.Nanoseconds())/n)
	r.m.set("store.add_allocs_op", float64(after.Mallocs-before.Mallocs)/n)
	r.storeShape(fresh)
	return replay, fresh, nil
}

// checkJournalReplay verifies the durability contract from outside:
// replaying J into a fresh store must reproduce the live store's file
// bytes.
func (r *runner) checkJournalReplay(journalPath string, p collectPass) (*store.JournalReplay, error) {
	replay, fresh, err := r.replayJournalTimed(journalPath, p.measurements)
	if err != nil {
		return nil, err
	}
	if r.res.Digests["journal"], err = journalDigest(replay); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := fresh.WriteTo(&buf); err != nil {
		return nil, err
	}
	r.m.set("store.encode_s", time.Since(t0).Seconds())
	got := sha256Hex(buf.Bytes())
	r.check("journal_replay_equals_live_store", got == p.storeSHA, "replayed store %s, live store file %s", got[:12], p.storeSHA[:12])
	return replay, nil
}

// storeShape reports the store's compression and density.
func (r *runner) storeShape(st *store.Store) {
	ms := st.MemStats()
	r.m.set("store.epochs", float64(ms.Epochs))
	if ms.Epochs > 0 {
		r.m.set("store.epoch_compression", float64(ms.NaiveRecords)/float64(ms.Epochs))
	}
	r.m.set("store.bytes_per_domain_epoch", ms.BytesPerEpoch())
	t0 := time.Now()
	st.Snapshot()
	r.m.set("store.snapshot_ms", millis(time.Since(t0)))
}

// loadedReportDigest loads the store file the way `whereru -store` does
// and digests everything it renders.
func loadedReportDigest(opts core.Options, storePath string) (string, error) {
	f, err := os.Open(storePath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	s, err := core.LoadStore(opts, f)
	if err != nil {
		return "", err
	}
	return reportDigest(s, nil)
}

// fig1FinalFullPct computes Figure 1's last point over st.
func fig1FinalFullPct(opts core.Options, st *store.Store) (float64, error) {
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		return 0, err
	}
	s, err := core.LoadStore(opts, &buf)
	if err != nil {
		return 0, err
	}
	fig1 := s.Fig1()
	if len(fig1) == 0 {
		return 0, fmt.Errorf("empty Figure 1 series")
	}
	return fig1[len(fig1)-1].FullPct(), nil
}

// collectTraced repeats the collection with the probes in place. The
// pipeline is assembled here from the same public constructors
// core.Study.Collect uses, so the clock, seeder, transport and
// filesystem can be wrapped; the run only counts if its store and
// journal come out byte-identical to the untraced pass's.
func (r *runner) collectTraced(faulty bool, dir string, untraced collectPass, replay *store.JournalReplay) error {
	tr := newTracer()
	opts := r.cfg.studyOptions()
	if faulty {
		opts = r.cfg.faultyOptions()
	}
	journalPath, storePath := filepath.Join(dir, "traced.wrjl"), filepath.Join(dir, "traced.wrst")

	tr.push("world.build", 0)
	w, err := world.Build(opts.World)
	tr.pop()
	if err != nil {
		return err
	}
	st := store.New()
	outages := netsim.NewOutageSchedule()
	var base dns.Transport = w.Mem
	if opts.Scenario != "" {
		if err := w.ApplyScenario(opts.Scenario, outages); err != nil {
			return err
		}
		base = w.RoutedTransport()
	}
	probe := &transportProbe{inner: base}
	resolver := dns.NewResolver(probe, w.Roots())
	if opts.Loss > 0 || opts.SimulateOutage {
		profile := dns.FaultProfile{Loss: opts.Loss}
		ft := dns.NewFaultTransport(base, opts.World.Seed, w.Clock())
		ft.SetDefault(profile)
		probe.inner = ft
		resolver = dns.NewResolver(probe, w.Roots())
		resolver.Client = dns.NewSeededClient(probe, opts.World.Seed)
		w.ScheduleRegistryOutage(ft, profile, simtime.OneDay(simtime.MeasurementOutage), outages)
	}
	pipe := &openintel.Pipeline{
		Resolver:  resolver,
		Seeds:     seederProbe{w.Registries, tr},
		Clock:     clockProbe{w.Clock(), tr},
		Store:     st,
		Workers:   opts.Workers,
		CollectMX: opts.CollectMX,
	}
	if opts.Scenario != "" {
		pipe.Routes = w.RouteView()
	}
	fsp := newFSProbe(tr)
	if faulty {
		j, err := store.CreateJournalFS(fsp, journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		pipe.Checkpoint = j
	}

	var failed int64
	_, cpu, err := timed(func() error {
		tr.push("core.collect", 0)
		for _, day := range schedule() {
			tr.push("openintel.sweep", int64(day))
			stats, err := pipe.Sweep(context.Background(), day)
			tr.pop()
			if err != nil {
				return fmt.Errorf("traced sweep %s: %w", day, err)
			}
			failed += int64(stats.Failed)
		}
		tr.push("scan.tls_sweeps", 0)
		archive := scan.NewArchive()
		for d := world.RussianCAStartDay; d <= simtime.CTWindowEnd; d = d.Add(7) {
			archive.Record(d, w.Scanner.Sweep(d))
		}
		tr.pop()
		tr.pop()
		if !faulty {
			return nil
		}
		tr.push("store.save", 0)
		defer tr.pop()
		return iofault.WriteAtomic(fsp, storePath, func(wr io.Writer) error {
			_, err := st.WriteTo(wr)
			return err
		})
	})
	if err != nil {
		return err
	}

	// The trace measured this program only if it produced the same bytes.
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		return err
	}
	got := sha256Hex(buf.Bytes())
	r.check("traced_store_equals_untraced", got == untraced.storeSHA, "traced %s, untraced %s", got[:12], untraced.storeSHA[:12])
	journalIO := fsp.io(journalPath)
	if faulty {
		tracedReplay, err := store.VerifyJournal(journalPath)
		if err != nil {
			return err
		}
		jsha, err := journalDigest(tracedReplay)
		if err != nil {
			return err
		}
		want := r.res.Digests["journal"]
		r.check("traced_journal_equals_untraced", jsha == want, "traced %s, untraced %s", jsha[:12], want[:12])
	}
	r.check("traced_failed_equals_untraced", failed == untraced.failed, "traced %d failed, untraced %d", failed, untraced.failed)

	n := float64(untraced.measurements)
	r.traceOverhead(micros(cpu) / n)

	tick, snap := tr.total("world.tick"), tr.total("registry.zone_snapshot")
	sweeps, collect := tr.total("openintel.sweep"), tr.total("core.collect")
	r.m.set("world.build_s", tr.total("world.build").Seconds())
	r.m.set("world.tick_s", tick.Seconds())
	r.m.set("registry.zone_snapshot_s", snap.Seconds())
	r.m.set("openintel.sweep_wall_s", sweeps.Seconds())
	r.m.set("scan.tls_sweeps_s", tr.total("scan.tls_sweeps").Seconds())
	r.m.set("core.collect_wall_s", collect.Seconds())
	r.m.set("openintel.measurements_per_s", n/collect.Seconds())
	r.m.set("dns.exchanges", float64(probe.exchanges.Load()))
	r.m.set("dns.exchanges_per_measurement", float64(probe.exchanges.Load())/n)
	r.m.set("dns.exchange_busy_s", time.Duration(probe.busyNS.Load()).Seconds())

	// The journal's encode cannot be seen from outside an AppendSweep, so
	// it is measured by appending the same records over a filesystem that
	// discards them: what remains is the encode.
	var encode time.Duration
	if faulty {
		j, err := store.CreateJournalFS(discardFS{}, "discard")
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, rec := range replay.Sweeps {
			if err := j.AppendSweep(rec); err != nil {
				return err
			}
		}
		encode = time.Since(t0)
		r.m.set("store.journal_encode_s", encode.Seconds())
		r.m.set("store.journal_write_s", time.Duration(journalIO.writeNS).Seconds())
		r.m.set("store.journal_fsync_s", time.Duration(journalIO.syncNS).Seconds())
	}
	journal := encode + time.Duration(journalIO.writeNS+journalIO.syncNS)
	r.m.set("openintel.sweep_self_s", (sweeps - tick - snap - journal).Seconds())

	wire := probe.wire()
	if len(wire) > 0 {
		msgs := make([]*dns.Message, 0, len(wire))
		t0 := time.Now()
		for _, b := range wire {
			m, err := dns.Decode(b)
			if err != nil {
				return fmt.Errorf("decoding a captured message: %w", err)
			}
			msgs = append(msgs, m)
		}
		r.m.set("dns.decode_ns_op", float64(time.Since(t0).Nanoseconds())/float64(len(wire)))
		t0 = time.Now()
		for _, m := range msgs {
			if _, err := m.Encode(); err != nil {
				return fmt.Errorf("encoding a captured message: %w", err)
			}
		}
		r.m.set("dns.encode_ns_op", float64(time.Since(t0).Nanoseconds())/float64(len(msgs)))
		r.res.Samples["dns.codec_messages"] = len(wire)
	}
	if !faulty {
		r.storeShape(st)
	}
	return r.flushTrace(tr)
}
