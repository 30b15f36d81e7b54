package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whereru/internal/core"
	"whereru/internal/store"
	"whereru/internal/world"
)

// config is what one workload run is parameterised by. Everything the
// workload feeds the program — world, faults, request schedule — derives
// from Seed.
type config struct {
	Seed  int64
	Scale int
	// Seconds is the least time to measure for: a workload repeats whole
	// passes of its timed region until that much has been measured (always
	// at least one), and serve_live spreads its appends over it.
	Seconds float64
	Trace   bool
	// Dir is where the run keeps its files (journals, store files,
	// traces); it must be on a real filesystem, the fsyncs are measured.
	Dir string
	// AppendSegments is how many journal segments serve_live appends
	// live (the rest prime the server). Only the smoke test shortens it.
	AppendSegments int
	// FixtureDir, when set, makes collect_faulty_durable keep its journal
	// and store file there: how the other workloads' set-up obtains them.
	FixtureDir string
}

// liveSegments is how many of the 95 scheduled sweeps serve_live appends
// while serving, and resumeLive how many resume_report collects live.
const (
	liveSegments = 60
	resumeLive   = 5
)

// runner carries one workload run's state.
type runner struct {
	cfg config
	res *workloadResult
	m   metricSet
	// setups are the wall-clock samples of untimed set-up work.
	setups []float64
	// peakRSS is the process's peak resident set when the timed region
	// ended: the checks and layer probes that follow hold whole journals
	// in memory and must not be charged to the workload.
	peakRSS float64
}

func newRunner(name string, cfg config) *runner {
	return &runner{
		cfg: cfg,
		m:   metricSet{},
		res: &workloadResult{
			Workload: name,
			Traced:   cfg.Trace,
			Samples:  map[string]int{},
			Digests:  map[string]string{},
		},
	}
}

// check records one output verification.
func (r *runner) check(name string, ok bool, format string, args ...any) {
	r.res.Checks = append(r.res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// finish fills the derived fields and the exported metric maps.
func (r *runner) finish() *workloadResult {
	r.m.set("setup_s", median(r.setups))
	r.res.Samples["setup_s"] = len(r.setups)
	r.m.set("peak_rss_mb", r.peakRSS)
	r.res.Correct = true
	for _, c := range r.res.Checks {
		if !c.OK {
			r.res.Correct = false
		}
	}
	for _, d := range endToEnd {
		if r.m[d.Name] <= 0 {
			r.check("metric:"+d.Name, false, "end-to-end metric is %v; it must be positive on every workload", r.m[d.Name])
			r.res.Correct = false
		}
	}
	r.res.EndToEnd = r.m.export(endToEnd)
	if r.cfg.Trace {
		r.res.PerLayer = r.m.export(perLayer)
	}
	return r.res
}

// traceOverhead records how much dearer an op was with the probes on.
func (r *runner) traceOverhead(tracedCPUPerOp float64) {
	base := r.m["cpu_us_per_op"]
	r.m.set("bench.trace_overhead_pct", 100*(tracedCPUPerOp-base)/base)
}

// flushTrace writes the workload's spans next to its other files.
func (r *runner) flushTrace(tr *tracer) error {
	return tr.flush(r.res.Workload, filepath.Join(r.cfg.Dir, "trace-"+r.res.Workload+".json"))
}

// timed runs fn and returns its wall-clock and CPU time.
func timed(fn func() error) (wall, cpu time.Duration, err error) {
	c0, t0 := cpuTime(), time.Now()
	err = fn()
	return time.Since(t0), cpuTime() - c0, err
}

// enough reports whether the timed region has been measured for the
// configured time.
func (r *runner) enough(measured time.Duration) bool {
	return measured.Seconds() >= r.cfg.Seconds
}

// settle frees the previous pass's heap before the next one is timed, so
// a pass is not charged for collecting its predecessor's garbage.
func settle() {
	runtime.GC()
}

// studyOptions is the program's shipped configuration at the run's seed
// and scale: the benchmark measures what users get.
func (c config) studyOptions() core.Options {
	opts := core.DefaultOptions()
	opts.World = world.Config{Seed: c.Seed, Scale: c.Scale, RFShare: world.DefaultConfig().RFShare}
	return opts
}

// faultyOptions is studyOptions degraded the way collect_faulty_durable
// runs: 5% loss, the Netnod depeering routes, the registry outage
// window. The journal path and filesystem are the caller's.
func (c config) faultyOptions() core.Options {
	opts := c.studyOptions()
	opts.Loss = 0.05
	opts.Scenario = world.ScenarioNetnodDepeering
	opts.SimulateOutage = true
	return opts
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func sha256File(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// journalDigest is the SHA-256 of what a journal recorded, segment by
// segment: the day, the outcome counts and the measurements. It leaves
// out Retries and Recovered, which the journal also carries: under
// injected loss they count queries, and how many queries a sweep sends
// depends on which of its 8 workers reaches a shared name server's cache
// entry first, so two runs of one seed write journals that differ in
// those two counters and in nothing else.
func journalDigest(replay *store.JournalReplay) (string, error) {
	h := sha256.New()
	for _, rec := range replay.Sweeps {
		fmt.Fprintf(h, "%d %t %d %d %d %d\n", rec.Day, rec.Missing,
			rec.Stats.Domains, rec.Stats.Failed, rec.Stats.NXDomain, rec.Stats.Unreachable)
		batch, err := store.EncodeMeasurementBatch(rec.Day, rec.Measurements)
		if err != nil {
			return "", err
		}
		h.Write(batch)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// reportDigest renders everything resume_report renders — the report,
// the CSV exports, the experiments markdown — into one SHA-256.
func reportDigest(s *core.Study, tr *tracer) (string, error) {
	h := sha256.New()
	if err := renderEverything(s, h, tr); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// renderEverything writes the report, every CSV and the markdown to w,
// with a span around each when traced.
func renderEverything(s *core.Study, w io.Writer, tr *tracer) error {
	tr.push("core.render_all", 0)
	err := s.RenderAll(w)
	tr.pop()
	if err != nil {
		return err
	}
	tr.push("core.export_csv", 0)
	err = s.ExportCSV(func(name string) (io.WriteCloser, error) {
		fmt.Fprintf(w, "--- %s\n", name)
		return nopCloser{w}, nil
	})
	tr.pop()
	if err != nil {
		return err
	}
	tr.push("core.markdown", 0)
	err = s.ExperimentsMarkdown(w)
	tr.pop()
	return err
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// workDir creates a fresh directory for one workload run under cfg.Dir.
func (c config) workDir(name string) (string, error) {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.Dir, "work-"+name+"-")
}

// journalSegment decodes segment k (0-based) of the fixture journal
// alone, so a workload that feeds segments to the program one at a time
// never holds the whole decoded journal.
func journalSegment(fx *fixture, k int) (store.JournalSweep, error) {
	var rec store.JournalSweep
	f, err := os.Open(fx.Journal)
	if err != nil {
		return rec, err
	}
	defer f.Close()
	header := io.NewSectionReader(f, 0, fx.Offsets[0])
	segment := io.NewSectionReader(f, fx.Offsets[k], fx.Offsets[k+1]-fx.Offsets[k])
	replay, err := store.DecodeJournal(io.MultiReader(header, segment))
	if err != nil {
		return rec, err
	}
	if len(replay.Sweeps) != 1 || replay.Torn() {
		return rec, fmt.Errorf("segment %d of the fixture journal did not decode alone", k)
	}
	return replay.Sweeps[0], nil
}

// journalPrefix copies the first n segments of the fixture journal to
// dst.
func journalPrefix(fx *fixture, n int, dst string) error {
	if n >= len(fx.Offsets) {
		return fmt.Errorf("fixture journal has %d segments, need %d", len(fx.Offsets)-1, n)
	}
	src, err := os.Open(fx.Journal)
	if err != nil {
		return err
	}
	defer src.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, src, fx.Offsets[n]); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fixture is collect_faulty_durable's output as the other workloads'
// input: the journal J, the store file S, the segment boundaries of J
// and the digests every later artifact must reproduce.
type fixture struct {
	Journal string
	Store   string
	Offsets []int64
	Digests map[string]string
	// Measurements is the (domain, sweep) count behind J.
	Measurements int64
}

func fixturePaths(dir string) (journal, store string) {
	return filepath.Join(dir, "J.wrjl"), filepath.Join(dir, "S.wrst")
}
