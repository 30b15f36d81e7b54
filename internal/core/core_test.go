package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whereru/internal/analysis"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// tinyStudy runs a full collect at 1:20000 scale (≈585 domains) — small
// enough for unit tests, large enough to exercise every code path.
func tinyStudy(t *testing.T) *Study {
	t.Helper()
	opts := Options{World: world.Config{Seed: 5, Scale: 20000, RFShare: 0.1}, DenseStep: 7, CollectMX: true}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStudyLifecycle(t *testing.T) {
	s := tinyStudy(t)
	if len(s.Sweeps) == 0 || len(s.Stats) != len(s.Sweeps) {
		t.Fatalf("sweeps=%d stats=%d", len(s.Sweeps), len(s.Stats))
	}
	if s.Store.NumDomains() == 0 {
		t.Fatal("empty store after Collect")
	}
	if s.RussianCA().UniqueCerts == 0 {
		t.Fatal("no Russian Trusted Root CA certificate in the scans")
	}
	if s.Scale() != 20000 {
		t.Fatalf("Scale = %d", s.Scale())
	}
}

func TestRenderAllProducesEveryExperiment(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if err := s.RenderAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figures 6-7", "Table 1", "Figure 8",
		"Table 2", "Russian Trusted Root CA", "Paper vs measured",
		"relocation latency", "market concentration", "mail operators",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestComparisonsCoverAllExperiments holds the comparison index to the
// paper and to the experiment list: every figure and table the paper
// compares has a label, each experiment has rows unless it is ShapeOnly
// (then none), and a label's rows are contiguous, so the markdown has one
// section per label.
func TestComparisonsCoverAllExperiments(t *testing.T) {
	s := tinyStudy(t)
	for _, e := range experiments {
		x := index{label: e.Section}
		if e.compare != nil {
			e.compare(s, &x)
		}
		if (len(x.rows) == 0) != e.ShapeOnly {
			t.Errorf("%s: %d comparison rows, ShapeOnly %v", e.ID, len(x.rows), e.ShapeOnly)
		}
	}
	comps, err := s.Comparisons()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) < 30 {
		t.Fatalf("only %d comparison rows", len(comps))
	}
	done, groups := map[string]bool{}, map[string]bool{}
	for i, c := range comps {
		groups[c.Experiment] = true
		if c.Metric == "" || c.Paper == "" || c.Measured == "" {
			t.Errorf("incomplete comparison: %+v", c)
		}
		if i > 0 && comps[i-1].Experiment != c.Experiment {
			done[comps[i-1].Experiment] = true
		}
		if done[c.Experiment] {
			t.Errorf("row %d (%s: %s) is apart from the label's earlier rows", i, c.Experiment, c.Metric)
		}
	}
	for _, g := range []string{"Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5 / §3.3", "Fig 6", "Fig 7", "Tab 1", "Fig 8", "Tab 2", "§4.3", "§3.1 hosting"} {
		if !groups[g] {
			t.Errorf("missing experiment group %q (have %v)", g, groups)
		}
	}
}

func TestExperimentsMarkdown(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if err := s.ExperimentsMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	if !strings.HasPrefix(md, "# EXPERIMENTS") {
		t.Error("missing title")
	}
	if !strings.Contains(md, "| metric | paper | measured |") {
		t.Error("missing table header")
	}
	if !strings.Contains(md, "73.9%") {
		t.Error("missing paper target values")
	}
	for _, n := range []int{0, 100, buf.Len() - 1} {
		if err := s.ExperimentsMarkdown(&failingWriter{n: n}); !errors.Is(err, errWriteFailed) {
			t.Errorf("a write failing after %d bytes: err = %v, want %v", n, err, errWriteFailed)
		}
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

func TestSaveStore(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if _, err := s.Store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Fatalf("store blob suspiciously small: %d bytes", buf.Len())
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("WRST")) {
		t.Error("store blob missing magic")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := New(Options{World: world.Config{Seed: 1, Scale: 50000, RFShare: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Opts.DenseStep != 3 || s.Opts.Workers != 8 {
		t.Errorf("defaults not applied: %+v", s.Opts)
	}
	if _, err := New(Options{World: world.Config{Scale: 0}}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestNewRefusesNegativeOptions: a negative sweep step or worker count
// used to run silently as its default.
func TestNewRefusesNegativeOptions(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Options)
	}{
		{"DenseStep", func(o *Options) { o.DenseStep = -5 }},
		{"Workers", func(o *Options) { o.Workers = -4 }},
	} {
		opts := Options{World: world.Config{Seed: 1, Scale: 50000, RFShare: 0.1}}
		c.set(&opts)
		if _, err := New(opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New with a negative %s: err = %v, want one naming the field", c.field, err)
		}
	}
}

func TestEmptyStudyReturnsErrNoSweeps(t *testing.T) {
	s, err := New(Options{World: world.Config{Seed: 5, Scale: 20000, RFShare: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	// No Collect: the store holds zero sweeps. The entry points must
	// fail cleanly instead of panicking on an empty series.
	if _, err := s.Comparisons(); !errors.Is(err, ErrNoSweeps) {
		t.Fatalf("Comparisons on empty study: err = %v, want ErrNoSweeps", err)
	}
	if err := s.RenderAll(io.Discard); !errors.Is(err, ErrNoSweeps) {
		t.Fatalf("RenderAll on empty study: err = %v, want ErrNoSweeps", err)
	}
	if err := s.ExperimentsMarkdown(io.Discard); !errors.Is(err, ErrNoSweeps) {
		t.Fatalf("ExperimentsMarkdown on empty study: err = %v, want ErrNoSweeps", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := tinyStudy(t)
	var blob bytes.Buffer
	if _, err := s.Store.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(s.Opts, &blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Store.NumDomains(), s.Store.NumDomains(); got != want {
		t.Fatalf("loaded domains = %d, want %d", got, want)
	}
	if got, want := len(loaded.Sweeps), len(s.Sweeps); got != want {
		t.Fatalf("loaded sweeps = %d, want %d", got, want)
	}
	sameOutputs(t, "LoadStore", outputs(t, loaded), outputs(t, s))
}

// outputs is everything a study renders, by name: the report, the
// markdown and each CSV.
func outputs(t *testing.T, s *Study) map[string]string {
	t.Helper()
	var report, md bytes.Buffer
	if err := s.RenderAll(&report); err != nil {
		t.Fatal(err)
	}
	if err := s.ExperimentsMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"report": report.String(), "markdown": md.String()}
	files := map[string]*memFile{}
	if err := s.ExportCSV(func(name string) (io.WriteCloser, error) {
		files[name] = &memFile{}
		return files[name], nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, f := range files {
		out[name] = f.String()
	}
	return out
}

// sameOutputs fails t for every output of a loaded study that differs
// from the collected study's, quoting the first line that differs.
func sameOutputs(t *testing.T, load string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d outputs, the collected study rendered %d", load, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == w {
			continue
		}
		gl, wl := strings.SplitAfter(g, "\n"), strings.SplitAfter(w, "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		gl, wl = append(gl, ""), append(wl, "")
		t.Errorf("%s: %s differs from the collected study's at line %d\n got %q\nwant %q", load, name, i+1, gl[i], wl[i])
	}
}

// TestAdoptStoreDropsConfigMemo: the analyzer memoises per config ID, and
// every store numbers its own configs, so an analyzer that has answered
// movement queries about one store must start over when adoptStore hands
// it another — here the empty store New builds, then the collected store
// (IDs in arrival order), then the same data loaded from a file (IDs in
// file order).
func TestAdoptStoreDropsConfigMemo(t *testing.T) {
	s := tinyStudy(t)
	var blob bytes.Buffer
	if _, err := s.Store.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Read(&blob)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Store.Snapshot(), loaded.Snapshot()
	renumbered := false
	for id := 0; id < a.NumConfigs() && id < b.NumConfigs() && !renumbered; id++ {
		renumbered = !a.Config(uint32(id)).Equal(*b.Config(uint32(id)))
	}
	if !renumbered {
		t.Fatal("collected and loaded store number their configs alike: the swap below would prove nothing")
	}

	swapped, err := New(s.Opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		asn  netsim.ASN
		from simtime.Day
	}{
		{16509, world.AmazonStmtDay}, {47846, world.SedoStmtDay.Add(-1)},
		{13335, world.CloudflareStmtDay}, {15169, world.GoogleStmtDay},
	}
	for _, st := range []*store.Store{nil, s.Store, loaded} {
		if st != nil {
			swapped.adoptStore(st)
		}
		for _, c := range cases {
			want := analysis.Movement{ASN: c.asn, From: c.from, To: simtime.StudyEnd,
				OutDestinations: map[netsim.ASN]int{}, InSources: map[netsim.ASN]int{}}
			if st != nil {
				want = s.Movement(c.asn, c.from)
				if want.Original == 0 {
					t.Fatalf("AS%d hosts nothing on %s: nothing to compare", c.asn, c.from)
				}
			}
			if got := swapped.Movement(c.asn, c.from); !reflect.DeepEqual(got, want) {
				t.Errorf("Movement(AS%d, %s) after adopting store %p\n got %+v\nwant %+v", c.asn, c.from, st, got, want)
			}
			wantL := s.Analyzer.RelocationLatency(c.asn, c.from, simtime.StudyEnd)
			if st == nil {
				wantL = analysis.LatencyReport{ASN: c.asn, Event: c.from}
			}
			if got := swapped.Analyzer.RelocationLatency(c.asn, c.from, simtime.StudyEnd); !reflect.DeepEqual(got, wantL) {
				t.Errorf("RelocationLatency(AS%d, %s) after adopting store %p\n got %+v\nwant %+v", c.asn, c.from, st, got, wantL)
			}
		}
	}
}

type memFile struct {
	bytes.Buffer
	closed bool
}

func (m *memFile) Close() error { m.closed = true; return nil }

func TestExportCSV(t *testing.T) {
	s := tinyStudy(t)
	files := map[string]*memFile{}
	err := s.ExportCSV(func(name string) (io.WriteCloser, error) {
		f := &memFile{}
		files[name] = f
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig1_ns_composition.csv", "fig2_tld_dependency.csv",
		"fig3_tld_shares.csv", "fig4_asn_shares.csv", "fig5_sanctioned.csv",
	}
	for _, name := range want {
		f, ok := files[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if !f.closed {
			t.Errorf("%s not closed", name)
		}
		lines := strings.Split(strings.TrimSpace(f.String()), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has no data rows", name)
		}
		if !strings.Contains(lines[0], "day") {
			t.Errorf("%s header = %q", name, lines[0])
		}
	}
}

// TestMovementAsOfLastSweep cuts a journal at three generations, one of
// them right after a missing-day marker: a study holding only that
// prefix answers a movement query as of its last sweep, exactly as the
// complete study answers it as of that day — not with every domain gone
// on a day it has not swept, or swept nothing on.
func TestMovementAsOfLastSweep(t *testing.T) {
	opts := shortOpts()
	opts.StudyEnd = 0 // the paper's end day: the schedule runs past the statements
	sched := opts.schedule()
	opts.DropSweeps = []simtime.Day{sched[3*len(sched)/4]}
	opts.CheckpointPath = filepath.Join(t.TempDir(), "j.wrjl")
	_, full := runStudy(t, opts)
	replay, err := store.VerifyJournal(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	asn, from := netsim.ASN(13335), simtime.ConflictStart
	if m := full.Movement(asn, from); m.To != simtime.StudyEnd || m.Original == 0 {
		t.Fatalf("complete study: movement to %s of %d domains, want to %s of some", m.To, m.Original, simtime.StudyEnd)
	}
	recs := replay.Sweeps
	cuts := map[int]bool{len(recs) / 2: true, len(recs) - 2: true}
	for i, rec := range recs {
		if rec.Missing {
			cuts[i] = true
		}
	}
	if len(cuts) != 3 {
		t.Fatalf("cuts %v of %d records: want a missing-day marker apart from the other two", cuts, len(recs))
	}
	partial := freshOver(full, store.New())
	for i, rec := range recs {
		partial.ApplySweep(rec)
		if !cuts[i] {
			continue
		}
		swept := partial.Store.Sweeps()
		asOf := swept[len(swept)-1]
		if asOf <= from {
			t.Fatalf("cut %d: last sweep %s is not after %s", i, asOf, from)
		}
		got := partial.Movement(asn, from)
		want := full.Analyzer.MovementAnalysis(asn, from, asOf, full.World.Registries)
		if !reflect.DeepEqual(got, want) || got.Gone >= got.Original {
			t.Errorf("cut after %s (missing %v, generation %d): movement to %s, %d of %d gone; the complete study as of %s: %d of %d",
				rec.Day, rec.Missing, partial.Store.Generation(), got.To, got.Gone, got.Original, asOf, want.Gone, want.Original)
		}
	}
}
