package core

import (
	"bytes"
	"context"
	"errors"
	"io"
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
	if len(s.Archive.Days()) == 0 {
		t.Fatal("no scan days recorded")
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

func TestComparisonsCoverAllExperiments(t *testing.T) {
	s := tinyStudy(t)
	comps, err := s.Comparisons()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) < 30 {
		t.Fatalf("only %d comparison rows", len(comps))
	}
	groups := map[string]bool{}
	for _, c := range comps {
		groups[c.Experiment] = true
		if c.Metric == "" || c.Paper == "" || c.Measured == "" {
			t.Errorf("incomplete comparison: %+v", c)
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
}

func TestSaveStore(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if err := s.SaveStore(&buf); err != nil {
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
	if s.Opts.DenseFrom.String() != "2022-02-01" {
		t.Errorf("DenseFrom default = %v", s.Opts.DenseFrom)
	}
	if _, err := New(Options{World: world.Config{Scale: 0}}); err == nil {
		t.Error("invalid config accepted")
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
	if err := s.SaveStore(&blob); err != nil {
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
	// The DNS-derived series must be identical to the originating study's.
	want, got := s.Fig1(), loaded.Fig1()
	if len(want) != len(got) {
		t.Fatalf("Fig1 lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Fig1[%d] = %+v, want %+v", i, got[i], want[i])
		}
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
	if err := s.SaveStore(&blob); err != nil {
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
