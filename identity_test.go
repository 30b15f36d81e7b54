package whereru

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"whereru/internal/core"
	"whereru/internal/serve"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/identity manifests from this tree's output")

// identityCell is the one study the manifest pins: small enough for
// tier-1, with a routing scenario and the mail extension on, so every
// served experiment has content, and journaled, so the journal and the
// -checkpoint load path are covered.
const identityCell = "seed7-1in20000-netnod"

func identityOptions() core.Options {
	return core.Options{
		World:     world.Config{Seed: 7, Scale: 20000, RFShare: 0.1},
		CollectMX: true,
		Scenario:  world.ScenarioNetnodDepeering,
	}
}

// unpinnedPaths carry runtime values (latencies, counters, wall-clock
// folds), not study content.
var unpinnedPaths = map[string]bool{"/metrics": true, "/api/v1/stream/sweeps": true}

// TestIdentityManifest pins every product artifact of one collected study
// by its sha256 in testdata/identity/<cell>.txt: the journal, the store
// file, the report, the markdown, each CSV, and the body and ETag of every
// path the server lists. A change that moves any of them shows as a
// manifest diff naming the artifact; a declared change rewrites the
// manifest with
//
//	go test -run TestIdentityManifest -update .
//
// Within the run, a server over the collected study, one over
// core.LoadStore of its store file and one over core.LoadCheckpoint of its
// journal must serve equal bodies and ETags on every path, and the three
// studies must render equal reports, markdown and CSVs.
func TestIdentityManifest(t *testing.T) {
	opts := identityOptions()
	collecting := opts
	collecting.CheckpointPath = filepath.Join(t.TempDir(), "sweeps.wrjl")
	collected, err := core.New(collecting)
	if err != nil {
		t.Fatal(err)
	}
	if err := collected.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(collecting.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var storeFile bytes.Buffer
	if err := collected.SaveStore(&storeFile); err != nil {
		t.Fatal(err)
	}
	fromStore, err := core.LoadStore(opts, bytes.NewReader(storeFile.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromJournal, err := core.LoadCheckpoint(opts, collecting.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	paths := servedPaths(t, collected)
	rendered := identityArtifacts(t, collected, paths)
	for name, loaded := range map[string]*core.Study{"LoadStore": fromStore, "LoadCheckpoint": fromJournal} {
		for _, d := range diffManifest(rendered, identityArtifacts(t, loaded, paths), "collected", name) {
			t.Errorf("%s study differs from the collected one: %s", name, d)
		}
	}

	lines := append([]string{
		manifestLine("journal", journal),
		manifestLine("store", storeFile.Bytes()),
	}, rendered...)
	path := filepath.Join("testdata", "identity", identityCell+".txt")
	text := "# " + identityCell + ": the sha256 of every product artifact of one collected study\n" +
		"# (identity_test.go); served lines add the ETag. Rewrite with\n" +
		"#   go test -run TestIdentityManifest -update .\n" +
		strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	for _, d := range diffManifest(manifestLines(string(pinned)), lines, "pinned", "produced") {
		t.Errorf("%s: %s", path, d)
	}
}

// identityArtifacts renders everything s produces — report, markdown,
// each CSV and each served path — as manifest lines, after the CT log
// they read.
func identityArtifacts(t *testing.T, s *core.Study, paths []string) []string {
	t.Helper()
	// The report aggregates the log by CA, period and active day, so a
	// certificate logged a day late can move no rendered byte; the log's
	// own line pins every entry in log order.
	var log bytes.Buffer
	ct := s.World.CTLog
	for _, e := range ct.Scan(0, ct.Size(), nil) {
		fmt.Fprintf(&log, "%d %s %s root=%q sans=%q\n", e.Index, e.Timestamp, e.Cert, e.Cert.RootOrg, e.Cert.SANs)
	}
	var report, md bytes.Buffer
	if err := s.RenderAll(&report); err != nil {
		t.Fatal(err)
	}
	if err := s.ExperimentsMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := []string{
		manifestLine("ct-log", log.Bytes()),
		manifestLine("report", report.Bytes()),
		manifestLine("markdown", md.Bytes()),
	}
	if err := s.ExportCSV(func(name string) (io.WriteCloser, error) {
		return &csvFile{name: name, out: &out}, nil
	}); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(s, serve.Options{})
	for _, p := range paths {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %.200s", p, rec.Code, rec.Body.Bytes())
		}
		etag := rec.Header().Get("ETag")
		if etag == "" {
			etag = "-"
		}
		out = append(out, manifestLine("GET "+p, rec.Body.Bytes())+" "+etag)
	}
	return out
}

// csvFile hashes one exported CSV into a manifest line on Close.
type csvFile struct {
	bytes.Buffer
	name string
	out  *[]string
}

func (f *csvFile) Close() error {
	*f.out = append(*f.out, manifestLine("csv "+f.name, f.Bytes()))
	return nil
}

// servedPaths expands the endpoint list the server reports at
// /api/v1/study into concrete paths: each collection member, a domain
// from the store for {name}, and an ASN hosting that domain for movement.
func servedPaths(t *testing.T, s *core.Study) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	serve.New(s, serve.Options{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/study", nil))
	var doc struct {
		Endpoints []string `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Endpoints) == 0 {
		t.Fatalf("/api/v1/study lists no endpoints: %v: %.200s", err, rec.Body.Bytes())
	}
	domain, asn := identityDomain(t, s)
	var paths []string
	for _, e := range doc.Endpoints {
		switch {
		case unpinnedPaths[e]:
		case strings.HasSuffix(e, "}") && strings.Contains(e, "/{"):
			prefix, members, _ := strings.Cut(strings.TrimSuffix(e, "}"), "{")
			for _, m := range strings.Split(members, ",") {
				paths = append(paths, prefix+m)
			}
		case e == "/api/v1/domains/{name}/timeline":
			paths = append(paths, "/api/v1/domains/"+domain+"/timeline")
		case e == "/api/v1/movement?asn=&from=":
			paths = append(paths, "/api/v1/movement?asn="+strconv.FormatUint(uint64(asn), 10)+"&from="+simtime.ConflictStart.String())
		case strings.ContainsAny(e, "{}?="):
			t.Fatalf("endpoint %s has parameters the identity test does not fill", e)
		default:
			paths = append(paths, e)
		}
	}
	return paths
}

// identityDomain picks the store domain with the most epochs (the first
// in name order among equals) and the AS that announces its first apex
// address.
func identityDomain(t *testing.T, s *core.Study) (string, uint32) {
	t.Helper()
	var best []store.Measurement
	for _, d := range s.Store.Domains() {
		if h := s.Store.History(d); len(h) > len(best) && len(h[0].Config.ApexAddrs) > 0 {
			best = h
		}
	}
	if best == nil {
		t.Fatal("no store domain has an apex address")
	}
	asn, ok := s.World.Internet.OriginAS(best[0].Config.ApexAddrs[0])
	if !ok {
		t.Fatalf("no AS announces %s", best[0].Config.ApexAddrs[0])
	}
	return best[0].Domain, uint32(asn)
}

// manifestLine is one artifact's line: its name, a tab and the sha256 of
// its bytes.
func manifestLine(name string, b []byte) string {
	return fmt.Sprintf("%s\t%x", name, sha256.Sum256(b))
}

// manifestLines reads a manifest's artifact lines, skipping comments.
func manifestLines(text string) []string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	return out
}

// diffManifest names each artifact whose line differs between want and
// have, and each one only one side holds; the labels name the two sides.
func diffManifest(want, have []string, wantLabel, haveLabel string) []string {
	index := func(lines []string) map[string]string {
		m := map[string]string{}
		for _, l := range lines {
			name, sum, _ := strings.Cut(l, "\t")
			m[name] = sum
		}
		return m
	}
	w, h := index(want), index(have)
	var names []string
	for n := range w {
		names = append(names, n)
	}
	for n := range h {
		if _, ok := w[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		switch wl, hl := w[n], h[n]; {
		case wl == hl:
		case wl == "":
			out = append(out, fmt.Sprintf("%s: %s only", n, haveLabel))
		case hl == "":
			out = append(out, fmt.Sprintf("%s: %s only", n, wantLabel))
		default:
			out = append(out, fmt.Sprintf("%s moved\n\t%-9s %s\n\t%-9s %s", n, wantLabel, wl, haveLabel, hl))
		}
	}
	return out
}
