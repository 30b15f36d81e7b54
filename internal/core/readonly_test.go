package core_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"whereru/internal/core"
	"whereru/internal/serve"
	"whereru/internal/world"
)

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// renderAll writes what `whereru -csvdir -markdown` writes for s: the
// report, every CSV under its name, and the markdown.
func renderAll(t *testing.T, s *core.Study) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.RenderAll(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.ExportCSV(func(name string) (io.WriteCloser, error) {
		fmt.Fprintf(&b, "--- %s\n", name)
		return nopCloser{&b}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.ExperimentsMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// servedDocs builds every document whereru-serve computes from s's
// experiments, on a new server (so none comes from a response cache),
// with its ETag.
func servedDocs(t *testing.T, s *core.Study) string {
	t.Helper()
	srv := serve.New(s, serve.Options{})
	var b bytes.Buffer
	for _, path := range []string{
		"/api/v1/figures/1", "/api/v1/figures/2", "/api/v1/figures/3", "/api/v1/figures/4",
		"/api/v1/figures/5", "/api/v1/figures/reachability", "/api/v1/figures/latency",
		"/api/v1/figures/8", "/api/v1/tables/1", "/api/v1/tables/2",
		"/api/v1/hosting", "/api/v1/sweeps",
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		fmt.Fprintf(&b, "%s %s\n%s", path, rec.Header().Get("ETag"), rec.Body)
	}
	return b.String()
}

// TestSharedResultsAreReadOnly: a study hands every caller the same
// experiment values, so a renderer that modified one would change what
// the next caller renders. Rendering the report, CSVs and markdown and
// building every served document, twice over on one study, must give
// each output byte for byte as a fresh study's single run gives it.
func TestSharedResultsAreReadOnly(t *testing.T) {
	collect := func() *core.Study {
		t.Helper()
		s, err := core.New(core.Options{
			World: world.Config{Seed: 5, Scale: 20000, RFShare: 0.1}, DenseStep: 7,
			CollectMX: true, Scenario: "netnod-depeering",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Collect(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantRender, wantServed := renderAll(t, collect()), servedDocs(t, collect())

	s := collect()
	for pass := 1; pass <= 2; pass++ {
		if got := renderAll(t, s); got != wantRender {
			t.Errorf("render pass %d differs from a fresh study's", pass)
		}
		if got := servedDocs(t, s); got != wantServed {
			t.Errorf("served documents, pass %d, differ from a fresh study's", pass)
		}
	}
}
