package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whereru/internal/analysis"
	"whereru/internal/core"
	"whereru/internal/idn"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// The serve tests share one collected study: collection dominates the
// package's runtime, and every test only reads from it. A test that
// mutates the store takes a copy of its own (privateStudy), so the
// package passes under -count=N.
var (
	studyOnce   sync.Once
	sharedStudy *core.Study
	studyErr    error
)

func testStudyOptions() core.Options {
	return core.Options{
		World:     world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep: 7,
		CollectMX: true,
		// A routing scenario so the reachability/latency figures and the
		// outages endpoint have real content to serve.
		Scenario: world.ScenarioNetnodDepeering,
	}
}

func testStudy(tb testing.TB) *core.Study {
	tb.Helper()
	studyOnce.Do(func() {
		var s *core.Study
		s, studyErr = core.New(testStudyOptions())
		if studyErr != nil {
			return
		}
		if studyErr = s.Collect(context.Background()); studyErr == nil {
			sharedStudy = s
		}
	})
	if studyErr != nil {
		tb.Fatalf("building shared study: %v", studyErr)
	}
	return sharedStudy
}

// privateStudy returns a study the caller may mutate: the shared study's
// store, saved and loaded into a world of its own.
func privateStudy(tb testing.TB) *core.Study {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := testStudy(tb).Store.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	s, err := core.LoadStore(testStudyOptions(), &buf)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newTestServer(tb testing.TB, opts Options) (*Server, *httptest.Server) {
	tb.Helper()
	return newStudyServer(tb, testStudy(tb), opts)
}

func newStudyServer(tb testing.TB, study *core.Study, opts Options) (*Server, *httptest.Server) {
	tb.Helper()
	srv := New(study, opts)
	ts := httptest.NewServer(srv)
	tb.Cleanup(ts.Close)
	return srv, ts
}

func get(tb testing.TB, url string) (*http.Response, []byte) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		tb.Fatalf("reading %s: %v", url, err)
	}
	return resp, body
}

// marshalDoc renders a document exactly as the server does.
func marshalDoc(tb testing.TB, doc any) []byte {
	tb.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// TestEndpointsGolden compares every JSON endpoint's bytes against the
// renderer output built directly from the study — the server must be a
// pure serialization of the analysis layer, nothing added, nothing lost.
func TestEndpointsGolden(t *testing.T) {
	st := testStudy(t)
	_, ts := newTestServer(t, Options{})
	gen := st.Store.Generation()

	var fig4Labels []asnLabel
	for _, e := range core.Experiments() {
		for _, n := range e.Plotted {
			fig4Labels = append(fig4Labels, asnLabel{ASN: n.ASN, Name: n.Name})
		}
	}
	fig3 := st.Fig3()
	fig3Top := analysis.TopTLDs(fig3, 5)
	dense := simtime.Date(2022, 2, 1)

	cases := []struct {
		path string
		doc  any
	}{
		{"/api/v1/figures/1", experimentDoc{
			Figure: 1, Title: "NS-infrastructure composition of .ru/.рф",
			Generation: gen, MissingDays: st.Store.MissingSweeps(),
			Series: renderComposition(st.Fig1()),
		}},
		{"/api/v1/figures/2", experimentDoc{
			Figure: 2, Title: "TLD dependency of .ru/.рф name servers",
			Generation: gen, MissingDays: st.Store.MissingSweeps(),
			Series: renderComposition(st.Fig2()),
		}},
		{"/api/v1/figures/3", experimentDoc{
			Figure: 3, Title: "Name-server TLD shares",
			Generation: gen, TopTLDs: fig3Top,
			MissingDays: st.Store.MissingSweeps(),
			Series:      renderTLDShares(fig3, fig3Top),
		}},
		{"/api/v1/figures/4", experimentDoc{
			Figure: 4, Title: "Hosting ASN shares (2022 dense window)",
			Generation: gen, Plotted: fig4Labels,
			MissingDays: missingIn(st.Store.MissingSweeps(), dense),
			Series:      renderASNShares(st.Fig4()),
		}},
		{"/api/v1/figures/5", experimentDoc{
			Figure: 5, Title: "Sanctioned-domain NS composition (2022 dense window)",
			Generation:  gen,
			MissingDays: missingIn(st.Store.MissingSweeps(), dense),
			Series:      renderComposition(st.Fig5()),
		}},
		{"/api/v1/figures/8", experimentDoc{
			Figure: 8, Title: "Top-10 CA issuance timelines",
			Generation: gen,
			WindowFrom: world.RussianCAStartDay, WindowTo: simtime.CTWindowEnd,
			Timelines: renderTimelines(st.Fig8()),
		}},
		{"/api/v1/figures/reachability", experimentDoc{
			Endpoint: "reachability", Title: "Name-server reachability under routing scenario",
			Scenario: st.Opts.Scenario, Generation: gen,
			MissingDays: st.Store.MissingSweeps(),
			Series:      renderReachability(st.Reachability()),
		}},
		{"/api/v1/figures/latency", experimentDoc{
			Endpoint: "latency", Title: "Simulated resolution latency (best NS path)",
			Scenario: st.Opts.Scenario, Generation: gen,
			MissingDays: st.Store.MissingSweeps(),
			Series:      renderRouteLatency(st.RouteLatency()),
		}},
		{"/api/v1/outages", renderOutages(st.Outages.Events(), st.Opts.Scenario, gen)},
		{"/api/v1/tables/1", experimentDoc{
			Table: 1, Title: "Certificate issuance by period",
			Generation: gen, Scale: st.Scale(),
			Rows: renderTable1(st.Table1(), st.Scale()),
		}},
		{"/api/v1/tables/2", experimentDoc{
			Table: 2, Title: "Revocations by top-5 revoking CAs",
			Generation: gen,
			Rows:       renderTable2(st.Table2()),
		}},
		{"/api/v1/hosting", experimentDoc{
			Endpoint: "hosting", Title: "Hosting composition (§3.1)",
			Generation: gen, MissingDays: st.Store.MissingSweeps(),
			Series: renderComposition(st.Hosting()),
		}},
		{"/api/v1/movement?asn=197695&from=2022-02-24", renderMovement(
			st.Movement(197695, simtime.ConflictStart), gen)},
		{"/api/v1/study", renderStudy(st, gen)},
		{"/api/v1/sweeps", docSweepsFromCounts(st, st.Store.MissingSweeps(), gen)},
	}
	for _, c := range cases {
		t.Run(c.path, func(t *testing.T) {
			want := marshalDoc(t, c.doc)
			resp, body := get(t, ts.URL+c.path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q", ct)
			}
			if resp.Header.Get("ETag") == "" {
				t.Error("no ETag")
			}
			if string(body) != string(want) {
				t.Errorf("server bytes differ from renderer output\nserver: %.200s\nwant:   %.200s", body, want)
			}
			// Byte-identical on repeat: the cached body is served verbatim.
			_, again := get(t, ts.URL+c.path)
			if string(again) != string(body) {
				t.Error("repeated request returned different bytes")
			}
		})
	}
}

// TestTimelineEndpoint exercises the per-domain point lookup: a known
// domain yields its epoch timeline, an unknown one a 404.
func TestTimelineEndpoint(t *testing.T) {
	st := testStudy(t)
	_, ts := newTestServer(t, Options{})
	doms := st.Store.Domains()
	if len(doms) == 0 {
		t.Fatal("study has no domains")
	}
	name := doms[len(doms)/2]
	resp, body := get(t, ts.URL+"/api/v1/domains/"+strings.TrimSuffix(name, ".")+"/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var doc timelineDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Domain != name {
		t.Errorf("domain = %q, want %q (canonicalized)", doc.Domain, name)
	}
	if len(doc.Epochs) == 0 {
		t.Fatal("no epochs")
	}
	if doc.FirstSeen > doc.LastSeen {
		t.Errorf("first_seen %s after last_seen %s", doc.FirstSeen, doc.LastSeen)
	}
	total := 0
	for i, ep := range doc.Epochs {
		if ep.From > ep.To {
			t.Errorf("epoch %d: from %s after to %s", i, ep.From, ep.To)
		}
		if ep.SweepsCovered <= 0 {
			t.Errorf("epoch %d: covered %d sweeps", i, ep.SweepsCovered)
		}
		total += ep.SweepsCovered
	}
	if sweeps := len(st.Store.Sweeps()); total > sweeps {
		t.Errorf("epochs cover %d sweeps, study has %d", total, sweeps)
	}

	resp, _ = get(t, ts.URL+"/api/v1/domains/no-such-domain.example/timeline")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown domain: status = %d, want 404", resp.StatusCode)
	}
	// The 404 must not poison the cache: a real domain still resolves.
	resp, _ = get(t, ts.URL+"/api/v1/domains/"+name+"/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("known domain after 404: status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/api/v1/domains/"+strings.Repeat("a", 64)+".ru/timeline")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("64-octet label: status = %d, want 400", resp.StatusCode)
	}

	// A .рф name answers under either spelling, with one body and ETag.
	// The world spells its .рф names домен<i>.
	listed := make(map[string]bool, len(doms))
	for _, d := range doms {
		listed[d] = true
	}
	var ace, unicode string
	for i := 0; i < 1_000_000 && ace == ""; i++ {
		if label, err := idn.EncodeLabel(fmt.Sprintf("домен%d", i)); err == nil && listed[label+".xn--p1ai."] {
			ace, unicode = label+".xn--p1ai.", fmt.Sprintf("домен%d.рф.", i)
		}
	}
	if ace == "" {
		t.Fatal("study has no punycoded .рф domain")
	}
	aceResp, aceBody := get(t, ts.URL+"/api/v1/domains/"+ace+"/timeline")
	uniResp, uniBody := get(t, ts.URL+"/api/v1/domains/"+url.PathEscape(unicode)+"/timeline")
	if aceResp.StatusCode != http.StatusOK || uniResp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %s: status %d", ace, aceResp.StatusCode, unicode, uniResp.StatusCode)
	}
	if !bytes.Equal(uniBody, aceBody) || uniResp.Header.Get("ETag") != aceResp.Header.Get("ETag") {
		t.Errorf("%s and %s answer differently:\n%s %s\n%s %s", unicode, ace,
			uniResp.Header.Get("ETag"), uniBody, aceResp.Header.Get("ETag"), aceBody)
	}
}

// TestScenarioContent pins the routing-scenario semantics end to end
// through the API: under netnod-depeering the Swedish name-server slice
// (Netnod's secondary service) is fully reachable before the cutoff and
// gone from the measured footprint after it — the pipeline can no
// longer resolve NS hosts behind the withdrawn AS (the chase fails with
// ErrNoPath), so their addresses drop out of measured configs entirely
// instead of lingering as unreachable entries — and the outages
// endpoint lists the scenario's route events alongside any registry
// outages.
func TestScenarioContent(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, body := get(t, ts.URL+"/api/v1/figures/reachability")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reachability: status %d, body: %s", resp.StatusCode, body)
	}
	var doc struct {
		Scenario string `json:"scenario"`
		Series   []struct {
			Day       string `json:"day"`
			Total     int    `json:"total"`
			Reachable int    `json:"reachable"`
			Countries []struct {
				Country   string `json:"country"`
				Total     int    `json:"total"`
				Reachable int    `json:"reachable"`
			} `json:"countries"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Scenario != world.ScenarioNetnodDepeering {
		t.Errorf("scenario = %q, want %q", doc.Scenario, world.ScenarioNetnodDepeering)
	}
	if len(doc.Series) == 0 {
		t.Fatal("empty reachability series")
	}
	se := func(i int) (total, reach int) {
		for _, c := range doc.Series[i].Countries {
			if c.Country == "SE" {
				return c.Total, c.Reachable
			}
		}
		return 0, 0
	}
	cutoff := world.NetnodCutoffDay.String()
	first, last := 0, len(doc.Series)-1
	if doc.Series[first].Day >= cutoff {
		t.Fatalf("first series day %s not before the cutoff %s", doc.Series[first].Day, cutoff)
	}
	if tot, reach := se(first); tot == 0 || reach != tot {
		t.Errorf("pre-cutoff SE reachability = %d/%d, want fully reachable and nonzero", reach, tot)
	}
	if doc.Series[last].Day < cutoff {
		t.Fatalf("last series day %s not past the cutoff %s", doc.Series[last].Day, cutoff)
	}
	if tot, reach := se(last); tot != 0 || reach != 0 {
		t.Errorf("post-cutoff SE reachability = %d/%d, want the SE slice gone from the measured footprint", reach, tot)
	}
	if p := doc.Series[last]; p.Reachable == 0 || p.Reachable > p.Total {
		t.Errorf("post-cutoff overall reachability %d/%d out of range", p.Reachable, p.Total)
	}

	resp, body = get(t, ts.URL+"/api/v1/figures/latency")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("latency: status %d, body: %s", resp.StatusCode, body)
	}
	var lat struct {
		Series []struct {
			Domains int   `json:"domains"`
			P50US   int64 `json:"p50_us"`
			P99US   int64 `json:"p99_us"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &lat); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(lat.Series) == 0 {
		t.Fatal("empty latency series")
	}
	if p := lat.Series[len(lat.Series)-1]; p.Domains == 0 || p.P50US == 0 || p.P99US < p.P50US {
		t.Errorf("final latency point %+v, want routed domains with nonzero ordered quantiles", p)
	}

	resp, body = get(t, ts.URL+"/api/v1/outages")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outages: status %d, body: %s", resp.StatusCode, body)
	}
	var out struct {
		Scenario string `json:"scenario"`
		Events   []struct {
			Key  string `json:"key"`
			Kind string `json:"kind"`
			From string `json:"from"`
			To   string `json:"to"`
			Days int    `json:"days"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	kinds := map[string]string{}
	for _, ev := range out.Events {
		kinds[ev.Key] = ev.Kind
		if ev.From > ev.To || ev.Days <= 0 {
			t.Errorf("event %s has a degenerate window %s..%s (%d days)", ev.Key, ev.From, ev.To, ev.Days)
		}
	}
	if got := kinds["route:depeer:AS8674-AS64500"]; got != "depeer" {
		t.Errorf("depeering event kind = %q, events: %v", got, kinds)
	}
	if got := kinds["route:ixp:NETNOD-IX:AS8674"]; got != "ixp-withdraw" {
		t.Errorf("IXP-withdrawal event kind = %q, events: %v", got, kinds)
	}
}

// TestRequestValidation covers the 4xx surface: bad figure/table numbers
// and malformed movement parameters.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		path string
		want int
	}{
		{"/api/v1/figures/6", http.StatusNotFound},
		{"/api/v1/figures/x", http.StatusNotFound},
		{"/api/v1/tables/3", http.StatusNotFound},
		{"/api/v1/movement", http.StatusBadRequest},
		{"/api/v1/movement?asn=197695", http.StatusBadRequest},
		{"/api/v1/movement?asn=abc&from=2022-02-24", http.StatusBadRequest},
		{"/api/v1/movement?asn=197695&from=yesterday", http.StatusBadRequest},
		{"/api/v1/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.path)
		if resp.StatusCode != c.want {
			t.Errorf("GET %s = %d, want %d (body: %.100s)", c.path, resp.StatusCode, c.want, body)
		}
	}
}

// TestAPIServesTheExperimentList holds the API surface to core's
// experiment list: every experiment with an API title answers 200 at its
// path, the study document lists exactly those paths with their sources,
// and an unknown id is a 404 that names the collection's ids.
func TestAPIServesTheExperimentList(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	want := map[string]core.Source{}
	ids := map[string][]string{}
	for _, e := range core.Experiments() {
		if e.APITitle == "" {
			continue
		}
		path := e.ID
		if e.Collection != "" {
			id := e.ID
			if e.Number != 0 {
				id = strconv.Itoa(e.Number)
			}
			path = e.Collection + "/" + id
			ids[e.Collection] = append(ids[e.Collection], id)
		}
		want["/api/v1/"+path] = e.Source
		if resp, body := get(t, ts.URL+"/api/v1/"+path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d (body: %.100s)", path, resp.StatusCode, body)
		}
	}
	if len(want) < 11 {
		t.Fatalf("only %d served experiments: %v", len(want), want)
	}

	_, body := get(t, ts.URL+"/api/v1/study")
	var doc struct {
		Sources map[string]core.Source `json:"sources"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Sources, want) {
		t.Errorf("/api/v1/study sources = %v, want %v", doc.Sources, want)
	}

	for kind, have := range ids {
		resp, body := get(t, ts.URL+"/api/v1/"+kind+"/nope")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s/nope = %d, want 404", kind, resp.StatusCode)
		}
		for _, id := range have {
			if !strings.Contains(string(body), id) {
				t.Errorf("%s 404 %q does not name %q", kind, body, id)
			}
		}
	}
}

// TestCoalescing issues N concurrent cold requests for the same figure
// and asserts the engine computed exactly once — the singleflight
// guarantee the cache makes.
func TestCoalescing(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, ts.URL+"/api/v1/figures/1")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := srv.met.computationCount(); got != 1 {
		t.Errorf("%d concurrent cold requests ran %d computations, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
}

// TestETagRoundTrip drives the conditional-request protocol: a cached
// ETag turns into 304, a store mutation (generation bump) invalidates it
// back to 200 with fresh bytes.
func TestETagRoundTrip(t *testing.T) {
	st := privateStudy(t) // mutated below
	_, ts := newStudyServer(t, st, Options{})
	url := ts.URL + "/api/v1/figures/2"

	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a strong quoted tag", etag)
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional: status %d, want 304", resp2.StatusCode)
	}
	if len(b2) != 0 {
		t.Errorf("304 carried a %d-byte body", len(b2))
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("304 ETag = %q, want %q", resp2.Header.Get("ETag"), etag)
	}
	for _, tc := range []struct {
		header string
		want   int
	}{
		{`*`, http.StatusNotModified},
		{"\t\"other\" ,  " + etag + "\t", http.StatusNotModified},
		{`"other", W/` + etag, http.StatusNotModified},
		{`"other", , "another"`, http.StatusOK},
		{`,` + etag + `,`, http.StatusNotModified},
	} {
		r, _ := http.NewRequest(http.MethodGet, url, nil)
		r.Header.Set("If-None-Match", tc.header)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("If-None-Match %q: status %d, want %d", tc.header, resp.StatusCode, tc.want)
		}
	}

	// Mutate the store: the generation bumps, the cache key moves on, and
	// the same conditional request must now see fresh content.
	genBefore := st.Store.Generation()
	st.Store.MarkMissingSweep(simtime.StudyEnd.Add(7))
	if st.Store.Generation() == genBefore {
		t.Fatal("MarkMissingSweep did not bump the generation")
	}
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation conditional: status %d, want 200", resp3.StatusCode)
	}
	if resp3.Header.Get("ETag") == etag {
		t.Error("ETag unchanged after store mutation")
	}
	if string(b3) == string(body) {
		t.Error("body unchanged after store mutation")
	}
}

// TestSaturation pins the backpressure contract: with one computation
// slot held by a deliberately stalled leader, a second cold request is
// rejected immediately with 503 + Retry-After, and the slot's eventual
// release lets traffic through again.
func TestSaturation(t *testing.T) {
	// The gate is installed before the listener starts and never changed
	// after, so handler goroutines only ever read it.
	srv := newLimited(testStudy(t), Options{}, limits{slots: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.computeGate = func(endpoint string) {
		if endpoint == "figures" {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	leader := make(chan result, 1)
	go func() {
		resp, body := get(t, ts.URL+"/api/v1/figures/1")
		leader <- result{resp.StatusCode, string(body)}
	}()

	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the compute gate")
	}

	resp, _ := get(t, ts.URL+"/api/v1/hosting")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("503 Retry-After = %q, want \"1\"", ra)
	}
	srv.met.mu.Lock()
	saturations := srv.met.saturations
	srv.met.mu.Unlock()
	if saturations == 0 {
		t.Error("saturation not counted")
	}

	close(release)
	if r := <-leader; r.code != http.StatusOK {
		t.Fatalf("stalled leader finished with %d: %.200s", r.code, r.body)
	}
	// The rejected request was not cached as an error: it now succeeds.
	resp, _ = get(t, ts.URL+"/api/v1/hosting")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-saturation retry: status %d, want 200", resp.StatusCode)
	}
}

// TestCoalescedWaitTimesOut pins the deadline of a coalesced wait: with
// a figures leader stalled at the compute gate, an identical request waits
// RequestTimeout and gets 503 + Retry-After. The timeout is not cached:
// the stalled leader still answers 200, and the next request is a hit on
// its entry.
func TestCoalescedWaitTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	srv := New(testStudy(t), Options{RequestTimeout: timeout})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.computeGate = func(endpoint string) {
		if endpoint == "figures" {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	releaseGate := sync.OnceFunc(func() { close(release) })
	defer releaseGate() // before ts.Close, which waits for the leader
	url := ts.URL + "/api/v1/figures/1"

	leader := make(chan int, 1)
	go func() {
		resp, _ := get(t, url)
		leader <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached the compute gate")
	}

	start := time.Now()
	resp, _ := get(t, url)
	if waited := time.Since(start); resp.StatusCode != http.StatusServiceUnavailable || waited < timeout {
		t.Fatalf("coalesced request: status %d after %v, want 503 after at least %v", resp.StatusCode, waited, timeout)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("timed-out wait: Retry-After = %q, want \"1\"", ra)
	}

	releaseGate()
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("stalled leader answered %d, want 200", code)
	}
	hits := func() uint64 {
		srv.met.mu.Lock()
		defer srv.met.mu.Unlock()
		return srv.met.cacheHits
	}
	before := hits()
	if resp, _ := get(t, url); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the leader finished: status %d, want 200", resp.StatusCode)
	}
	if hits() != before+1 || srv.met.computationCount() != 1 {
		t.Errorf("after the leader finished: %d hits (want 1) and %d computations (want 1)", hits()-before, srv.met.computationCount())
	}
}

// TestHealthzAndMetrics smoke-tests the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok ") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	get(t, ts.URL+"/api/v1/figures/1")
	get(t, ts.URL+"/api/v1/figures/1")

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, line := range []string{
		`whereru_requests_total{endpoint="figures",code="200"}`,
		`whereru_request_duration_seconds_bucket{le="+Inf"}`,
		"whereru_computations_total",
		"whereru_cache_hits_total",
		"whereru_inflight_requests",
		"whereru_store_domains",
		"whereru_store_epochs",
		"whereru_store_distinct_configs",
		"whereru_store_resident_bytes",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics output missing %q", line)
		}
	}
	// Two identical requests: the second must have been a cache hit.
	if !strings.Contains(text, "whereru_cache_hits_total 1") {
		t.Errorf("expected exactly one cache hit, metrics:\n%s", text)
	}
	// The store gauges read the collected store's MemStats: none is 0.
	for _, gauge := range []string{"whereru_store_epochs", "whereru_store_distinct_configs", "whereru_store_resident_bytes"} {
		_, rest, _ := strings.Cut(text, "\n"+gauge+" ")
		value, _, _ := strings.Cut(rest, "\n")
		if v, err := strconv.ParseInt(value, 10, 64); err != nil || v <= 0 {
			t.Errorf("%s = %q, want a count above 0", gauge, value)
		}
	}
	assertMetricsShape(t, body)
}

// assertMetricsShape holds a /metrics body to the families in
// testdata/metrics_families.txt: the same # HELP and # TYPE lines in the
// same order, each TYPE right after its family's HELP, and every family's
// samples after its TYPE line and before the next family (a histogram's
// _bucket, _sum and _count, a summary's _sum and _count).
func assertMetricsShape(t *testing.T, body []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_families.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var headers []string
	var help, family, typ string
	samples := -1 // no family open yet
	closeFamily := func() {
		if samples == 0 {
			t.Errorf("metrics family %s has no samples", family)
		}
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if kind, rest, ok := strings.Cut(line, " "); ok && kind == "#" {
			headers = append(headers, line)
			f := strings.Fields(rest)
			switch {
			case len(f) >= 2 && f[0] == "HELP":
				closeFamily()
				help, family, samples = f[1], "", -1
			case len(f) == 3 && f[0] == "TYPE" && f[1] == help && family == "":
				family, typ, samples = f[1], f[2], 0
			default:
				t.Errorf("metrics line %d: %q is not a HELP or the TYPE after it", i+1, line)
			}
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		suffix, inFamily := strings.CutPrefix(name, family)
		switch typ {
		case "histogram":
			inFamily = inFamily && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
		case "summary":
			inFamily = inFamily && (suffix == "_sum" || suffix == "_count")
		default:
			inFamily = inFamily && suffix == ""
		}
		if family == "" || !inFamily {
			t.Errorf("metrics line %d: sample %q is outside its family (open: %q %s)", i+1, line, family, typ)
			continue
		}
		samples++
	}
	closeFamily()
	if got := strings.Join(headers, "\n") + "\n"; got != string(want) {
		t.Errorf("metrics HELP/TYPE lines differ from testdata/metrics_families.txt; got:\n%s", got)
	}
}

// TestCacheEviction verifies the cache honors its capacity, evicts the
// least recently used finished entry, never a pending one, and drops
// old-generation entries once, at the first lookup of a newer one.
func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	finish := func(e *entry, body string) {
		e.body = []byte(body)
		close(e.ready)
	}
	k1 := cacheKey{"a", "", 1}
	e1, lead := c.lookup(k1)
	if !lead {
		t.Fatal("first lookup not leader")
	}
	finish(e1, "one")
	if e, lead := c.lookup(k1); lead || string(e.body) != "one" {
		t.Fatal("second lookup recomputed")
	}

	// A newer generation evicts the old entry on insert.
	e2, _ := c.lookup(cacheKey{"a", "", 2})
	finish(e2, "two")
	if _, lead := c.lookup(k1); !lead {
		t.Error("old-generation entry survived a newer insert")
	}
	if c.len() > 2 {
		t.Errorf("cache over capacity: %d", c.len())
	}

	// Errors are removed, so the next lookup leads again.
	k3 := cacheKey{"b", "", 2}
	e3, _ := c.lookup(k3)
	c.fail(e3, fmt.Errorf("boom"))
	if _, lead := c.lookup(k3); !lead {
		t.Error("failed entry stayed cached")
	}

	// A key hit between inserts survives max one-off inserts at
	// capacity: recency, not insertion order, picks the victim.
	c = newResultCache(4)
	warm := cacheKey{"warm", "", 1}
	e, _ := c.lookup(warm)
	finish(e, "warm")
	for i := 0; i < 4; i++ {
		if _, lead := c.lookup(warm); lead {
			t.Fatalf("warm key evicted after %d one-off inserts", i)
		}
		e, _ := c.lookup(cacheKey{"movement", strconv.Itoa(i), 1})
		finish(e, "once")
	}
	if _, lead := c.lookup(warm); lead {
		t.Error("warm key evicted by one-off inserts")
	}
	if c.len() > 4 {
		t.Errorf("cache over capacity: %d", c.len())
	}

	// A pending entry is never evicted, however old: its leader and
	// waiters still hold it.
	c = newResultCache(2)
	pending, _ := c.lookup(cacheKey{"pending", "", 1})
	for i := 0; i < 4; i++ {
		e, _ := c.lookup(cacheKey{"movement", strconv.Itoa(i), 1})
		finish(e, "once")
	}
	if e, lead := c.lookup(cacheKey{"pending", "", 1}); lead || e != pending {
		t.Error("pending entry evicted")
	}

	// Older generations go at the first lookup of a newer one, all at
	// once, before capacity asks for room.
	c = newResultCache(8)
	for i := 0; i < 3; i++ {
		e, _ := c.lookup(cacheKey{"a", strconv.Itoa(i), 1})
		finish(e, "old")
	}
	c.lookup(cacheKey{"a", "0", 2})
	if n := c.len(); n != 1 {
		t.Errorf("after the first generation-2 lookup %d entries remain, want 1", n)
	}
}

// TestSweepsEndpointContent exercises /api/v1/sweeps on a study with a
// dropped collection day: swept days carry per-day config tallies and
// nothing a run observed while collecting them, the dropped day appears
// interleaved in day order as missing, and the body and ETag are the same
// whether the server collected the study, loaded its store file or loaded
// its journal.
func TestSweepsEndpointContent(t *testing.T) {
	dropped := simtime.Date(2022, 3, 3)
	opts := core.Options{
		World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep:  7,
		CollectMX:  true,
		StudyStart: simtime.Date(2022, 2, 17),
		StudyEnd:   simtime.Date(2022, 3, 17),
		DropSweeps: []simtime.Day{dropped},
	}
	journal := filepath.Join(t.TempDir(), "sweeps.wrjl")
	collecting := opts
	collecting.CheckpointPath = journal
	st, err := core.New(collecting)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if _, err := st.Store.WriteTo(&saved); err != nil {
		t.Fatal(err)
	}
	fromStore, err := core.LoadStore(opts, &saved)
	if err != nil {
		t.Fatal(err)
	}
	fromJournal, err := core.LoadCheckpoint(opts, journal)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newStudyServer(t, st, Options{})
	resp, body := get(t, ts.URL+"/api/v1/sweeps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	for name, loaded := range map[string]*core.Study{"LoadStore": fromStore, "LoadCheckpoint": fromJournal} {
		_, lts := newStudyServer(t, loaded, Options{})
		lresp, lbody := get(t, lts.URL+"/api/v1/sweeps")
		if !bytes.Equal(lbody, body) || lresp.Header.Get("ETag") != resp.Header.Get("ETag") {
			t.Errorf("%s server: /api/v1/sweeps %s %.200s, collected server %s %.200s",
				name, lresp.Header.Get("ETag"), lbody, resp.Header.Get("ETag"), body)
		}
	}

	var doc struct {
		Sweeps      int              `json:"sweeps"`
		MissingDays int              `json:"missing_days"`
		Days        []map[string]any `json:"days"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("unmarshal: %v\nbody: %s", err, body)
	}
	if doc.MissingDays != 1 {
		t.Errorf("missing_days = %d, want 1", doc.MissingDays)
	}
	if doc.Sweeps != len(st.Sweeps) {
		t.Errorf("sweeps = %d, want %d", doc.Sweeps, len(st.Sweeps))
	}
	if len(doc.Days) != doc.Sweeps+doc.MissingDays {
		t.Fatalf("%d day rows, want %d", len(doc.Days), doc.Sweeps+doc.MissingDays)
	}
	record := map[string]bool{"day": true, "missing": true, "domains": true, "failed": true, "nxdomain": true, "unreachable": true}
	prev := ""
	sawMissing := false
	for _, row := range doc.Days {
		for k := range row {
			if !record[k] {
				t.Errorf("day %v carries %q, which is not part of the sweep record", row["day"], k)
			}
		}
		day, _ := row["day"].(string)
		if day <= prev {
			t.Errorf("day rows out of order: %s after %s", day, prev)
		}
		prev = day
		domains, _ := row["domains"].(float64)
		if row["missing"] == true {
			sawMissing = true
			if day != dropped.String() {
				t.Errorf("unexpected missing day %s", day)
			}
			if domains != 0 {
				t.Errorf("missing day carries measurements: %v", row)
			}
			continue
		}
		if domains == 0 {
			t.Errorf("swept day %s reports zero domains", day)
		}
	}
	if !sawMissing {
		t.Error("dropped day never surfaced as missing")
	}
}

// len returns the number of live entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// computationCount returns the number of engine computations run so far
// (the coalescing tests' ground truth).
func (m *metrics) computationCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computations
}
