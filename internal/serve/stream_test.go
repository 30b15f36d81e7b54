package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http/httptest"

	"whereru/internal/core"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// followOpts is a short study window straddling the dense cutoff, so the
// dense-window figures (4/5) gain points during the followed tail.
func followOpts() core.Options {
	return core.Options{
		World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep:  7,
		CollectMX:  true,
		StudyStart: simtime.Date(2021, 12, 1),
		StudyEnd:   simtime.Date(2022, 3, 1),
	}
}

// collectJournal collects the study opts describe and returns its journal
// replay and path (the segment source for the follow tests).
func collectJournal(t *testing.T, opts core.Options) (*store.JournalReplay, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full.wrjl")
	opts.CheckpointPath = path
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Sweeps) < 4 {
		t.Fatalf("need at least 4 journal segments, have %d", len(replay.Sweeps))
	}
	return replay, path
}

// startFollowed writes the first k segments of replay into a fresh
// journal, loads a study+engine for opts from it, and starts a followed server
// tailing that journal. It returns the server, its base URL, and the
// still-open journal for the test to append the remaining segments to.
// grow, when set, gets the journal between the load and the prime: the
// collector does not stop appending while a server starts.
func startFollowed(t *testing.T, studyOpts core.Options, replay *store.JournalReplay, k int, opts Options, grow func(*store.Journal)) (*Server, string, *store.Journal) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "follow.wrjl")
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	for _, rec := range replay.Sweeps[:k] {
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	study, prefix, err := core.LoadCheckpointReplay(studyOpts, path)
	if err != nil {
		t.Fatal(err)
	}
	if grow != nil {
		grow(j)
	}
	eng := study.NewStreamEngine()
	if err := core.FoldReplay(eng, prefix); err != nil {
		t.Fatal(err)
	}
	if last, _ := eng.LastDay(); eng.Folds() != uint64(k) || last != replay.Sweeps[k-1].Day {
		t.Fatalf("primed %d segments up to %s, want the %d loaded up to %s", eng.Folds(), last, k, replay.Sweeps[k-1].Day)
	}
	srv := New(study, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() {
		done <- srv.Follow(ctx, FollowOptions{
			Engine:      eng,
			JournalPath: path,
			StartOffset: prefix.GoodBytes,
			Poll:        2 * time.Millisecond,
		})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Follow returned %v", err)
		}
	})
	waitFor(t, "follow active", func() bool { return srv.follow.active.Load() })
	return srv, ts.URL, j
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sseReader connects to an SSE endpoint and delivers decoded "data:"
// payloads over a channel.
func sseReader(t *testing.T, url string) (<-chan streamEvent, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("SSE connect: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	events := make(chan streamEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev streamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return
			}
			events <- ev
		}
	}()
	return events, func() { resp.Body.Close() }
}

func nextEvent(t *testing.T, events <-chan streamEvent) streamEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("SSE stream closed early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for SSE event")
	}
	panic("unreachable")
}

// patchedEndpoints are the paths follow mode patches into the cache —
// the byte-compare set against a cold restart.
var patchedEndpoints = []string{
	"/api/v1/figures/1",
	"/api/v1/figures/2",
	"/api/v1/figures/3",
	"/api/v1/figures/4",
	"/api/v1/figures/5",
	"/api/v1/figures/reachability",
	"/api/v1/figures/latency",
	"/api/v1/hosting",
	"/api/v1/sweeps",
}

// assertMatchesColdRestart byte-compares every patched endpoint of the
// followed server against a cold restart over journal — same bodies, same
// ETags, same store generation.
func assertMatchesColdRestart(t *testing.T, srv *Server, base, journal string) {
	t.Helper()
	coldStudy, err := core.LoadCheckpoint(followOpts(), journal)
	if err != nil {
		t.Fatal(err)
	}
	coldSrv := httptest.NewServer(New(coldStudy, Options{}))
	defer coldSrv.Close()
	if lg, cg := srv.study.Store.Generation(), coldStudy.Store.Generation(); lg != cg {
		t.Fatalf("followed generation %d != cold generation %d", lg, cg)
	}
	for _, p := range patchedEndpoints {
		lresp, lbody := get(t, base+p)
		cresp, cbody := get(t, coldSrv.URL+p)
		if lresp.StatusCode != http.StatusOK || cresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status live=%d cold=%d", p, lresp.StatusCode, cresp.StatusCode)
		}
		if string(lbody) != string(cbody) {
			t.Errorf("%s: patched body diverged from cold restart\n live: %.200s\n cold: %.200s", p, lbody, cbody)
		}
		if le, ce := lresp.Header.Get("ETag"), cresp.Header.Get("ETag"); le != ce {
			t.Errorf("%s: patched ETag %s != cold ETag %s", p, le, ce)
		}
	}
}

// TestFollowLiveUpdates is the end-to-end follow-mode test: segments
// appended to the journal must each produce one SSE event, patch the
// response cache at the new generation, and leave every patched endpoint
// byte-identical (body and ETag) to a cold server restarted over the
// same journal.
func TestFollowLiveUpdates(t *testing.T) {
	replay, fullPath := collectJournal(t, followOpts())
	n := len(replay.Sweeps)
	k := n / 2
	srv, base, j := startFollowed(t, followOpts(), replay, k, Options{}, nil)

	events, closeSSE := sseReader(t, base+"/api/v1/stream/sweeps")
	defer closeSSE()
	figEvents, closeFig := sseReader(t, base+"/api/v1/stream/figures/3")
	defer closeFig()

	// Concurrent readers keep hammering the API during folds; under
	// -race this doubles as an interleaving test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/api/v1/figures/1", "/api/v1/sweeps", "/metrics", "/healthz"} {
					resp, _ := get(t, base+p)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s during folds: status %d", p, resp.StatusCode)
						return
					}
				}
			}
		}()
	}

	var lastGen uint64
	for _, rec := range replay.Sweeps[k:] {
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
		ev := nextEvent(t, events)
		if ev.Day != rec.Day {
			t.Fatalf("event day = %s, appended %s", ev.Day, rec.Day)
		}
		if ev.Generation <= lastGen {
			t.Fatalf("event generation %d did not advance past %d", ev.Generation, lastGen)
		}
		if !rec.Missing && len(ev.ETags) == 0 {
			t.Fatalf("swept-day event carries no etags: %+v", ev)
		}
		lastGen = ev.Generation

		fev := nextEvent(t, figEvents)
		if fev.Day != rec.Day || fev.Generation != ev.Generation {
			t.Fatalf("figure event %+v does not match sweep event %+v", fev, ev)
		}
	}
	close(stop)
	wg.Wait()

	srv.follow.mu.Lock()
	folds, patched := srv.follow.folds, srv.follow.patched
	srv.follow.mu.Unlock()
	if folds != uint64(n-k) {
		t.Fatalf("folds = %d, want %d", folds, n-k)
	}
	if patched == 0 {
		t.Fatal("no cache entries were patched")
	}

	// A conditional GET with the patched ETag must round-trip to 304.
	resp, _ := get(t, base+"/api/v1/figures/3")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on patched figure")
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/figures/3", nil)
	req.Header.Set("If-None-Match", etag)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET after patch: status %d, want 304", cresp.StatusCode)
	}

	// healthz and metrics report the follow state.
	_, hbody := get(t, base+"/healthz")
	if !strings.HasPrefix(string(hbody), "ok ") || !strings.Contains(string(hbody), "follow=1") {
		t.Fatalf("healthz = %q", hbody)
	}
	_, mbody := get(t, base+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("whereru_stream_folds_total %d", n-k),
		"whereru_stream_following 1",
		"whereru_stream_cache_patched_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	assertMatchesColdRestart(t, srv, base, fullPath)
}

// TestPrimeWhileJournalGrows: a server starts on a journal its collector
// is still writing. One segment lands between the load and the prime, the
// rest while the prime runs and after it. The prime folds exactly what the
// store loaded (startFollowed checks), Follow delivers each later segment
// once, and the server ends where a cold restart over the finished journal
// does.
func TestPrimeWhileJournalGrows(t *testing.T) {
	replay, fullPath := collectJournal(t, followOpts())
	n := len(replay.Sweeps)
	k := n / 2
	appended := make(chan error, 1)
	srv, base, _ := startFollowed(t, followOpts(), replay, k, Options{}, func(j *store.Journal) {
		if err := j.AppendSweep(replay.Sweeps[k]); err != nil {
			t.Fatal(err)
		}
		go func() {
			for _, rec := range replay.Sweeps[k+1:] {
				if err := j.AppendSweep(rec); err != nil {
					appended <- err
					return
				}
			}
			appended <- nil
		}()
	})
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	liveFolds := func() uint64 {
		srv.follow.mu.Lock()
		defer srv.follow.mu.Unlock()
		return srv.follow.folds
	}
	waitFor(t, "the segments appended after the load", func() bool { return liveFolds() >= uint64(n-k) })
	if got := srv.follow.engine.Folds(); got != uint64(n) || liveFolds() != uint64(n-k) {
		t.Fatalf("engine folded %d segments, %d of them live; want %d and %d", got, liveFolds(), n, n-k)
	}
	assertMatchesColdRestart(t, srv, base, fullPath)
}

// TestIdleFollowedServerReportsPrimedState: between priming and the first
// live segment a followed server has folded the whole prefix and says so —
// the last primed day, and as lag whatever sits past its offset (here the
// first ten bytes of a 264-byte append still under way) — not day 0 and no lag.
func TestIdleFollowedServerReportsPrimedState(t *testing.T) {
	replay, _ := collectJournal(t, followOpts())
	k := len(replay.Sweeps) / 2
	_, base, _ := startFollowed(t, followOpts(), replay, k, Options{}, func(j *store.Journal) {
		f, err := os.OpenFile(j.Path(), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte{0, 0, 1, 0, 1, 2, 3, 4, 5, 6}); err != nil {
			t.Fatal(err)
		}
	})
	primed := replay.Sweeps[k-1].Day
	_, health := get(t, base+"/healthz")
	if want := fmt.Sprintf(" follow=1 folds=0 last_folded=%s lag_bytes=10\n", primed); !strings.HasSuffix(string(health), want) {
		t.Errorf("healthz of a primed, idle server = %q, want it to end %q", health, want)
	}
	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("\nwhereru_stream_last_folded_day %d\n", int64(primed)),
		"\nwhereru_stream_watcher_lag_bytes 10\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics of a primed, idle server lack %q", want)
		}
	}
}

// TestFollowMovementMatchesColdRestart covers the one request class that
// computes on every call. Movement requests for ever-new keys run against
// the followed server while ApplySweep grows the store and its intern
// table under them — the config-ID memo extends, the per-generation
// snapshot turns over — and after each fold the live server's movement
// and timeline responses must be byte-identical, ETag included, to a cold
// restart over the same journal prefix. The window runs to the study's
// last day, so the final folds are the ones that reach the movement's To.
func TestFollowMovementMatchesColdRestart(t *testing.T) {
	opts := followOpts()
	opts.StudyStart, opts.StudyEnd, opts.DenseStep = simtime.Date(2022, 1, 1), 0, 14
	replay, _ := collectJournal(t, opts)
	const k = 3
	// Room for the readers below and the checks beside them: a 503 would
	// only say the test saturated the server.
	srv, base, j := startFollowed(t, opts, replay, k, Options{MaxConcurrent: 8}, nil)

	coldPath := filepath.Join(t.TempDir(), "prefix.wrjl")
	coldJ, err := store.CreateJournal(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	defer coldJ.Close()
	for _, rec := range replay.Sweeps[:k] {
		if err := coldJ.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			asns := []int{197695, 13335, 16509, 47846}
			for i := w; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				from := simtime.Date(2022, 1, 1).Add(i % 145)
				p := fmt.Sprintf("/api/v1/movement?asn=%d&from=%s", asns[i%len(asns)], from)
				if resp, _ := get(t, base+p); resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s during folds: status %d", p, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	checked := []string{
		fmt.Sprintf("/api/v1/movement?asn=16509&from=%s", world.AmazonStmtDay),
		fmt.Sprintf("/api/v1/movement?asn=47846&from=%s", world.SedoStmtDay.Add(-1)),
		fmt.Sprintf("/api/v1/movement?asn=13335&from=%s", world.CloudflareStmtDay),
		fmt.Sprintf("/api/v1/movement?asn=15169&from=%s", world.GoogleStmtDay),
		"/api/v1/movement?asn=197695&from=2021-12-25", // before the first sweep
		"/api/v1/movement?asn=197695&from=2022-02-24",
		"/api/v1/domains/" + srv.study.Store.Domains()[0] + "/timeline",
	}
	for _, rec := range replay.Sweeps[k:] {
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
		if err := coldJ.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "fold of "+rec.Day.String(), func() bool {
			ev, _, _ := srv.follow.hub.latest()
			return ev != nil && ev.Day == rec.Day
		})
		coldStudy, err := core.LoadCheckpoint(opts, coldPath)
		if err != nil {
			t.Fatal(err)
		}
		cold := httptest.NewServer(New(coldStudy, Options{}))
		for _, p := range checked {
			lresp, lbody := get(t, base+p)
			cresp, cbody := get(t, cold.URL+p)
			if lresp.StatusCode != http.StatusOK || cresp.StatusCode != http.StatusOK {
				t.Fatalf("%s after %s: status live=%d cold=%d", p, rec.Day, lresp.StatusCode, cresp.StatusCode)
			}
			if string(lbody) != string(cbody) {
				t.Errorf("%s after %s: live body diverged from a cold restart\n live: %.300s\n cold: %.300s", p, rec.Day, lbody, cbody)
			}
			if le, ce := lresp.Header.Get("ETag"), cresp.Header.Get("ETag"); le != ce {
				t.Errorf("%s after %s: live ETag %s != cold ETag %s", p, rec.Day, le, ce)
			}
		}
		cold.Close()
	}
	// The last fold reached To: the bodies compared were not all "Gone".
	var doc struct{ Original, Gone int }
	_, body := get(t, base+checked[0])
	if err := json.Unmarshal(body, &doc); err != nil || doc.Original == 0 || doc.Gone == doc.Original {
		t.Errorf("final Amazon movement places nobody on To (err %v): %.300s", err, body)
	}
}

// TestLongPollStream covers the non-SSE side: ?since= returns the latest
// event immediately once the generation has advanced past it, and 204
// when nothing arrives before the deadline.
func TestLongPollStream(t *testing.T) {
	replay, _ := collectJournal(t, followOpts())
	n := len(replay.Sweeps)
	srv, base, j := startFollowed(t, followOpts(), replay, n-1, Options{RequestTimeout: 500 * time.Millisecond}, nil)

	if err := j.AppendSweep(replay.Sweeps[n-1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "final fold", func() bool { return srv.follow.engine.Folds() == uint64(n) })

	resp, body := get(t, base+"/api/v1/stream/sweeps?since=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll since=0: status %d", resp.StatusCode)
	}
	var ev streamEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatalf("long-poll body %q: %v", body, err)
	}
	if ev.Day != replay.Sweeps[n-1].Day {
		t.Fatalf("long-poll day = %s, want %s", ev.Day, replay.Sweeps[n-1].Day)
	}

	// Figure-scoped long-poll carries the figure's patched ETag.
	fresp, fbody := get(t, base+"/api/v1/stream/figures/1?since=0")
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("figure long-poll: status %d", fresp.StatusCode)
	}
	var fev figureEvent
	if err := json.Unmarshal(fbody, &fev); err != nil {
		t.Fatal(err)
	}
	if fev.Figure != "1" || fev.Generation != ev.Generation {
		t.Fatalf("figure long-poll event = %+v", fev)
	}
	if fev.ETag != "" {
		gresp, _ := get(t, base+"/api/v1/figures/1")
		if got := gresp.Header.Get("ETag"); got != fev.ETag {
			t.Fatalf("figure etag %s != event etag %s", got, fev.ETag)
		}
	}

	// Caught up: nothing new before the deadline → 204.
	nresp, _ := get(t, fmt.Sprintf("%s/api/v1/stream/sweeps?since=%d", base, ev.Generation))
	if nresp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up long-poll: status %d, want 204", nresp.StatusCode)
	}

	// Malformed since is a client error.
	bresp, _ := get(t, base+"/api/v1/stream/sweeps?since=banana")
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", bresp.StatusCode)
	}
}

// TestStreamRequiresFollow pins the non-following behavior: stream
// endpoints 404 and unknown stream figures 404 regardless.
func TestStreamRequiresFollow(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := get(t, ts.URL+"/api/v1/stream/sweeps")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream without follow: status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/api/v1/stream/figures/8")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("figure 8 stream: status %d, want 404", resp.StatusCode)
	}
}
