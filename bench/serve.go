package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"whereru/internal/core"
	"whereru/internal/serve"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// warmPaths are the endpoints a dashboard polls: all cacheable, all
// patched by follow mode (whereru-loadgen's warm class).
var warmPaths = []string{
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

// coldASNs rotate through the movement endpoint (whereru-loadgen's cold
// class).
var coldASNs = []uint32{197695, 13335, 24940, 16509, 20764, 8075, 15169, 12389}

// coldDays is how many `from` dates the cold keys rotate over: the 2022
// window the movement analysis is asked about.
const coldDays = 145

// followPoll is the served journal's polling interval.
const followPoll = 10 * time.Millisecond

const (
	classWarm = iota
	classCold
)

// request is one timed client request.
type request struct {
	class  int
	start  time.Time
	dur    time.Duration
	status int
}

// coldPath returns worker w's i-th cold request: a (asn, from) pair no
// other request in the same generation window repeats, so every cold
// request computes.
func coldPath(worker, workers, i int) string {
	asn := coldASNs[i%len(coldASNs)]
	day := simtime.Date(2022, 1, 1).Add(((i/len(coldASNs))*workers + worker) % coldDays)
	return fmt.Sprintf("/api/v1/movement?asn=%d&from=%s", asn, day)
}

// runOpenLoop fires n events on a fixed schedule — event i is due at
// start+i*interval — regardless of how long earlier ones took: a slow
// fire delays its successors but never moves their due times, and how
// late each one started is returned. now and sleep are the clock (the
// test substitutes a fake one).
func runOpenLoop(n int, interval time.Duration, now func() time.Time, sleep func(time.Duration), fire func(i int)) []time.Duration {
	late := make([]time.Duration, 0, n)
	start := now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		late = append(late, now().Sub(due))
		fire(i)
	}
	return late
}

// liveServer is a followed whereru-serve assembled in-process the way
// cmd/whereru-serve assembles it.
type liveServer struct {
	base   string
	http   *http.Server
	cancel context.CancelFunc
	done   chan error
	prime  time.Duration
}

// startLiveServer loads and primes a study from journal and serves it on
// a loopback port, following the journal.
func startLiveServer(opts core.Options, journal string) (*liveServer, error) {
	study, replay, err := core.LoadCheckpointReplay(opts, journal)
	if err != nil {
		return nil, err
	}
	eng := study.NewStreamEngine()
	t0 := time.Now()
	if err := core.FoldReplay(eng, replay); err != nil {
		return nil, err
	}
	prime := time.Since(t0)
	srv := serve.New(study, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{
		base:   "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		cancel: cancel,
		done:   make(chan error, 2),
		prime:  prime,
	}
	go func() { ls.done <- ls.http.Serve(ln) }()
	go func() {
		ls.done <- srv.Follow(ctx, serve.FollowOptions{
			Engine: eng, JournalPath: journal, StartOffset: replay.GoodBytes, Poll: followPoll,
		})
	}()
	return ls, nil
}

// stop shuts the listener and the follower down and waits for both.
func (ls *liveServer) stop() error {
	ls.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	for i := 0; i < 2; i++ {
		if e := <-ls.done; e != nil && e != http.ErrServerClosed && err == nil {
			err = e
		}
	}
	return err
}

// serveOutcome is what one live window measured.
type serveOutcome struct {
	window, cpu time.Duration
	requests    []request
	// Per appended segment: how late the append started, when it was
	// durable, when the watcher saw its generation.
	late    []time.Duration
	durable []time.Time
	seen    []time.Time
	metrics map[string]float64
	startup time.Duration
	prime   time.Duration
	// bodies holds each warm endpoint's body and ETag after the last fold.
	bodies map[string][2]string
}

// runServeLive is the followed server under a mixed client load while
// the journal grows.
func runServeLive(cfg config) (*workloadResult, error) {
	r := newRunner(wlServeLive, cfg)
	dir, err := cfg.workDir(wlServeLive)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	fx, err := collectFixture(cfg, dir)
	if err != nil {
		return nil, err
	}
	fixtureS := time.Since(t0).Seconds()
	r.res.Digests = fx.Digests
	live := cfg.AppendSegments
	primed := len(fx.Offsets) - 1 - live
	if primed < 1 {
		return nil, fmt.Errorf("fixture has %d segments, cannot append %d", len(fx.Offsets)-1, live)
	}

	out, err := r.serveOnce(dir, fx, primed, nil)
	if err != nil {
		return nil, err
	}
	r.peakRSS = peakRSSMB()
	r.setups = append(r.setups, fixtureS+out.startup.Seconds())
	r.serveMetrics(out)
	if err := r.serveChecks(fx, out, live); err != nil {
		return nil, err
	}

	if cfg.Trace {
		tr := newTracer()
		traced, err := r.serveOnce(dir, fx, primed, tr)
		if err != nil {
			return nil, err
		}
		r.traceOverhead(micros(traced.cpu) / float64(len(traced.requests)))
		if err := r.streamLayerProbes(fx, primed); err != nil {
			return nil, err
		}
		if err := r.flushTrace(tr); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// serveOnce primes a server from the first `primed` segments, then
// appends the rest open-loop over cfg.Seconds while the clients and the
// watcher run.
func (r *runner) serveOnce(dir string, fx *fixture, primed int, tr *tracer) (*serveOutcome, error) {
	out := &serveOutcome{}
	journal := filepath.Join(dir, "live.wrjl")
	if err := journalPrefix(fx, primed, journal); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ls, err := startLiveServer(r.cfg.faultyOptions(), journal)
	if err != nil {
		return nil, err
	}
	out.startup, out.prime = time.Since(t0), ls.prime
	stopped := false
	defer func() {
		if !stopped {
			ls.stop()
		}
	}()
	appender, _, err := store.OpenJournal(journal)
	if err != nil {
		return nil, err
	}
	defer appender.Close()

	// The appended segments' days are the schedule's: the fixture skips
	// none.
	days := schedule()[primed:]
	n := len(days)
	out.durable = make([]time.Time, n)
	out.seen = make([]time.Time, n)
	dayIndex := make(map[string]int, n)
	for i, day := range days {
		dayIndex[day.String()] = i
	}
	// Let the cache fill before anything is timed: the first request to
	// each warm endpoint of a freshly primed server computes.
	for _, p := range warmPaths {
		resp, err := http.Get(ls.base + p)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	since, err := healthzGeneration(ls.base)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// The watcher: one idle long-poll, timestamping each generation.
	var seenMu sync.Mutex
	allSeen := make(chan struct{})
	watchErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for ctx.Err() == nil {
			ev, err := longPoll(ctx, client, ls.base, since)
			if err != nil {
				if ctx.Err() == nil {
					watchErr <- err
				}
				return
			}
			if ev == nil {
				continue // 204: the poll timed out with nothing new
			}
			now := time.Now()
			since = ev.Generation
			k, ok := dayIndex[ev.Day]
			if !ok {
				watchErr <- fmt.Errorf("watcher saw day %s, which was never appended", ev.Day)
				return
			}
			seenMu.Lock()
			// A poll answered after two folds carries only the later one:
			// the earlier became visible no later than now.
			for j := k; j >= 0 && out.seen[j].IsZero(); j-- {
				out.seen[j] = now
			}
			seenMu.Unlock()
			if k == n-1 {
				close(allSeen)
				return
			}
		}
	}()

	// The clients: closed loop, one connection each, one per CPU.
	workers := runtime.NumCPU()
	perWorker := make([][]request, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w)))
			cold := 0
			for i := 0; ctx.Err() == nil; i++ {
				req := request{class: classWarm}
				path := warmPaths[rng.Intn(len(warmPaths))]
				if rng.Intn(5) == 0 {
					req.class = classCold
					path = coldPath(w, workers, cold)
					cold++
				}
				name := "serve.warm"
				if req.class == classCold {
					name = "serve.cold"
				}
				sp := tr.begin(name, -1, int64(w)<<32|int64(i))
				req.start = time.Now()
				resp, err := client.Get(ls.base + path)
				if err != nil {
					tr.end(sp)
					if ctx.Err() != nil {
						return
					}
					req.status = -1
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					req.status = resp.StatusCode
				}
				req.dur = time.Since(req.start)
				tr.end(sp)
				perWorker[w] = append(perWorker[w], req)
			}
		}(w)
	}

	// The appender: open loop, one durable segment per interval. Each
	// segment is decoded from the fixture while waiting for its slot, so
	// the process never holds more than one.
	interval := time.Duration(r.cfg.Seconds / float64(n) * float64(time.Second))
	next, appendErr := journalSegment(fx, primed)
	c0, w0 := cpuTime(), time.Now()
	out.late = runOpenLoop(n, interval, time.Now, time.Sleep, func(i int) {
		if appendErr != nil {
			return
		}
		sp := tr.begin("store.journal_append", -1, int64(days[i]))
		appendErr = appender.AppendSweep(next)
		tr.end(sp)
		seenMu.Lock()
		out.durable[i] = time.Now()
		seenMu.Unlock()
		if appendErr == nil && i+1 < n {
			next, appendErr = journalSegment(fx, primed+i+1)
		}
	})
	if appendErr != nil {
		return nil, appendErr
	}
	select {
	case <-allSeen:
	case err := <-watchErr:
		return nil, fmt.Errorf("watcher: %w", err)
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("the last appended generation did not become visible within 30s")
	}
	out.window, out.cpu = time.Since(w0), cpuTime()-c0
	cancel()
	wg.Wait()
	for _, reqs := range perWorker {
		out.requests = append(out.requests, reqs...)
	}
	for i, day := range days {
		tr.record("serve.freshness", int64(day), out.durable[i], out.seen[i])
	}

	// After the last fold: what the server says about itself, and what it
	// serves.
	if out.metrics, err = scrapeMetrics(ls.base); err != nil {
		return nil, err
	}
	out.bodies = make(map[string][2]string, len(warmPaths))
	for _, p := range warmPaths {
		resp, err := http.Get(ls.base + p)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s after the last fold: %s", p, resp.Status)
		}
		out.bodies[p] = [2]string{string(body), resp.Header.Get("ETag")}
	}
	stopped = true
	return out, ls.stop()
}

// streamEvent is the part of the server's long-poll document the
// watcher reads.
type streamEvent struct {
	Day        string `json:"day"`
	Generation uint64 `json:"generation"`
}

// longPoll asks for the first event after generation since; nil means
// the poll timed out empty.
func longPoll(ctx context.Context, client *http.Client, base string, since uint64) (*streamEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream/sweeps?since="+strconv.FormatUint(since, 10), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var ev streamEvent
		if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
			return nil, err
		}
		return &ev, nil
	}
	return nil, fmt.Errorf("long-poll: %s", resp.Status)
}

// healthzGeneration parses the store generation out of /healthz.
func healthzGeneration(base string) (uint64, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	for _, field := range strings.Fields(string(body)) {
		if v, ok := strings.CutPrefix(field, "generation="); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no generation in /healthz response %q", body)
}

// scrapeMetrics reads the label-free samples of /metrics by name.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// serveMetrics turns a window's raw timings into metrics.
func (r *runner) serveMetrics(out *serveOutcome) {
	var all, warm, cold, warmInFold []float64
	for _, q := range out.requests {
		us := micros(q.dur)
		all = append(all, us)
		switch q.class {
		case classWarm:
			warm = append(warm, us)
			if overlapsFold(q, out.durable, out.seen) {
				warmInFold = append(warmInFold, us)
			}
		case classCold:
			cold = append(cold, us/1e3)
		}
		if q.status != http.StatusOK && q.status != http.StatusServiceUnavailable {
			r.res.FailedOps++
		}
	}
	var fresh, late []float64
	for i := range out.durable {
		fresh = append(fresh, millis(out.seen[i].Sub(out.durable[i])))
		late = append(late, millis(out.late[i]))
	}
	for _, s := range [][]float64{all, warm, cold, warmInFold, fresh, late} {
		sort.Float64s(s)
	}
	r.res.Ops = int64(len(out.requests))
	r.res.Passes = 1
	r.res.Samples["op_wall_us_p50"] = len(all)
	r.res.Samples["warm"] = len(warm)
	r.res.Samples["cold"] = len(cold)
	r.res.Samples["warm_during_fold"] = len(warmInFold)
	r.res.Samples["freshness"] = len(fresh)
	r.res.Samples["cpu_us_per_op"] = 1

	n := float64(len(out.requests))
	r.m.set("cpu_us_per_op", micros(out.cpu)/n)
	r.m.set("op_wall_us_p50", supportedPercentile(all, 50))
	r.m.set("bench.cpu_s", out.cpu.Seconds())
	r.m.set("bench.wall_s", out.window.Seconds())
	r.m.set("warm_p50_us", supportedPercentile(warm, 50))
	r.m.set("cold_p50_ms", supportedPercentile(cold, 50))
	r.m.set("freshness_p50_ms", supportedPercentile(fresh, 50))
	r.m.set("serve.startup_s", out.startup.Seconds())
	r.m.set("stream.prime_s", out.prime.Seconds())
	r.m.set("serve.requests_per_s", n/out.window.Seconds())
	r.m.set("serve.warm_p99_us", supportedPercentile(warm, 99))
	r.m.set("serve.warm_p999_us", supportedPercentile(warm, 99.9))
	r.m.set("serve.warm_during_fold_p99_us", supportedPercentile(warmInFold, 99))
	r.m.set("serve.cold_p90_ms", supportedPercentile(cold, 90))
	r.m.set("serve.cold_p99_ms", supportedPercentile(cold, 99))
	r.m.set("serve.freshness_p80_ms", supportedPercentile(fresh, 80))
	r.m.set("serve.freshness_max_ms", maxOf(fresh))
	r.m.set("serve.appender_late_ms_p50", supportedPercentile(late, 50))

	sm := out.metrics
	if lookups := sm["whereru_cache_hits_total"] + sm["whereru_cache_misses_total"] + sm["whereru_cache_coalesced_total"]; lookups > 0 {
		r.m.set("serve.cache_hit_ratio", sm["whereru_cache_hits_total"]/lookups)
	}
	r.m.set("serve.coalesced", sm["whereru_cache_coalesced_total"])
	r.m.set("serve.saturated_503", sm["whereru_saturation_rejections_total"])
	r.m.set("serve.cache_patched", sm["whereru_stream_cache_patched_total"])
	r.m.set("serve.fold_seconds_sum", sm["whereru_stream_fold_seconds_sum"])
}

// overlapsFold reports whether q ran during any append-to-visible
// window.
func overlapsFold(q request, durable, seen []time.Time) bool {
	end := q.start.Add(q.dur)
	i := sort.Search(len(seen), func(i int) bool { return !seen[i].Before(q.start) })
	return i < len(durable) && durable[i].Before(end)
}

// serveChecks verifies what was served: no unexpected statuses, every
// appended generation observed, and after the last fold every warm
// endpoint byte-identical, ETag included, to a server started cold over
// the whole journal.
func (r *runner) serveChecks(fx *fixture, out *serveOutcome, live int) error {
	var bad, saturated int
	for _, q := range out.requests {
		switch q.status {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			saturated++
		default:
			bad++
		}
	}
	r.check("only_200_or_counted_503", bad == 0 && float64(saturated) == out.metrics["whereru_saturation_rejections_total"],
		"%d requests: %d neither 200 nor 503; clients saw %d 503s, the server counted %.0f", len(out.requests), bad, saturated, out.metrics["whereru_saturation_rejections_total"])
	observed := 0
	for _, t := range out.seen {
		if !t.IsZero() {
			observed++
		}
	}
	r.check("every_generation_observed", observed == live && out.metrics["whereru_stream_folds_total"] == float64(live),
		"watcher observed %d of %d appended segments; the server folded %.0f", observed, live, out.metrics["whereru_stream_folds_total"])

	cold, err := core.LoadCheckpoint(r.cfg.faultyOptions(), fx.Journal)
	if err != nil {
		return err
	}
	ref := serve.New(cold, serve.Options{})
	differ := 0
	for _, p := range warmPaths {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		got := out.bodies[p]
		if rec.Code != http.StatusOK || rec.Body.String() != got[0] || rec.Header().Get("ETag") != got[1] {
			differ++
		}
	}
	r.check("live_equals_cold_restart", differ == 0, "%d of %d warm endpoints differ in body or ETag from a cold server over the full journal", differ, len(warmPaths))
	return nil
}

// streamLayerProbes times the follow path's pieces outside the server:
// apply and fold per live segment, reading the series back, and the
// tailer over segments that are already durable.
func (r *runner) streamLayerProbes(fx *fixture, primed int) error {
	full, err := store.VerifyJournal(fx.Journal)
	if err != nil {
		return err
	}
	study, err := core.New(r.cfg.faultyOptions())
	if err != nil {
		return err
	}
	eng := study.NewStreamEngine()
	for _, rec := range full.Sweeps[:primed] {
		study.ApplySweep(rec)
		if _, err := eng.Fold(rec); err != nil {
			return err
		}
	}
	var applyMS, foldMS []float64
	var ops float64
	for _, rec := range full.Sweeps[primed:] {
		t0 := time.Now()
		study.ApplySweep(rec)
		applyMS = append(applyMS, millis(time.Since(t0)))
		t0 = time.Now()
		st, err := eng.Fold(rec)
		if err != nil {
			return err
		}
		foldMS = append(foldMS, millis(time.Since(t0)))
		ops += float64(st.Classifications + st.PointsPatched)
	}
	r.m.set("core.apply_sweep_ms_p50", median(applyMS))
	r.m.set("stream.fold_ms_p50", median(foldMS))
	r.m.set("stream.fold_ms_max", maxOf(foldMS))
	r.m.set("stream.fold_ops_per_sweep", ops/float64(len(foldMS)))
	t0 := time.Now()
	eng.Fig1()
	eng.Fig2()
	eng.Fig3()
	eng.Fig4()
	eng.Fig5()
	eng.Hosting()
	eng.Mail()
	eng.Reachability()
	eng.RouteLatency()
	eng.SweepCounts()
	r.m.set("stream.read_ms", millis(time.Since(t0)))

	tl, err := store.OpenTail(fx.Journal, fx.Offsets[primed])
	if err != nil {
		return err
	}
	defer tl.Close()
	var nextMS []float64
	for range full.Sweeps[primed:] {
		t0 := time.Now()
		if _, err := tl.Next(context.Background()); err != nil {
			return err
		}
		nextMS = append(nextMS, millis(time.Since(t0)))
	}
	r.m.set("store.tail_next_ms_p50", median(nextMS))
	return nil
}
