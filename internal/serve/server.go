// Package serve is the HTTP query layer over a loaded study: a JSON API
// that exposes every DNS-derived figure and table of the paper, backed
// by the same analysis engine as the text report.
//
// The serving machinery is built for repeated, concurrent traffic over a
// store that only ever grows:
//
//   - Responses are cached fully rendered, keyed on (endpoint, params,
//     store generation). A generation bump — a new sweep appended, a
//     journal replayed — changes every key, so stale results are
//     unreachable rather than explicitly invalidated.
//   - Identical concurrent cold requests coalesce: one leader computes,
//     everyone else waits on the same entry (singleflight).
//   - A bounded semaphore caps concurrent engine computations; past the
//     bound, requests fail fast with 503 + Retry-After instead of piling
//     onto the CPUs.
//   - Every cached body carries a strong content-hash ETag; conditional
//     requests short-circuit to 304 Not Modified.
//   - Each request runs under a deadline (Options.RequestTimeout).
//
// All of it is stdlib-only: net/http for transport, encoding/json for
// rendering, and a hand-rolled Prometheus text exposition at /metrics.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// Options tunes the serving machinery. The zero value is usable: every
// field has a sensible default applied by New.
type Options struct {
	// MaxConcurrent bounds simultaneous engine computations (cache
	// misses). Default: GOMAXPROCS. Cache hits and coalesced waits are
	// not counted — only real analysis work holds a slot.
	MaxConcurrent int
	// RequestTimeout bounds one request end to end. Default: 30s.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 503 responses. Default: 1s.
	RetryAfter time.Duration
	// CacheEntries caps the result cache. Default: 512.
	CacheEntries int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	return o
}

// errSaturated marks a request rejected because every computation slot
// was busy; it maps to 503 + Retry-After and is never cached.
var errSaturated = errors.New("serve: computation capacity saturated")

// errNotFound marks a lookup miss inside a compute (unknown domain); it
// maps to 404 and is never cached.
var errNotFound = errors.New("serve: not found")

// Server serves one study over HTTP. It implements http.Handler.
type Server struct {
	study *core.Study
	opts  Options
	cache *resultCache
	sem   chan struct{}
	met   *metrics
	mux   *http.ServeMux

	// computeGate, when set, is called by computation leaders while they
	// hold a semaphore slot — the test hook behind the saturation tests.
	computeGate func(endpoint string)

	// liveMu guards the study's Sweeps/Stats slices, which the follow
	// watcher appends to while request handlers read them. (The store has
	// its own internal locking.)
	liveMu sync.RWMutex
	// follow is the follow-mode state; present (and all zeros) even when
	// not following.
	follow *followState
}

// New builds a Server over a study that has sweeps loaded or collected.
func New(study *core.Study, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		study:  study,
		opts:   opts,
		cache:  newResultCache(opts.CacheEntries),
		sem:    make(chan struct{}, opts.MaxConcurrent),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
		follow: newFollowState(),
	}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the server's counters (tests assert on them).
func (s *Server) Metrics() *metrics { return s.met }

// endpointList enumerates the API surface (reported by /api/v1/study).
func endpointList() []string {
	return []string{
		"/api/v1/figures/{1,2,3,4,5,8,reachability,latency}",
		"/api/v1/tables/{1,2}",
		"/api/v1/hosting",
		"/api/v1/outages",
		"/api/v1/movement?asn=&from=",
		"/api/v1/domains/{name}/timeline",
		"/api/v1/sweeps",
		"/api/v1/stream/sweeps",
		"/api/v1/study",
		"/healthz",
		"/metrics",
	}
}

// routes registers every endpoint. The endpoint string passed to handle
// is the metrics label: Go 1.22's ServeMux has no way to read back the
// matched pattern, so the label travels alongside the pattern.
func (s *Server) routes() {
	s.handle("GET /api/v1/figures/{n}", "figures", s.handleFigure)
	s.handle("GET /api/v1/tables/{n}", "tables", s.handleTable)
	s.handle("GET /api/v1/hosting", "hosting", s.handleHosting)
	s.handle("GET /api/v1/outages", "outages", s.handleOutages)
	s.handle("GET /api/v1/movement", "movement", s.handleMovement)
	s.handle("GET /api/v1/domains/{name}/timeline", "timeline", s.handleTimeline)
	s.handle("GET /api/v1/sweeps", "sweeps", s.handleSweeps)
	s.handle("GET /api/v1/stream/sweeps", "stream_sweeps", s.handleStreamSweeps)
	s.handle("GET /api/v1/study", "study", s.handleStudy)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// handle registers pattern with per-request instrumentation: the
// in-flight gauge, the request deadline, and the latency/status metrics
// labeled with endpoint.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r.WithContext(ctx))
		s.met.observe(endpoint, rec.code, time.Since(start))
	})
}

// serveCached is the heart of the serving machinery. compute builds the
// response document against the given store generation; serveCached
// handles coalescing, caching, ETags, saturation and timeouts around it.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, params string, compute func(gen uint64) (any, error)) {
	gen := s.study.Store.Generation()
	key := cacheKey{endpoint: endpoint, params: params, gen: gen}
	e, leader := s.cache.lookup(key)
	switch {
	case leader:
		s.met.miss()
		s.compute(key, e, compute)
	case e.done():
		s.met.hit()
	default:
		s.met.coalesce()
	}

	select {
	case <-e.ready:
	case <-r.Context().Done():
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		http.Error(w, "request timed out waiting for computation", http.StatusServiceUnavailable)
		return
	}

	switch {
	case errors.Is(e.err, errSaturated):
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		http.Error(w, e.err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(e.err, errNotFound):
		http.Error(w, e.err.Error(), http.StatusNotFound)
		return
	case e.err != nil:
		http.Error(w, e.err.Error(), http.StatusInternalServerError)
		return
	}

	h := w.Header()
	h.Set("ETag", e.etag)
	h.Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); etagMatches(match, e.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		w.Write(e.body)
	}
}

// compute runs the leader's side of a cache miss: acquire a semaphore
// slot (or fail fast as saturated), run the analysis, render the body,
// stamp the ETag, and publish by closing ready. Errors are published the
// same way but removed from the cache so the next request retries.
func (s *Server) compute(key cacheKey, e *entry, compute func(gen uint64) (any, error)) {
	fail := func(err error) {
		e.err = err
		s.cache.remove(key, e)
		close(e.ready)
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.saturated()
		fail(errSaturated)
		return
	}
	defer func() { <-s.sem }()
	s.met.computed()
	if s.computeGate != nil {
		s.computeGate(key.endpoint)
	}
	doc, err := compute(key.gen)
	if err != nil {
		fail(err)
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		fail(fmt.Errorf("serve: rendering %s: %w", key.endpoint, err))
		return
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	e.body = body
	e.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
	close(e.ready)
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// etagMatches implements the If-None-Match comparison for strong ETags
// ("*" or any listed tag).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range splitComma(header) {
		if part == etag || part == "W/"+etag {
			return true
		}
	}
	return false
}

func splitComma(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		part := trimSpace(s[:i])
		if part != "" {
			out = append(out, part)
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func trimSpace(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// --- endpoint handlers ---

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	var compute func(gen uint64) (any, error)
	switch n {
	case "1", "2", "3", "4", "5", "reachability", "latency":
		// Series figures render through the shared doc builders, the same
		// code path follow-mode patching feeds from the stream engine — so
		// a cold compute and a patched entry can only differ if the series
		// themselves diverge (which the fold-equivalence tests forbid).
		compute = func(gen uint64) (any, error) {
			return docFigure(n, gen, s.study.Store.MissingSweeps(), s.study.Opts.Scenario, s.study)
		}
	case "8":
		compute = func(gen uint64) (any, error) {
			return caTimelineDoc{
				Figure: 8, Title: "Top-10 CA issuance timelines",
				Generation: gen,
				WindowFrom: world.RussianCAStartDay, WindowTo: simtime.CTWindowEnd,
				Timelines: renderTimelines(s.study.Fig8()),
			}, nil
		}
	default:
		http.Error(w, "unknown figure (have: 1, 2, 3, 4, 5, 8, reachability, latency)", http.StatusNotFound)
		return
	}
	s.serveCached(w, r, "figures", "n="+n, compute)
}

// missingIn filters missing sweep days to those on or after from.
func missingIn(days []simtime.Day, from simtime.Day) []simtime.Day {
	var out []simtime.Day
	for _, d := range days {
		if d >= from {
			out = append(out, d)
		}
	}
	return out
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	var compute func(gen uint64) (any, error)
	switch n {
	case "1":
		compute = func(gen uint64) (any, error) {
			return table1Doc{
				Table: 1, Title: "Certificate issuance by period",
				Generation: gen, Scale: s.study.Scale(),
				Rows: renderTable1(s.study.Table1(), s.study.Scale()),
			}, nil
		}
	case "2":
		compute = func(gen uint64) (any, error) {
			return table2Doc{
				Table: 2, Title: "Revocations by top-5 revoking CAs",
				Generation: gen,
				Rows:       renderTable2(s.study.Table2()),
			}, nil
		}
	default:
		http.Error(w, "unknown table (have: 1, 2)", http.StatusNotFound)
		return
	}
	s.serveCached(w, r, "tables", "n="+n, compute)
}

func (s *Server) handleHosting(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "hosting", "", func(gen uint64) (any, error) {
		return docHosting(gen, s.study.Store.MissingSweeps(), s.study), nil
	})
}

func (s *Server) handleOutages(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "outages", "", func(gen uint64) (any, error) {
		return renderOutages(s.study.Outages.Events(), s.study.Opts.Scenario, gen), nil
	})
}

func (s *Server) handleMovement(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	asnStr, fromStr := q.Get("asn"), q.Get("from")
	if asnStr == "" || fromStr == "" {
		http.Error(w, "movement requires asn= and from= query parameters (e.g. ?asn=197695&from=2022-02-24)", http.StatusBadRequest)
		return
	}
	asn64, err := strconv.ParseUint(asnStr, 10, 32)
	if err != nil {
		http.Error(w, "asn must be a 32-bit AS number: "+err.Error(), http.StatusBadRequest)
		return
	}
	from, err := simtime.Parse(fromStr)
	if err != nil {
		http.Error(w, "from must be a YYYY-MM-DD date: "+err.Error(), http.StatusBadRequest)
		return
	}
	asn := netsim.ASN(asn64)
	// Canonical params: reprinted, not echoed, so "0197695" and "197695"
	// share a cache entry.
	params := "asn=" + strconv.FormatUint(uint64(asn), 10) + "&from=" + from.String()
	s.serveCached(w, r, "movement", params, func(gen uint64) (any, error) {
		return renderMovement(s.study.Movement(asn, from), gen), nil
	})
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	name := dns.Canonical(r.PathValue("name"))
	s.serveCached(w, r, "timeline", "name="+name, func(gen uint64) (any, error) {
		snap := s.study.Store.Snapshot()
		doms := snap.Domains()
		idx := sort.SearchStrings(doms, name)
		if idx >= len(doms) || doms[idx] != name {
			return nil, fmt.Errorf("%w: domain %q not in the measurement store", errNotFound, name)
		}
		sweeps := snap.Sweeps()
		doc := timelineDoc{Domain: name, Generation: gen}
		snap.VisitEpochs(sweeps, idx, idx+1, func(_ string, cfg store.Config, lo, hi int) {
			doc.Epochs = append(doc.Epochs, renderTimelineEpoch(cfg, sweeps[lo], sweeps[hi-1], hi-lo))
		})
		if len(doc.Epochs) == 0 {
			return nil, fmt.Errorf("%w: domain %q has no measurements on the sweep axis", errNotFound, name)
		}
		doc.FirstSeen = doc.Epochs[0].From
		doc.LastSeen = doc.Epochs[len(doc.Epochs)-1].To
		return doc, nil
	})
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "sweeps", "", func(gen uint64) (any, error) {
		return docSweepsFromCounts(s.study, s.study.Store.MissingSweeps(), gen), nil
	})
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "study", "", func(gen uint64) (any, error) {
		return renderStudy(s.study, gen), nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok generation=%d sweeps=%d domains=%d",
		s.study.Store.Generation(), len(s.study.Store.Sweeps()), s.study.Store.NumDomains())
	if s.follow.active.Load() {
		f := s.follow
		f.mu.Lock()
		folds, lastDay, lag := f.folds, f.lastDay, f.lagBytes
		f.mu.Unlock()
		fmt.Fprintf(w, " follow=1 folds=%d last_folded=%s lag_bytes=%d", folds, lastDay, lag)
	}
	fmt.Fprintln(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WriteTo(w)
	writeSweepCacheMetrics(w, s.liveStats())
	writeStoreMemMetrics(w, s.study.Store.MemStats())
	s.writeStreamMetrics(w)
}
