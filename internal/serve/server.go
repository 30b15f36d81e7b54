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
//   - A request that waits — on another request's computation, or on a
//     long-poll's next event — waits at most Options.RequestTimeout. A
//     hit waits for nothing and arms no deadline.
//
// All of it is stdlib-only: net/http for transport, encoding/json for
// rendering, and a hand-rolled Prometheus text exposition at /metrics.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"whereru/internal/core"
	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Options tunes the serving machinery. The zero value is usable: New
// applies the default.
type Options struct {
	// RequestTimeout bounds how long a request waits: on an identical
	// request's computation (then 503 + Retry-After) or, as a long-poll,
	// for the next folded sweep (then 204). Default: 30s.
	RequestTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// cacheEntries caps the result cache.
const cacheEntries = 512

// retryAfter is the Retry-After hint, in seconds, sent with every 503.
const retryAfter = "1"

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
	// sem bounds simultaneous engine computations (cache misses) to
	// GOMAXPROCS. Cache hits and coalesced waits hold no slot — only
	// real analysis work does.
	sem chan struct{}
	met *metrics
	mux *http.ServeMux

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
		cache:  newResultCache(cacheEntries),
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
		follow: newFollowState(),
	}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// served are the experiments the API serves, in list order.
var served = func() (out []*core.Experiment) {
	list := core.Experiments()
	for i := range list {
		if list[i].APITitle != "" {
			out = append(out, &list[i])
		}
	}
	return out
}()

// collections serve experiments at /api/v1/{collection}/{id}, in the
// order /api/v1/study lists them; the other served experiments are an
// endpoint each, /api/v1/{ID}, listed after them.
var collections = []string{"figures", "tables"}

// apiID is e's id in its collection: its number, or its ID without one.
func apiID(e *core.Experiment) string {
	if e.Number == 0 {
		return e.ID
	}
	return strconv.Itoa(e.Number)
}

// apiIDs lists the ids a collection serves, numbered ones first.
func apiIDs(collection string) (ids []string) {
	for _, numbered := range []bool{true, false} {
		for _, e := range served {
			if e.Collection == collection && (e.Number != 0) == numbered {
				ids = append(ids, apiID(e))
			}
		}
	}
	return ids
}

// apiAddr is where the API serves e: its path under /api/v1/, and the
// endpoint (its metrics label) and params of its cache entries.
func apiAddr(e *core.Experiment) (path, endpoint, params string) {
	if e.Collection == "" {
		return e.ID, e.ID, ""
	}
	return e.Collection + "/" + apiID(e), e.Collection, "n=" + apiID(e)
}

// endpointList enumerates the API surface (reported by /api/v1/study):
// the experiments' endpoints first.
func endpointList() []string {
	var out []string
	for _, c := range collections {
		out = append(out, "/api/v1/"+c+"/{"+strings.Join(apiIDs(c), ",")+"}")
	}
	for _, e := range served {
		if e.Collection == "" {
			out = append(out, "/api/v1/"+e.ID)
		}
	}
	return append(out,
		"/api/v1/outages",
		"/api/v1/movement?asn=&from=",
		"/api/v1/domains/{name}/timeline",
		"/api/v1/sweeps",
		"/api/v1/stream/sweeps",
		"/api/v1/study",
		"/healthz",
		"/metrics",
	)
}

// routes registers every endpoint. The endpoint string passed to handle
// is the metrics label: Go 1.22's ServeMux has no way to read back the
// matched pattern, so the label travels alongside the pattern.
func (s *Server) routes() {
	for _, e := range served {
		path, endpoint, params := apiAddr(e)
		s.handle("GET /api/v1/"+path, endpoint, func(w http.ResponseWriter, r *http.Request) {
			s.serveCached(w, r, endpoint, params, func(gen uint64) (any, error) {
				return s.renderExperiment(e, s.study, gen, s.study.Store.MissingSweeps())
			})
		})
	}
	for _, c := range collections {
		unknown := fmt.Sprintf("unknown %s (have: %s)", strings.TrimSuffix(c, "s"), strings.Join(apiIDs(c), ", "))
		s.handle("GET /api/v1/"+c+"/{n}", c, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, unknown, http.StatusNotFound)
		})
	}
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
// in-flight gauge and the latency/status metrics labeled with endpoint.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.observe(endpoint, rec.code, time.Since(start))
	})
}

// serveCached is the heart of the serving machinery. compute builds the
// response document against the given store generation; serveCached
// handles coalescing, caching, ETags, saturation and timeouts around it.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, params string, compute func(gen uint64) (any, error)) {
	// The generation is read and looked up under the live lock, which a
	// fold holds from its store update until its patches are reserved:
	// a request that sees a new generation joins the fold's entry.
	s.liveMu.RLock()
	key := cacheKey{endpoint: endpoint, params: params, gen: s.study.Store.Generation()}
	e, leader := s.cache.lookup(key)
	s.liveMu.RUnlock()
	switch {
	case leader:
		s.met.miss()
		s.compute(e, compute)
	case e.done():
		s.met.hit()
	default:
		s.met.coalesce()
		deadline := time.NewTimer(s.opts.RequestTimeout)
		defer deadline.Stop()
		select {
		case <-e.ready:
		case <-deadline.C:
			w.Header().Set("Retry-After", retryAfter)
			http.Error(w, "request timed out waiting for computation", http.StatusServiceUnavailable)
			return
		}
	}

	switch {
	case errors.Is(e.err, errSaturated):
		w.Header().Set("Retry-After", retryAfter)
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
// slot (or fail fast as saturated), run the analysis and publish the
// result. Errors are published too, but leave the cache so the next
// request retries.
func (s *Server) compute(e *entry, compute func(gen uint64) (any, error)) {
	select {
	case s.sem <- struct{}{}:
	default:
		s.met.saturated()
		s.cache.fail(e, errSaturated)
		return
	}
	defer func() { <-s.sem }()
	s.met.computed()
	if s.computeGate != nil {
		s.computeGate(e.key.endpoint)
	}
	doc, err := compute(e.key.gen)
	if err != nil {
		s.cache.fail(e, err)
		return
	}
	s.cache.publish(e, doc)
}

// etagMatches implements the If-None-Match comparison for strong ETags
// ("*" or any listed tag).
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		if part = strings.TrimSpace(part); part == etag || part == "W/"+etag {
			return true
		}
	}
	return false
}

// --- endpoint handlers ---

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
	// The store holds ACE spellings: a Unicode .рф name is its xn-- form,
	// and both spellings share one cache entry.
	name, err := idn.ToASCII(dns.Canonical(r.PathValue("name")))
	if err != nil {
		http.Error(w, "malformed domain name: "+err.Error(), http.StatusBadRequest)
		return
	}
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
	s.met.write(w)
	writeSweepCacheMetrics(w, s.liveStats())
	writeStoreMemMetrics(w, s.study.Store.MemStats())
	s.writeStreamMetrics(w)
}
