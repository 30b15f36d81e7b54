// stream.go is the live side of the server: follow mode. A watcher
// goroutine tails the study's WRJL journal, and for each segment that
// lands it (1) applies the sweep to the study's store — the same
// mutation sequence a cold replay performs, so the store generation of a
// followed server always equals that of a cold restart over the same
// journal — (2) folds the segment into the incremental engine, (3)
// *patches* the response cache at the new generation, inserting
// fully-rendered bodies built from the engine's accumulators instead of
// letting the next request recompute the whole study, and (4) publishes
// an event to SSE and long-poll subscribers.
//
// Patching is sound because of two invariants enforced elsewhere: the
// engine's series are DeepEqual to the cold recompute (the
// fold-equivalence tests in internal/stream), and both paths render
// through the same doc builders (docs.go) — so a patched body is
// byte-identical, ETag included, to what a cold computation would have
// produced.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/stream"
)

// FollowOptions configures Server.Follow.
type FollowOptions struct {
	// Engine is the incremental engine, primed with exactly the journal
	// segments the study's store has already loaded.
	Engine *stream.Engine
	// JournalPath is the WRJL journal to tail.
	JournalPath string
	// StartOffset is the byte offset to tail from — the GoodBytes of the
	// replay that primed the store and engine.
	StartOffset int64
	// Poll overrides the tailer's polling interval (0 keeps the default).
	Poll time.Duration
	// Progress, when set, receives a log line per folded segment.
	Progress func(format string, args ...any)
}

// followState is the mutable follow-mode bookkeeping hanging off the
// Server; it exists even when not following (all zeros) so /metrics is
// shape-stable.
type followState struct {
	active     atomic.Bool
	engine     *stream.Engine
	hub        *streamHub
	sseClients atomic.Int64

	mu          sync.Mutex
	folds       uint64
	foldSeconds float64
	lastDay     simtime.Day
	lagBytes    int64
	patched     uint64
	skipped     uint64
	events      uint64
}

func newFollowState() *followState {
	return &followState{hub: newStreamHub()}
}

// streamEvent is the JSON document published per folded segment, both as
// an SSE "sweep" event and as the long-poll response body. ETags lets a
// dashboard re-GET exactly the endpoints that were patched, keyed by
// figure id plus "hosting" and "sweeps".
type streamEvent struct {
	Day          simtime.Day       `json:"day"`
	Missing      bool              `json:"missing,omitempty"`
	Generation   uint64            `json:"generation"`
	Sweeps       int               `json:"sweeps"`
	Measurements int               `json:"measurements"`
	FoldMS       float64           `json:"fold_ms"`
	ETags        map[string]string `json:"etags,omitempty"`
}

// figureEvent is the per-figure projection of a streamEvent served on
// /api/v1/stream/figures/{id}.
type figureEvent struct {
	Figure     string      `json:"figure"`
	Day        simtime.Day `json:"day"`
	Missing    bool        `json:"missing,omitempty"`
	Generation uint64      `json:"generation"`
	ETag       string      `json:"etag,omitempty"`
}

func eventFor(ev streamEvent, figure string) any {
	if figure == "" {
		return ev
	}
	return figureEvent{
		Figure: figure, Day: ev.Day, Missing: ev.Missing,
		Generation: ev.Generation, ETag: ev.ETags["figures/"+figure],
	}
}

// streamHub fans folded-segment events out to subscribers. SSE readers
// hold a buffered channel each; long-pollers wait on the notify channel,
// which is closed and replaced at every publish.
type streamHub struct {
	mu      sync.Mutex
	subs    map[chan streamEvent]struct{}
	last    *streamEvent
	lastGen uint64
	notify  chan struct{}
}

func newStreamHub() *streamHub {
	return &streamHub{subs: make(map[chan streamEvent]struct{}), notify: make(chan struct{})}
}

func (h *streamHub) publish(ev streamEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last = &ev
	h.lastGen = ev.Generation
	close(h.notify)
	h.notify = make(chan struct{})
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // a stalled reader drops events rather than blocking folds
		}
	}
}

// latest returns the most recent event (nil before the first fold), its
// generation, and the channel closed at the next publish.
func (h *streamHub) latest() (*streamEvent, uint64, <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, h.lastGen, h.notify
}

func (h *streamHub) subscribe() chan streamEvent {
	ch := make(chan streamEvent, 256)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *streamHub) unsubscribe(ch chan streamEvent) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// Follow tails the journal and folds each new segment into the study,
// the engine and the response cache until ctx ends. It blocks; run it in
// a goroutine alongside the HTTP listener. Returns nil on context
// cancellation, an error on journal corruption or a fold failure.
func (s *Server) Follow(ctx context.Context, fo FollowOptions) error {
	if fo.Engine == nil {
		return errors.New("serve: follow requires an engine")
	}
	tl, err := store.OpenTail(fo.JournalPath, fo.StartOffset)
	if err != nil {
		return err
	}
	defer tl.Close()
	tl.SetPoll(fo.Poll)
	f := s.follow
	f.engine = fo.Engine
	f.mu.Lock() // primed and idle is not day 0: the prefix is folded
	f.lastDay, _ = fo.Engine.LastDay()
	f.lagBytes = tl.Lag()
	f.mu.Unlock()
	f.active.Store(true)
	for {
		rec, err := tl.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		st, gen, err := s.applySegment(rec, tl.Lag())
		if err != nil {
			return err
		}
		if fo.Progress != nil {
			fo.Progress("folded %s: %d measurements, %d domains touched, generation %d",
				rec.Day, st.Measurements, st.DomainsTouched, gen)
		}
	}
}

// applySegment is one follow-mode step: store mutation, engine fold,
// cache patch, metrics, event publish — in that order, so every artifact
// a subscriber can observe after the event exists already.
func (s *Server) applySegment(rec store.JournalSweep, lag int64) (stream.FoldStats, uint64, error) {
	start := time.Now()
	s.liveMu.Lock()
	s.study.ApplySweep(rec)
	s.liveMu.Unlock()
	st, err := s.follow.engine.Fold(rec)
	if err != nil {
		return st, 0, fmt.Errorf("serve: folding %s: %w", rec.Day, err)
	}
	gen := s.study.Store.Generation()
	etags := s.patchCache(gen)
	elapsed := time.Since(start)

	f := s.follow
	f.mu.Lock()
	f.folds++
	f.foldSeconds += elapsed.Seconds()
	f.lastDay = rec.Day
	f.lagBytes = lag
	f.events++
	f.mu.Unlock()

	f.hub.publish(streamEvent{
		Day: rec.Day, Missing: rec.Missing, Generation: gen,
		Sweeps:       len(s.study.Store.Sweeps()),
		Measurements: st.Measurements,
		FoldMS:       float64(elapsed.Microseconds()) / 1e3,
		ETags:        etags,
	})
	return st, gen, nil
}

// patchCache renders every series endpoint from the engine and installs
// the bodies at the new generation, so the first request after a fold is
// a warm hit instead of a full recompute. Returns the ETags by event
// key. Insert-only: a concurrent request that beat us to a key keeps its
// entry (counted as skipped).
func (s *Server) patchCache(gen uint64) map[string]string {
	eng := s.follow.engine
	missing := s.study.Store.MissingSweeps()
	scenario := s.study.Opts.Scenario
	etags := make(map[string]string, len(seriesFigureIDs)+2)
	ins := func(endpoint, params, id string, doc any) {
		body, err := json.Marshal(doc)
		if err != nil {
			return
		}
		body = append(body, '\n')
		sum := sha256.Sum256(body)
		etag := `"` + hex.EncodeToString(sum[:16]) + `"`
		f := s.follow
		f.mu.Lock()
		if s.cache.insert(cacheKey{endpoint: endpoint, params: params, gen: gen}, body, etag) {
			f.patched++
		} else {
			f.skipped++
		}
		f.mu.Unlock()
		etags[id] = etag
	}
	for _, id := range seriesFigureIDs {
		doc, err := docFigure(id, gen, missing, scenario, eng)
		if err != nil {
			continue
		}
		ins("figures", "n="+id, "figures/"+id, doc)
	}
	ins("hosting", "", "hosting", docHosting(gen, missing, eng))
	ins("sweeps", "", "sweeps", docSweepsFromCounts(eng, missing, gen))
	return etags
}

// liveStats copies the study's per-sweep runtime stats under the live
// lock — follow mode appends to the slice concurrently.
func (s *Server) liveStats() []openintel.SweepStats {
	s.liveMu.RLock()
	defer s.liveMu.RUnlock()
	return append([]openintel.SweepStats(nil), s.study.Stats...)
}

// --- stream endpoints ---

// handleStream registers a streaming pattern: instrumented like handle
// but without the per-request deadline, which would sever long-lived SSE
// connections (long-poll bounds its own wait).
func (s *Server) handleStream(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.observe(endpoint, rec.code, time.Since(start))
	})
}

func (s *Server) handleStreamSweeps(w http.ResponseWriter, r *http.Request) {
	s.serveStream(w, r, "")
}

func (s *Server) handleStreamFigure(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	ok := false
	for _, id := range seriesFigureIDs {
		if id == n {
			ok = true
			break
		}
	}
	if !ok {
		http.Error(w, "unknown streaming figure (have: 1, 2, 3, 4, 5, reachability, latency)", http.StatusNotFound)
		return
	}
	s.serveStream(w, r, n)
}

// serveStream dispatches a stream request: SSE when the client accepts
// text/event-stream, one-shot long-poll otherwise.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, figure string) {
	if !s.follow.active.Load() {
		http.Error(w, "server is not following a journal (start with -follow)", http.StatusNotFound)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSSE(w, r, figure)
		return
	}
	s.serveLongPoll(w, r, figure)
}

// serveSSE streams one "sweep" event per folded segment until the client
// disconnects.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, figure string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by connection", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected generation=%d\n\n", s.study.Store.Generation())
	fl.Flush()

	ch := s.follow.hub.subscribe()
	defer s.follow.hub.unsubscribe(ch)
	s.follow.sseClients.Add(1)
	defer s.follow.sseClients.Add(-1)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			data, err := json.Marshal(eventFor(ev, figure))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: sweep\nid: %d\ndata: %s\n\n", ev.Generation, data)
			fl.Flush()
		}
	}
}

// serveLongPoll answers with the latest event once its generation
// exceeds ?since= (immediately if it already does), or 204 No Content
// when the request deadline passes first.
func (s *Server) serveLongPoll(w http.ResponseWriter, r *http.Request, figure string) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a generation number: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	for {
		ev, gen, changed := s.follow.hub.latest()
		if ev != nil && gen > since {
			body, err := json.Marshal(eventFor(*ev, figure))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			body = append(body, '\n')
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// writeStreamMetrics appends the whereru_stream_* family to /metrics.
// Always emitted (zeros when not following) so scrapers see a stable
// shape.
func (s *Server) writeStreamMetrics(w io.Writer) {
	f := s.follow
	f.mu.Lock()
	folds, secs := f.folds, f.foldSeconds
	lastDay, lag := f.lastDay, f.lagBytes
	patched, skipped, events := f.patched, f.skipped, f.events
	f.mu.Unlock()
	following := 0
	if f.active.Load() {
		following = 1
	}
	fmt.Fprintf(w, "# HELP whereru_stream_following Whether the server is tailing a journal (follow mode).\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_following gauge\n")
	fmt.Fprintf(w, "whereru_stream_following %d\n", following)
	fmt.Fprintf(w, "# HELP whereru_stream_folds_total Journal segments folded into the live engine.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_folds_total counter\n")
	fmt.Fprintf(w, "whereru_stream_folds_total %d\n", folds)
	fmt.Fprintf(w, "# HELP whereru_stream_fold_seconds Time spent applying, folding and patching per segment.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_fold_seconds summary\n")
	fmt.Fprintf(w, "whereru_stream_fold_seconds_sum %g\n", secs)
	fmt.Fprintf(w, "whereru_stream_fold_seconds_count %d\n", folds)
	fmt.Fprintf(w, "# HELP whereru_stream_last_folded_day Day number of the last folded segment.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_last_folded_day gauge\n")
	fmt.Fprintf(w, "whereru_stream_last_folded_day %d\n", int64(lastDay))
	fmt.Fprintf(w, "# HELP whereru_stream_watcher_lag_bytes Journal bytes beyond the watcher's offset at the last fold.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_watcher_lag_bytes gauge\n")
	fmt.Fprintf(w, "whereru_stream_watcher_lag_bytes %d\n", lag)
	fmt.Fprintf(w, "# HELP whereru_stream_cache_patched_total Cache entries installed by follow-mode patching.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_cache_patched_total counter\n")
	fmt.Fprintf(w, "whereru_stream_cache_patched_total %d\n", patched)
	fmt.Fprintf(w, "# HELP whereru_stream_cache_patch_skipped_total Patches skipped because the key was already cached or computing.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_cache_patch_skipped_total counter\n")
	fmt.Fprintf(w, "whereru_stream_cache_patch_skipped_total %d\n", skipped)
	fmt.Fprintf(w, "# HELP whereru_stream_events_total Events published to stream subscribers.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_events_total counter\n")
	fmt.Fprintf(w, "whereru_stream_events_total %d\n", events)
	fmt.Fprintf(w, "# HELP whereru_stream_sse_clients Currently connected SSE subscribers.\n")
	fmt.Fprintf(w, "# TYPE whereru_stream_sse_clients gauge\n")
	fmt.Fprintf(w, "whereru_stream_sse_clients %d\n", s.follow.sseClients.Load())
}
