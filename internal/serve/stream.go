// stream.go is the live side of the server: follow mode. A watcher
// goroutine tails the study's WRJL journal, and for each segment that
// lands it (1) applies the sweep to the study's store — the same
// mutation sequence a cold replay performs, so the store generation of a
// followed server always equals that of a cold restart over the same
// journal — and, before any request can read the new generation,
// reserves a pending cache entry for every document the engine renders;
// (2) folds the segment into the incremental engine; (3) *patches* the
// reservations, publishing fully-rendered bodies built from the engine's
// accumulators, so each of those documents is computed once per
// generation, by the follower, and a request that arrives mid-fold
// waits for the patch instead of recomputing the whole study; and (4)
// publishes the sweep as the newest event for /api/v1/stream/sweeps
// long-polls.
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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/core"
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
	active atomic.Bool
	engine *stream.Engine
	// docs are what each fold patches.
	docs []storeDoc

	mu          sync.Mutex
	folds       uint64
	foldSeconds float64
	lastDay     simtime.Day
	lagBytes    int64
	patched     uint64
	skipped     uint64
	events      uint64
	// last is the newest published event (nil until Follow primes);
	// changed is closed at the next publish, waking every long-poll.
	last    *streamEvent
	changed chan struct{}
}

func newFollowState() *followState {
	return &followState{changed: make(chan struct{})}
}

// streamEvent is the long-poll response body: the newest folded segment,
// or before the first the primed state (no ETags: nothing was patched).
// ETags lets a dashboard re-GET exactly the endpoints that were patched,
// keyed by "figures/{id}", "hosting" and "sweeps".
type streamEvent struct {
	Day          simtime.Day       `json:"day"`
	Missing      bool              `json:"missing,omitempty"`
	Generation   uint64            `json:"generation"`
	Sweeps       int               `json:"sweeps"`
	Measurements int               `json:"measurements"`
	FoldMS       float64           `json:"fold_ms"`
	ETags        map[string]string `json:"etags,omitempty"`
}

// publish makes ev the newest event and wakes the waiting long-polls.
// The caller holds f.mu.
func (f *followState) publish(ev streamEvent) {
	f.last = &ev
	close(f.changed)
	f.changed = make(chan struct{})
}

// latest returns the newest event (nil until Follow primes) and the
// channel closed at the next publish.
func (f *followState) latest() (*streamEvent, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.changed
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
	f.docs = s.storeDocs()
	primed := streamEvent{Generation: s.study.Store.Generation(), Sweeps: len(s.study.Store.Sweeps())}
	primed.Day, _ = fo.Engine.LastDay()
	f.mu.Lock() // primed and idle is not day 0: the prefix is folded
	f.lastDay = primed.Day
	f.lagBytes = tl.Lag()
	f.publish(primed) // answers ?since= below the primed generation now
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

// applySegment is one follow-mode step: store mutation and patch
// reservation under the live lock, engine fold, patch, metrics, event
// publish — in that order, so every artifact a long-poll client can
// observe after the event exists already.
func (s *Server) applySegment(rec store.JournalSweep, lag int64) (stream.FoldStats, uint64, error) {
	start := time.Now()
	f := s.follow
	s.liveMu.Lock()
	s.study.ApplySweep(rec)
	gen := s.study.Store.Generation()
	res := make([]reservation, len(f.docs))
	for i, d := range f.docs {
		e, own := s.cache.lookup(cacheKey{endpoint: d.endpoint, params: d.params, gen: gen})
		res[i] = reservation{d, e, own}
	}
	s.liveMu.Unlock()
	st, err := f.engine.Fold(rec)
	if err != nil {
		for _, r := range res {
			if r.own {
				s.compute(r.e, r.cold(s))
			}
		}
		return st, 0, fmt.Errorf("serve: folding %s: %w", rec.Day, err)
	}
	etags := s.patchCache(gen, res)
	elapsed := time.Since(start)
	ev := streamEvent{
		Day: rec.Day, Missing: rec.Missing, Generation: gen,
		Sweeps:       len(s.study.Store.Sweeps()),
		Measurements: st.Measurements,
		FoldMS:       float64(elapsed.Microseconds()) / 1e3,
		ETags:        etags,
	}

	f.mu.Lock()
	f.folds++
	f.foldSeconds += elapsed.Seconds()
	f.lastDay = rec.Day
	f.lagBytes = lag
	f.events++
	f.publish(ev)
	f.mu.Unlock()
	return st, gen, nil
}

// storeDoc is a document built from the store's series: by a request
// from the study's, or by a fold from the follow engine's.
type storeDoc struct {
	// id is the document's path under /api/v1/, its key in a stream
	// event's ETags.
	id, endpoint, params string
	render               func(src core.Series, gen uint64) (any, error)
}

// cold computes d the way a request leader does: from the study.
func (d storeDoc) cold(s *Server) func(gen uint64) (any, error) {
	return func(gen uint64) (any, error) { return d.render(s.study, gen) }
}

// storeDocs lists the store-sourced experiments and /api/v1/sweeps: the
// documents follow mode patches.
func (s *Server) storeDocs() (out []storeDoc) {
	for _, e := range served {
		if e.Source != core.FromStore {
			continue
		}
		path, endpoint, params := apiAddr(e)
		out = append(out, storeDoc{path, endpoint, params, func(src core.Series, gen uint64) (any, error) {
			return s.renderExperiment(e, src, gen, s.study.Store.MissingSweeps())
		}})
	}
	return append(out, storeDoc{"sweeps", "sweeps", "", func(src core.Series, gen uint64) (any, error) {
		return docSweepsFromCounts(src, s.study.Store.MissingSweeps(), gen), nil
	}})
}

// reservation is a fold's cache entry for one storeDoc at the new
// generation. own is false when the key was already cached or computing
// — never in follow mode, where only the follower moves the generation.
type reservation struct {
	storeDoc
	e   *entry
	own bool
}

// patchCache publishes each owned reservation from the engine, through
// the same step a request's computation publishes through, so a patched
// body is byte-identical to a cold one. A document the engine cannot
// render is computed the way a request leader computes it — so is every
// reservation when the fold fails — and its waiters see only what a cold
// request would. Returns the published ETags by event key.
func (s *Server) patchCache(gen uint64, res []reservation) map[string]string {
	etags := make(map[string]string, len(res))
	var patched, skipped uint64
	for _, r := range res {
		if !r.own {
			skipped++
			continue
		}
		if doc, err := r.render(s.follow.engine, gen); err != nil {
			s.compute(r.e, r.cold(s))
		} else {
			s.cache.publish(r.e, doc)
			patched++
		}
		if r.e.err == nil {
			etags[r.id] = r.e.etag
		}
	}
	f := s.follow
	f.mu.Lock()
	f.patched += patched
	f.skipped += skipped
	f.mu.Unlock()
	return etags
}

// liveStats copies the study's per-sweep runtime stats under the live
// lock — follow mode appends to the slice concurrently.
func (s *Server) liveStats() []openintel.SweepStats {
	s.liveMu.RLock()
	defer s.liveMu.RUnlock()
	return append([]openintel.SweepStats(nil), s.study.Stats...)
}

// --- stream endpoint ---

// handleStreamSweeps is the long-poll: it answers with the newest event
// once its generation exceeds ?since= (immediately if it already does),
// or 204 No Content when Options.RequestTimeout passes first. A client
// that slept through several folds gets only the newest event; its
// generation shows the gap and its ETags cover every patched endpoint.
func (s *Server) handleStreamSweeps(w http.ResponseWriter, r *http.Request) {
	if !s.follow.active.Load() {
		http.Error(w, "server is not following a journal (start with -follow)", http.StatusNotFound)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a generation number: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = n
	}
	var deadline *time.Timer
	for {
		ev, changed := s.follow.latest()
		if ev != nil && ev.Generation > since {
			body, err := json.Marshal(ev)
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
		if deadline == nil {
			deadline = time.NewTimer(s.opts.RequestTimeout)
			defer deadline.Stop()
		}
		select {
		case <-changed:
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
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
	var following int64
	if f.active.Load() {
		following = 1
	}
	writeScalars(w,
		scalar{"whereru_stream_following", "gauge", "Whether the server is tailing a journal (follow mode).", following},
		scalar{"whereru_stream_folds_total", "counter", "Journal segments folded into the live engine.", int64(folds)},
	)
	writeFamily(w, "whereru_stream_fold_seconds", "summary", "Time spent applying, folding and patching per segment.")
	fmt.Fprintf(w, "whereru_stream_fold_seconds_sum %g\n", secs)
	fmt.Fprintf(w, "whereru_stream_fold_seconds_count %d\n", folds)
	writeScalars(w,
		scalar{"whereru_stream_last_folded_day", "gauge", "Day number of the last folded segment.", int64(lastDay)},
		scalar{"whereru_stream_watcher_lag_bytes", "gauge", "Journal bytes beyond the watcher's offset at the last fold.", lag},
		scalar{"whereru_stream_cache_patched_total", "counter", "Cache entries installed by follow-mode patching.", int64(patched)},
		scalar{"whereru_stream_cache_patch_skipped_total", "counter", "Patches skipped because the key was already cached or computing.", int64(skipped)},
		scalar{"whereru_stream_events_total", "counter", "Events published to the long-poll stream (the primed state is not one).", int64(events)},
	)
}
