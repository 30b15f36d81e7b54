// stream.go is the live side of the server: follow mode. A watcher
// goroutine tails the study's WRJL journal, and for each segment that
// lands it (1) applies the sweep to the study's store — the same
// mutation sequence a cold replay performs, so the store generation of a
// followed server always equals that of a cold restart over the same
// journal — (2) folds the segment into the incremental engine, (3)
// *patches* the response cache at the new generation, inserting
// fully-rendered bodies built from the engine's accumulators instead of
// letting the next request recompute the whole study, and (4) publishes
// it as the newest event for /api/v1/stream/sweeps long-polls.
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

// applySegment is one follow-mode step: store mutation, engine fold,
// cache patch, metrics, event publish — in that order, so every artifact
// a long-poll client can observe after the event exists already.
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
	ev := streamEvent{
		Day: rec.Day, Missing: rec.Missing, Generation: gen,
		Sweeps:       len(s.study.Store.Sweeps()),
		Measurements: st.Measurements,
		FoldMS:       float64(elapsed.Microseconds()) / 1e3,
		ETags:        etags,
	}

	f := s.follow
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

// patchCache renders every series endpoint from the engine and installs
// the bodies at the new generation, so the first request after a fold is
// a warm hit instead of a full recompute. Returns the ETags by event
// key. Insert-only: a concurrent request that beat us to a key keeps its
// entry (counted as skipped).
func (s *Server) patchCache(gen uint64) map[string]string {
	eng := s.follow.engine
	missing := s.study.Store.MissingSweeps()
	etags := make(map[string]string, len(served)+1)
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
	for _, e := range served {
		if e.Source != core.FromStore {
			continue
		}
		doc, err := s.renderExperiment(e, eng, gen, missing)
		if err != nil {
			continue
		}
		path, endpoint, params := apiAddr(e)
		ins(endpoint, params, path, doc)
	}
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

// --- stream endpoint ---

// handleStreamSweeps is the long-poll: it answers with the newest event
// once its generation exceeds ?since= (immediately if it already does),
// or 204 No Content when the request deadline passes first. A client
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
		select {
		case <-changed:
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
