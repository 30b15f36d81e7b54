// Command whereru-serve serves a study's figures and tables over HTTP as
// JSON (see internal/serve for the API). The study's measurements come
// from one of three sources, in order of preference:
//
//	-store FILE       load a binary measurement store written by
//	                  `whereru -store FILE` (fastest: no collection)
//	-checkpoint FILE  replay a sweep journal written by
//	                  `whereru -checkpoint FILE` (tolerates torn tails)
//	(neither)         collect the study in-process before serving
//
// The world context the analyses consult (geolocation, routing,
// registries, sanctions, certificate transparency) is rebuilt
// deterministically from -seed/-scale, which must match the run that
// produced the store or journal.
//
// Usage:
//
//	whereru-serve [flags]
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8334)
//	-store FILE      load this measurement store instead of collecting
//	-checkpoint F    replay this sweep journal instead of collecting
//	-scale N         population scale divisor (default 200)
//	-seed N          world seed (default 20220224)
//	-step N          dense sweep interval when collecting (default 3)
//	-scenario NAME   activate a built-in routing scenario; the study must
//	                 have been collected (or is collected here) under the
//	                 same scenario, and the reachability/latency figures
//	                 and /api/v1/outages light up
//	-max-concurrent N  concurrent analysis computations (default GOMAXPROCS)
//	-request-timeout D per-request deadline (default 30s)
//	-cache-entries N   result-cache capacity (default 512)
//	-follow          keep tailing the -checkpoint journal while serving:
//	                 new sweeps appended by a concurrent `whereru
//	                 -checkpoint FILE [-resume]` run are folded into the
//	                 live figures incrementally, the response cache is
//	                 patched in place, and /api/v1/stream/* endpoints
//	                 push one event per folded sweep (SSE or long-poll)
//	-follow-poll D   journal polling interval in follow mode (default 200ms)
//	-quiet           suppress progress logging
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"whereru/internal/core"
	"whereru/internal/serve"
	"whereru/internal/stream"
	"whereru/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "whereru-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8334", "listen address")
	storePath := flag.String("store", "", "load this measurement store instead of collecting")
	checkpoint := flag.String("checkpoint", "", "replay this sweep journal instead of collecting")
	scale := flag.Int("scale", 200, "population scale divisor (must match the run that produced -store/-checkpoint)")
	seed := flag.Int64("seed", 20220224, "world seed (must match the run that produced -store/-checkpoint)")
	step := flag.Int("step", 3, "dense sweep interval in days when collecting")
	scenario := flag.String("scenario", "", "routing scenario (must match the run that produced -store/-checkpoint)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent analysis computations (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache capacity (0 = default)")
	follow := flag.Bool("follow", false, "keep tailing the -checkpoint journal and fold new sweeps live")
	followPoll := flag.Duration("follow-poll", 0, "journal polling interval in follow mode (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	flag.Parse()

	if *storePath != "" && *checkpoint != "" {
		return fmt.Errorf("-store and -checkpoint are mutually exclusive")
	}
	if *follow && *checkpoint == "" {
		return fmt.Errorf("-follow requires -checkpoint (the journal to tail)")
	}

	opts := core.Options{
		World:     world.Config{Seed: *seed, Scale: *scale, RFShare: 0.10},
		DenseStep: *step,
		Scenario:  *scenario,
		CollectMX: true,
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var study *core.Study
	var eng *stream.Engine
	var startOffset int64
	var err error
	switch {
	case *storePath != "":
		f, ferr := os.Open(*storePath)
		if ferr != nil {
			return ferr
		}
		study, err = core.LoadStore(opts, f)
		f.Close()
		if err != nil {
			return err
		}
	case *checkpoint != "":
		loaded, replay, lerr := core.LoadCheckpointReplay(opts, *checkpoint)
		if lerr != nil {
			return lerr
		}
		study = loaded
		if *follow {
			eng = study.NewStreamEngine()
			if err := core.FoldReplay(eng, replay); err != nil {
				return err
			}
			startOffset = replay.GoodBytes
		}
	default:
		study, err = core.New(opts)
		if err != nil {
			return err
		}
		if err := study.Collect(ctx); err != nil {
			return err
		}
	}
	// A followed journal may legitimately be empty: the collector writing
	// it might not have swept yet.
	if len(study.Store.Sweeps()) == 0 && !*follow {
		return fmt.Errorf("the loaded study has no sweeps; nothing to serve")
	}

	srv := serve.New(study, serve.Options{
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *requestTimeout,
		CacheEntries:   *cacheEntries,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 2)
	go func() {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serving %d domains, %d sweeps on http://%s\n",
				study.Store.NumDomains(), len(study.Store.Sweeps()), *addr)
		}
		errc <- httpSrv.ListenAndServe()
	}()
	if *follow {
		go func() {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "following %s from offset %d\n", *checkpoint, startOffset)
			}
			if ferr := srv.Follow(ctx, serve.FollowOptions{
				Engine:      eng,
				JournalPath: *checkpoint,
				StartOffset: startOffset,
				Poll:        *followPoll,
				Progress:    opts.Progress,
			}); ferr != nil {
				errc <- fmt.Errorf("follow: %w", ferr)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "shutting down...")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
