// Command whereru-serve serves a study's figures and tables over HTTP as
// JSON (see internal/serve for the API). It serves a study `whereru`
// collected, read from exactly one of two files:
//
//	-store FILE       load a binary measurement store written by
//	                  `whereru -store FILE` (fastest)
//	-checkpoint FILE  replay a sweep journal written by
//	                  `whereru -checkpoint FILE` (tolerates torn tails)
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
//	-store FILE      load this measurement store
//	-checkpoint F    replay this sweep journal
//	-scale N         population scale divisor (default 200)
//	-seed N          world seed (default 20220224)
//	-scenario NAME   activate a built-in routing scenario; the study must
//	                 have been collected under the same scenario, and the
//	                 reachability/latency figures and /api/v1/outages
//	                 light up
//	-max-concurrent N  concurrent analysis computations (default GOMAXPROCS)
//	-request-timeout D longest wait on another request's computation or a
//	                   long-poll's next sweep (default 30s)
//	-cache-entries N   result-cache capacity (default 512)
//	-follow          keep tailing the -checkpoint journal while serving:
//	                 new sweeps appended by a concurrent `whereru
//	                 -checkpoint FILE [-resume]` run are folded into the
//	                 live figures incrementally, the response cache is
//	                 patched in place, and a long-poll on
//	                 /api/v1/stream/sweeps?since=GEN answers with the
//	                 newest folded sweep
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
	storePath := flag.String("store", "", "load this measurement store")
	checkpoint := flag.String("checkpoint", "", "replay this sweep journal")
	scale := flag.Int("scale", 200, "population scale divisor (must match the run that produced -store/-checkpoint)")
	seed := flag.Int64("seed", 20220224, "world seed (must match the run that produced -store/-checkpoint)")
	scenario := flag.String("scenario", "", "routing scenario (must match the run that produced -store/-checkpoint)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent analysis computations (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "longest wait on another request's computation (then 503) or for a long-poll's next sweep (then 204)")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache capacity (0 = default)")
	follow := flag.Bool("follow", false, "keep tailing the -checkpoint journal, fold new sweeps live and answer long-polls on /api/v1/stream/sweeps")
	followPoll := flag.Duration("follow-poll", 0, "journal polling interval in follow mode (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	flag.Parse()

	if (*storePath == "") == (*checkpoint == "") {
		return fmt.Errorf("give exactly one of -store or -checkpoint: the file a `whereru -store FILE` (or `-checkpoint FILE`) run wrote")
	}
	if *follow && *checkpoint == "" {
		return fmt.Errorf("-follow requires -checkpoint (the journal to tail)")
	}

	opts := core.Options{
		World:     world.Config{Seed: *seed, Scale: *scale, RFShare: 0.10},
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
	if *storePath != "" {
		f, err := os.Open(*storePath)
		if err != nil {
			return err
		}
		study, err = core.LoadStore(opts, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		loaded, replay, err := core.LoadCheckpointReplay(opts, *checkpoint)
		if err != nil {
			return err
		}
		study = loaded
		if *follow {
			eng = study.NewStreamEngine()
			if err := core.FoldReplay(eng, replay); err != nil {
				return err
			}
			startOffset = replay.GoodBytes
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
