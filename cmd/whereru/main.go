// Command whereru runs the full reproduction: it builds the synthetic
// .ru/.рф ecosystem, collects five years of (simulated) OpenINTEL-style
// DNS sweeps plus the 2022 TLS scans, and regenerates every figure and
// table of "Where .ru? Assessing the Impact of Conflict on Russian Domain
// Infrastructure" (IMC 2022) with a paper-vs-measured index.
//
// Usage:
//
//	whereru [flags]
//
//	-scale N        population scale divisor (default 200; 2000 is fast)
//	-seed N         world seed (default 20220224)
//	-step N         dense sweep interval in days for 2022 (default 3)
//	-workers N      sweep concurrency (default 8)
//	-analysis-workers N  analysis shard count (default 0 = one per CPU)
//	-scenario NAME  activate a built-in routing scenario (netnod-depeering,
//	                ru-ixp-isolation, runet-partition): sweeps run through
//	                the AS-level route tables and the report gains the
//	                reachability and latency sections. For example:
//	                  whereru -scale 2000 -scenario netnod-depeering
//	                  whereru -scale 2000 -scenario runet-partition -step 7
//	-markdown FILE  also write the EXPERIMENTS.md content to FILE
//	-store FILE     also write the binary measurement store to FILE
//	-checkpoint F   journal each completed sweep to F (crash-safe collection)
//	-resume         replay the checkpoint journal and continue from the
//	                first unswept day (requires -checkpoint)
//	-drop DATES     comma-separated YYYY-MM-DD days to skip, simulating
//	                collection outages (flagged as gaps in the analyses)
//	-crash-after N  test hook: exit with code 3 after N checkpointed sweeps
//	-io-fault SPEC  inject disk faults into the checkpoint journal and
//	                -store write (e.g. "crash@4096", "enospc@1024",
//	                "syncfail@2"; see internal/iofault.ParseProfile). An
//	                injected crash exits with code 4.
//	-io-fault-seed N  seed for probabilistic -io-fault classes (default 1);
//	                the same seed replays the same faults byte-for-byte
//	-quiet          suppress progress logging
//
// After collection the run summary (suppressed by -quiet) reports each
// sweep's wall-clock duration and per-domain latency quantiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"whereru/internal/core"
	"whereru/internal/iofault"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, core.ErrCrashInjected) {
			fmt.Fprintln(os.Stderr, "whereru:", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "whereru:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("whereru", flag.ExitOnError)
	scale := fs.Int("scale", 200, "population scale divisor (1:N of the paper's 11.7M domains)")
	seed := fs.Int64("seed", 20220224, "world seed")
	step := fs.Int("step", 3, "dense sweep interval in days for 2022")
	workers := fs.Int("workers", 8, "sweep concurrency")
	analysisWorkers := fs.Int("analysis-workers", 0, "analysis shard count for figure regeneration (0 = one per CPU)")
	scenario := fs.String("scenario", "", "routing scenario ("+strings.Join(world.Scenarios(), ", ")+"); empty disables the route layer")
	markdown := fs.String("markdown", "", "write EXPERIMENTS.md content to this file")
	storePath := fs.String("store", "", "write the binary measurement store to this file")
	csvDir := fs.String("csvdir", "", "write per-figure CSV series into this directory")
	mx := fs.Bool("mx", true, "collect MX records (mail-measurement extension)")
	checkpoint := fs.String("checkpoint", "", "journal each completed sweep to this file (crash-safe collection)")
	resume := fs.Bool("resume", false, "replay the -checkpoint journal, then continue from the first unswept day")
	drop := fs.String("drop", "", "comma-separated YYYY-MM-DD sweep days to skip (simulated collection outages)")
	crashAfter := fs.Int("crash-after", 0, "test hook: exit code 3 after N checkpointed sweeps")
	ioFault := fs.String("io-fault", "", "disk fault profile for checkpoint/store writes (e.g. crash@4096,enospc@1024); injected crashes exit 4")
	ioFaultSeed := fs.Int64("io-fault-seed", 1, "seed for probabilistic -io-fault classes")
	memStats := fs.String("memstats", "", "write store memory accounting to this file after collection")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	fs.Parse(args) // ExitOnError: a bad flag exits here, as flag.Parse would

	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	var dropDays []simtime.Day
	if *drop != "" {
		for _, tok := range strings.Split(*drop, ",") {
			d, err := simtime.Parse(strings.TrimSpace(tok))
			if err != nil {
				return fmt.Errorf("-drop: %w", err)
			}
			dropDays = append(dropDays, d)
		}
	}

	opts := core.Options{
		World:           world.Config{Seed: *seed, Scale: *scale, RFShare: 0.10},
		DenseStep:       *step,
		Workers:         *workers,
		AnalysisWorkers: *analysisWorkers,
		Scenario:        *scenario,
		CollectMX:       *mx,
		CheckpointPath:  *checkpoint,
		Resume:          *resume,
		DropSweeps:      dropDays,
		CrashAfter:      *crashAfter,
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *ioFault != "" {
		profile, err := iofault.ParseProfile(*ioFault)
		if err != nil {
			return fmt.Errorf("-io-fault: %w", err)
		}
		// A crash-at-offset behaves like a hard kill: the process dies at
		// that exact byte, with a distinct exit code so harnesses can tell
		// an injected disk crash (4) from -crash-after's sweep crash (3).
		profile.Crash = func(c *iofault.Crash) {
			fmt.Fprintln(os.Stderr, "whereru:", c.Error())
			os.Exit(4)
		}
		opts.FS = iofault.NewFaultFS(iofault.OS, *ioFaultSeed, profile)
	}
	study, err := core.New(opts)
	if err != nil {
		return err
	}
	if err := study.Collect(context.Background()); err != nil {
		return err
	}
	if !*quiet {
		printRunSummary(os.Stderr, study.Stats)
	}
	if *memStats != "" {
		if err := writeMemStats(*memStats, study.Store.MemStats()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *memStats)
	}
	if err := study.RenderAll(os.Stdout); err != nil {
		return err
	}
	if *markdown != "" {
		f, err := os.Create(*markdown)
		if err != nil {
			return err
		}
		if err := study.ExperimentsMarkdown(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *markdown)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		err := study.ExportCSV(func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote CSV series to %s\n", *csvDir)
	}
	if *storePath != "" {
		// Atomic replace: a crash mid-write must not destroy a previous
		// good store at the same path.
		if err := study.SaveStoreFile(*storePath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *storePath)
	}
	return nil
}

// printRunSummary reports each live sweep's wall-clock duration and
// per-domain latency quantiles, then the collection total. Replayed
// sweeps (resume) carry no runtime timings and are skipped.
func printRunSummary(w io.Writer, stats []openintel.SweepStats) {
	var total time.Duration
	timed := 0
	for _, st := range stats {
		if st.Duration <= 0 {
			continue
		}
		fmt.Fprintf(w, "sweep %s: %d domains in %s (latency p50 %s, p90 %s, p99 %s)\n",
			st.Day, st.Domains, st.Duration.Round(time.Millisecond),
			st.LatencyP50, st.LatencyP90, st.LatencyP99)
		total += st.Duration
		timed++
	}
	if timed > 0 {
		fmt.Fprintf(w, "collection: %d sweeps in %s (avg %s/sweep)\n",
			timed, total.Round(time.Millisecond), (total / time.Duration(timed)).Round(time.Millisecond))
	}
}

// writeMemStats writes the store's memory accounting in a flat
// name-value format. The figures are deterministic for a given run
// configuration: accounted from the representation, not sampled from the
// allocator.
func writeMemStats(path string, ms store.MemStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "store_domains %d\n"+
		"store_epochs %d\n"+
		"store_dead_rows %d\n"+
		"store_naive_records %d\n"+
		"store_distinct_configs %d\n"+
		"store_interned_hosts %d\n"+
		"store_column_bytes %d\n"+
		"store_intern_bytes %d\n"+
		"store_index_bytes %d\n"+
		"store_resident_bytes %d\n"+
		"store_bytes_per_epoch %d\n",
		ms.Domains, ms.Epochs, ms.DeadRows, ms.NaiveRecords, ms.DistinctConfigs, ms.InternedHosts,
		ms.ColumnBytes, ms.InternBytes, ms.IndexBytes, ms.ResidentBytes(), int64(ms.BytesPerEpoch()+0.5))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
