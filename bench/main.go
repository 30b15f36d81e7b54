// Command bench is the repository's one benchmark: four workloads over
// the collect → journal → store → analyse → fold → serve pipeline, a
// small set of end-to-end metrics the driver gates, and a per-layer
// breakdown taken from outside the program (see README.md).
//
//	go run -C bench . --workload NAME --seed N --seconds S --trace 0|1
//	go run -C bench . -runs 5 -out out/set.json
//	go run -C bench . -compare baseline/set1.json baseline/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	workload := flag.String("workload", "", "run this one workload and print the driver's result line (default: all four, each in its own process)")
	flag.Int64Var(&cfg.Seed, "seed", defaultSeed, "world seed, fault seed and request schedule all derive from it")
	flag.IntVar(&cfg.Scale, "scale", 2000, "population scale divisor, shared by every workload")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "least time to measure for")
	trace := flag.Int("trace", 0, "1 repeats the workload with the layer probes recording spans and prints the per-layer metrics")
	flag.StringVar(&cfg.Dir, "dir", "out", "directory for journals, store files and traces (real filesystem: fsyncs are measured)")
	out := flag.String("out", "", "write the result set here")
	runs := flag.Int("runs", 1, "with no -workload: how many runs to make, each at the next seed")
	compare := flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
	flag.StringVar(&cfg.FixtureDir, "fixture", "", "collect_faulty_durable only: keep the journal and store file here")
	flag.Parse()
	cfg.Trace = *trace != 0
	cfg.AppendSegments = liveSegments

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result sets")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *workload == "" {
		return runAll(cfg, *runs, *out)
	}

	res, err := runWorkload(*workload, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	return report(res)
}

// runWorkload dispatches one workload by name.
func runWorkload(name string, cfg config) (*workloadResult, error) {
	switch name {
	case wlCollectFaulty:
		return runCollect(cfg, true)
	case wlCollectClean:
		return runCollect(cfg, false)
	case wlResumeReport:
		return runResumeReport(cfg)
	case wlServeLive:
		return runServeLive(cfg)
	}
	return nil, fmt.Errorf("unknown workload (have %s, %s, %s, %s)", wlCollectFaulty, wlCollectClean, wlResumeReport, wlServeLive)
}

// report prints a workload's metrics and checks, then the driver's
// result line; a failed check fails the command.
func report(res *workloadResult) error {
	printMetrics(res.Workload, res.EndToEnd)
	printMetrics(res.Workload, res.PerLayer)
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("%-24s check %-34s %s  %s\n", res.Workload, c.Name, verdict, c.Detail)
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Ops, Failed: res.FailedOps, Metrics: res.EndToEnd}
	if res.Workload == wlCollectFaulty {
		// This workload injects 5% loss, so a few measurements are recorded
		// Failed by design: that outcome is the correct output (the digests
		// and the <1% check verify it) and the same for a seed on every
		// commit. To the driver an operation failed only if the program
		// could not complete it, which aborts the run before this line.
		line.Failed = 0
	}
	if res.Traced {
		line.Metrics = res.PerLayer
	}
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(body))
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed", res.Workload)
	}
	return nil
}

// runAll makes `runs` runs of the four workloads, each workload in its
// own re-exec'd process so CPU time, peak RSS and GC state are its own,
// and writes them as one result set.
func runAll(cfg config, runs int, out string) error {
	set := resultSet{Schema: schemaVersion, Host: readHost(), Scale: cfg.Scale, RunSeconds: cfg.Seconds}
	failed := false
	for i := 0; i < runs; i++ {
		rr := runResult{Seed: cfg.Seed + int64(i), Workloads: map[string]*workloadResult{}}
		for _, wl := range workloads {
			child := cfg
			child.Seed = rr.Seed
			res, err := runChild(wl.Name, child, os.Stdout)
			if res == nil {
				return fmt.Errorf("seed %d: %w", rr.Seed, err)
			}
			failed = failed || err != nil
			rr.Workloads[wl.Name] = res
		}
		if !sameFixture(rr) {
			failed = true
		}
		set.Runs = append(set.Runs, rr)
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// sameFixture cross-checks a run: resume_report and serve_live each
// re-collect collect_faulty_durable's fixture at the same seed, so all
// three must have seen the same store and journal bytes.
func sameFixture(rr runResult) bool {
	ok := true
	want := rr.Workloads[wlCollectFaulty].Digests
	for _, name := range []string{wlResumeReport, wlServeLive} {
		got := rr.Workloads[name].Digests
		for _, k := range []string{"store", "journal"} {
			if got[k] != want[k] {
				fmt.Printf("%-24s check fixture_%s_equals_%s FAILED  %s vs %s\n", name, k, wlCollectFaulty, got[k], want[k])
				ok = false
			}
		}
	}
	return ok
}

// runChild runs one workload in a child process, sending its standard
// output to stdout, and reads its result back from a file. A child that
// ran but failed its checks returns both the result and an error.
func runChild(workload string, cfg config, stdout io.Writer) (*workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(cfg.Dir, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", fmt.Sprint(cfg.Seed),
		"-scale", fmt.Sprint(cfg.Scale),
		"-seconds", fmt.Sprint(cfg.Seconds),
		"-trace", trace,
		"-dir", cfg.Dir,
		"-fixture", cfg.FixtureDir,
		"-out", tmp.Name())
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	runErr := cmd.Run()
	body, err := os.ReadFile(tmp.Name())
	if err != nil || len(body) == 0 {
		return nil, fmt.Errorf("%s child produced no result: %v", workload, runErr)
	}
	var res workloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, runErr
}

// collectFixture runs collect_faulty_durable once in a child process
// and returns its journal and store file: the set-up of the workloads
// that start from a finished collection. A child, so that the caller's
// CPU time and peak RSS are its own work's.
func collectFixture(cfg config, dir string) (*fixture, error) {
	child := cfg
	child.Trace, child.Seconds = false, 0
	child.Dir, child.FixtureDir = dir, filepath.Join(dir, "fixture")
	res, err := runChild(wlCollectFaulty, child, os.Stderr)
	if err != nil {
		return nil, fmt.Errorf("collecting the fixture: %w", err)
	}
	j, s := fixturePaths(child.FixtureDir)
	return &fixture{Journal: j, Store: s, Offsets: res.JournalOffsets, Digests: res.Digests, Measurements: res.Ops}, nil
}
