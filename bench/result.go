package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// schemaVersion is the "schema" field of every file the harness writes.
const schemaVersion = 1

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output verification of a workload.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workloadResult is one workload of one run.
type workloadResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Ops is the workload's unit of work completed in the timed region
	// (measurements, or requests on serve_live); FailedOps is how many of
	// them the program reported as failed (measurements recorded Failed
	// under injected loss, non-200 responses).
	Ops       int64 `json:"ops"`
	FailedOps int64 `json:"failed_ops"`
	// Passes is how many times the timed region ran.
	Passes  int     `json:"passes"`
	Correct bool    `json:"correct"`
	Checks  []check `json:"checks"`
	// Samples is the sample count behind each median or percentile.
	Samples  map[string]int   `json:"samples"`
	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Digests are SHA-256 of the store file, the journal and the rendered
	// report, where the workload produces them.
	Digests map[string]string `json:"digests,omitempty"`
	// JournalOffsets[k] is the journal's length after k segments (so
	// [0] is the header): how the fixture is cut into prefixes without
	// the harness parsing the format.
	JournalOffsets []int64 `json:"journal_offsets,omitempty"`
}

// hostInfo describes where a result set was measured.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// runResult is one pass over the workloads at one seed.
type runResult struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Schema     int         `json:"schema"`
	Host       hostInfo    `json:"host"`
	Scale      int         `json:"scale"`
	RunSeconds float64     `json:"run_seconds"`
	Runs       []runResult `json:"runs"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

func readResultSet(path string) (*resultSet, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(body, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this harness reads schema %d", path, rs.Schema, schemaVersion)
	}
	return &rs, nil
}

func writeJSON(path string, v any) error {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// metricSet collects a workload's metric values by catalogue name.
type metricSet map[string]float64

// set records a metric; a name the catalogue does not list is a bug in
// the harness.
func (m metricSet) set(name string, v float64) {
	if _, ok := metricByName[name]; !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	m[name] = v
}

// export renders the metrics of defs, in catalogue order of names; a
// metric the workload did not set reads 0 (the layer did no work there).
func (m metricSet) export(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics writes one line per (workload, metric, value, unit).
func printMetrics(workload string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %-36s %16.4f %s\n", workload, n, vals[n].Value, vals[n].Unit)
	}
}

// contractLine is the last line of standard output the driver parses.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
