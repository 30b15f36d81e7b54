package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkFile is BENCHMARK.json's shape, exactly the keys the driver's
// contract lists.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedEntry  `json:"end_to_end"`
	PerLayer   []metricEntry   `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func fromCatalogue() benchmarkFile {
	bf := benchmarkFile{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bf.EndToEnd = append(bf.EndToEnd, boundedEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		bf.PerLayer = append(bf.PerLayer, metricEntry{d.Name, d.Unit, d.Better})
	}
	return bf
}

// TestBenchmarkJSONIsTheCatalogue holds the file the driver reads and
// the definitions the harness runs on together. `go test -run
// BenchmarkJSON -update` rewrites the file after a catalogue change.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	want := fromCatalogue()
	if *update {
		if err := writeJSON("../BENCHMARK.json", want); err != nil {
			t.Fatal(err)
		}
	}
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; run `go test -run BenchmarkJSON -update`")
	}
	if len(body) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(body))
	}
}

// TestCatalogueMeetsTheContract checks the limits the driver refuses a
// benchmark for.
func TestCatalogueMeetsTheContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1..128", n)
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside 0..0.25", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range endToEnd {
		if d.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %v", d.Name, d.Bound)
		}
	}
	if !setup || endToEnd[0].Name != "setup_s" {
		t.Error("the end-to-end metrics must start with setup_s in s, lower is better")
	}
	if len(benchCommand) > 32 {
		t.Errorf("command has %d parts, the contract allows 32", len(benchCommand))
	}
}
