package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tailLadder is the percentiles the picker chooses among.
var tailLadder = []float64{50, 80, 90, 95, 99, 99.9}

// highestSupported picks the highest percentile of tailLadder that n
// samples support.
func highestSupported(n int) float64 {
	best := tailLadder[0]
	probe := make([]float64, n)
	for _, p := range tailLadder {
		if _, ok := percentile(probe, p); ok {
			best = p
		}
	}
	return best
}

func TestPercentilePickerNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 50},      // p80 would leave 3 beyond
		{60, 80},      // 12 beyond p80, 6 beyond p90: why freshness is reported at p80
		{100, 90},     // exactly 10 beyond p90
		{999, 95},     // p99 leaves 9
		{1000, 99},    // p99 leaves exactly 10
		{9999, 99},    // p99.9 leaves 9
		{10000, 99.9}, // p99.9 leaves exactly 10
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}

	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 80); v != 48 || !ok {
		t.Errorf("p80 of 1..60 = %v (supported %v), want 48, supported", v, ok)
	}
	if v, ok := percentile(xs, 90); v != 54 || ok {
		t.Errorf("p90 of 1..60 = %v (supported %v), want 54, unsupported", v, ok)
	}
	if v := supportedPercentile(xs, 99); v != 0 {
		t.Errorf("an unsupported tail must report 0, got %v", v)
	}
	if v, ok := percentile(xs[:3], 50); v != 2 || !ok {
		t.Errorf("the median is supported at any sample count: got %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples support nothing")
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// these are that function's outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{12, 10, 11}, 10, 12},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || s != 1 {
		t.Errorf("spread = %v, %v; want (8.25-2.75)/5.5 = 1", s, ok)
	}
}

func TestSpanSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{Name: "sweep", Start: 0, End: 100, Parent: -1},
		{Name: "tick", Start: 10, End: 30, Parent: 0},
		{Name: "fsync", Start: 20, End: 50, Parent: 0},    // overlaps tick: the union [10,50] is covered once
		{Name: "fsync", Start: 90, End: 120, Parent: 0},   // runs past its parent: only [90,100] is cover
		{Name: "write", Start: 22, End: 28, Parent: 2},    // a grandchild is its parent's cover, not the sweep's
		{Name: "sweep", Start: 200, End: 230, Parent: -1}, // childless: all self
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"sweep": (100 - 40 - 10) + 30,
		"tick":  20,
		"fsync": (30 - 6) + 30,
		"write": 6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerParentsAndNilSafety(t *testing.T) {
	var none *tracer
	none.push("x", 1)
	none.pop()
	none.end(none.begin("y", -1, 0))
	none.record("z", 0, time.Now(), time.Now())
	if none.total("x") != 0 {
		t.Error("a nil tracer records nothing")
	}

	tr := newTracer()
	tr.push("sweep", 19000)
	tr.push("tick", 0)
	tr.pop()
	tr.pop()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].ID != 19000 {
		t.Errorf("a pushed span takes the open span as parent and its id: %+v", tr.spans)
	}
	if tr.spans[0].Parent != -1 || len(tr.stack) != 0 {
		t.Errorf("root span or stack wrong: %+v, stack %v", tr.spans[0], tr.stack)
	}
}

func TestOpenLoopKeepsDueTimesAndReportsLateness(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	sleep := func(d time.Duration) { clock = clock.Add(d) }
	cost := []time.Duration{250 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	var started []time.Duration
	late := runOpenLoop(4, 100*time.Millisecond, now, sleep, func(i int) {
		started = append(started, clock.Sub(time.Unix(0, 0)))
		clock = clock.Add(cost[i])
	})
	// Event 0 overruns two and a half slots. Events 1 and 2 start the
	// moment their predecessor returns, late against their own unmoved due
	// times; event 3 is back on schedule.
	wantLate := []time.Duration{0, 150 * time.Millisecond, 60 * time.Millisecond, 0}
	wantStart := []time.Duration{0, 250 * time.Millisecond, 260 * time.Millisecond, 300 * time.Millisecond}
	for i := range wantLate {
		if late[i] != wantLate[i] || started[i] != wantStart[i] {
			t.Errorf("event %d: started %v late %v, want %v late %v", i, started[i], late[i], wantStart[i], wantLate[i])
		}
	}
}

// Cold keys must be distinct within one store generation, or a "cold"
// request is a cache hit. A generation lasts one append interval
// (167 ms), in which a worker issues some 15 cold requests. The
// generator rotates 8 ASNs x 145 days = 1,160 keys, the workers
// interleaved; with 145 odd and 2 workers, worker 1 wraps onto worker
// 0's first key at request 8*72 = 576. So the guarantee is "no repeat
// among the workers' first 500 requests each" — thirty-odd generations'
// worth — not "no repeat in a whole rotation".
func TestColdKeysDistinctFarBeyondAGenerationWindow(t *testing.T) {
	seen := map[string]bool{}
	const workers, each = 2, 500
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			p := coldPath(w, workers, i)
			if seen[p] {
				t.Fatalf("worker %d request %d repeats %s", w, i, p)
			}
			seen[p] = true
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "m", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"every run better", lower, steady, scale(steady, 0.8), verdictBetter},
		{"no change", lower, steady, scale(steady, 1.004), verdictWithin},
		{"worse inside the bound", lower, steady, scale(steady, 1.08), verdictWithin},
		{"worse beyond the bound", lower, steady, scale(steady, 1.2), verdictWorse},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), verdictUnresolved},
		{"noisy but every run better", lower, noisy, scale(steady, 0.5), verdictBetter},
		{"higher is better: a drop is worse", higher, steady, scale(steady, 0.8), verdictWorse},
		{"higher is better: a rise is better", higher, steady, scale(steady, 1.2), verdictBetter},
		{"single runs cannot show spread", lower, []float64{100}, []float64{104}, verdictWithin},
	} {
		if got := judge("w", tc.d, tc.a, tc.b); got.Verdict != tc.want {
			t.Errorf("%s: %s (change %+.3f, spreads %.3f/%.3f), want %s", tc.name, got.Verdict, got.Change, got.SpreadA, got.SpreadB, tc.want)
		}
	}
}

func TestCompareFilesFailsOnWorse(t *testing.T) {
	set := func(cpu float64) *resultSet {
		rs := &resultSet{Schema: schemaVersion, Scale: 2000, RunSeconds: 10}
		for i := 0; i < 5; i++ {
			rs.Runs = append(rs.Runs, runResult{Seed: int64(i), Workloads: map[string]*workloadResult{
				wlCollectClean: {
					Workload: wlCollectClean,
					EndToEnd: map[string]value{"cpu_us_per_op": {cpu + float64(i)/10, "us"}},
					// Gated per-layer metrics the workload bypasses read 0 and
					// must not be judged.
					PerLayer: map[string]value{"resume_s": {0, "s"}},
				},
			}})
		}
		return rs
	}
	dir := t.TempDir()
	write := func(name string, rs *resultSet) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// cpu_us_per_op ships with a 25% bound (README, "Measured spread"), so
	// the set that must fail is 40% slower. A 20% slower set passes this
	// gate; that is what the bound means on this machine.
	base, same, slow := write("a.json", set(50)), write("b.json", set(50.2)), write("c.json", set(70))

	var out bytes.Buffer
	if err := compareFiles(base, same, &out); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || strings.Contains(out.String(), "resume_s") {
		t.Errorf("want one within-bound row and no row for the bypassed metric:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(base, slow, &out); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 40%% slower set must fail the command: err %v\n%s", err, out.String())
	}

	other := set(50)
	other.Scale = 1000
	if err := compareFiles(base, write("d.json", other), &out); err == nil {
		t.Error("sets at different scales must not compare")
	}
}
