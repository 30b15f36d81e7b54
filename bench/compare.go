package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of -compare, one per (workload, gated metric).
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	Workload string
	Metric   metricDef
	// A and B are the sets' medians; SpreadA/B their inter-quartile
	// distance as a share of the median.
	A, B             float64
	SpreadA, SpreadB float64
	// Change is B relative to A, signed so that positive is worse.
	Change  float64
	Verdict string
}

// judge compares one metric's values in the baseline set a and the
// candidate set b against the metric's bound.
//
// Every run of b reading better than every run of a is "better" whatever
// the noise. Otherwise a spread wider than the bound (in either set)
// means the sets cannot resolve a change of the size the bound forbids:
// "unresolved", not "within-bound". With resolving power established, a
// median worse by more than the bound is "worse", one better by more
// than both spreads is "better", and the rest are "within-bound".
func judge(workload string, d metricDef, a, b []float64) comparison {
	c := comparison{Workload: workload, Metric: d, A: median(a), B: median(b)}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if c.A != 0 {
		c.Change = sign * (c.B - c.A) / math.Abs(c.A)
	}
	var okA, okB bool
	c.SpreadA, okA = spread(a)
	c.SpreadB, okB = spread(b)

	worstB, bestA := sign*b[0], sign*a[0]
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	switch {
	case worstB < bestA:
		c.Verdict = verdictBetter
	case okA && okB && math.Max(c.SpreadA, c.SpreadB) > d.Bound:
		c.Verdict = verdictUnresolved
	case c.Change > d.Bound:
		c.Verdict = verdictWorse
	case -c.Change > math.Max(c.SpreadA, c.SpreadB) && c.Change < 0:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictWithin
	}
	return c
}

// values gathers one metric's value from every run of a set that
// measured it on workload.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range rs.Runs {
		w := run.Workloads[workload]
		if w == nil {
			continue
		}
		if v, ok := w.EndToEnd[metric]; ok {
			out = append(out, v.Value)
		} else if v, ok := w.PerLayer[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareSets judges every gated metric on every workload both sets
// measured it on. A gated per-layer metric that reads 0 throughout is
// one the workload bypasses, not a measurement.
func compareSets(a, b *resultSet) []comparison {
	var gated []metricDef
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Bound > 0 {
			gated = append(gated, d)
		}
	}
	var rows []comparison
	for _, wl := range workloads {
		for _, d := range gated {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 || (maxOf(va) == 0 && maxOf(vb) == 0) {
				continue
			}
			rows = append(rows, judge(wl.Name, d, va, vb))
		}
	}
	return rows
}

// compareFiles is `bench -compare A.json B.json`: A is the baseline.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	if a.Scale != b.Scale || a.RunSeconds != b.RunSeconds {
		return fmt.Errorf("the sets are not comparable: scale %d vs %d, run_seconds %v vs %v", a.Scale, b.Scale, a.RunSeconds, b.RunSeconds)
	}
	rows := compareSets(a, b)
	fmt.Fprintf(w, "%-24s %-30s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	counts := map[string]int{}
	for _, c := range rows {
		counts[c.Verdict]++
		fmt.Fprintf(w, "%-24s %-30s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric.Name, c.A, c.B, 100*c.Change, 100*c.SpreadA, 100*c.SpreadB, 100*c.Metric.Bound, c.Verdict)
	}
	verdicts := make([]string, 0, len(counts))
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	fmt.Fprintf(w, "%d runs vs %d runs:", len(a.Runs), len(b.Runs))
	for _, v := range verdicts {
		fmt.Fprintf(w, " %d %s", counts[v], v)
	}
	fmt.Fprintln(w, " (change is signed so that + is worse)")
	if counts[verdictWorse] > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", counts[verdictWorse])
	}
	return nil
}
