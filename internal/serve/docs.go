package serve

import (
	"fmt"

	"whereru/internal/analysis"
	"whereru/internal/core"
	"whereru/internal/simtime"
	"whereru/internal/stream"
)

// seriesSource is where a series comes from: the cold feeder (core.Study
// computes over the whole store, once per generation) or the live one
// (stream.Engine reads its folded accumulators). Both run the same accumulator definitions and
// must yield identical series — the fold-equivalence tests pin that — so
// one doc builder renders for both, and a cache entry patched from the
// stream engine is byte-identical to one computed cold.
type seriesSource interface {
	Fig1() []analysis.Point
	Fig2() []analysis.Point
	Fig3() []analysis.TLDSharePoint
	Fig4() []analysis.ASNSharePoint
	Fig5() []analysis.Point
	Hosting() []analysis.Point
	Reachability() []analysis.ReachPoint
	RouteLatency() []analysis.RouteLatencyPoint
	SweepCounts() []analysis.SweepCount
}

var (
	_ seriesSource = (*core.Study)(nil)
	_ seriesSource = (*stream.Engine)(nil)
)

// seriesFigureIDs are the figure-endpoint ids servable from a
// seriesSource (figure 8 is CT-derived and sweep-independent, so it has
// no stream path).
var seriesFigureIDs = []string{"1", "2", "3", "4", "5", "reachability", "latency"}

// docFigure builds the response document for a series figure. missing is
// the store's full missing-sweeps list (dense-window figures filter it);
// scenario labels the reachability/latency docs.
func docFigure(n string, gen uint64, missing []simtime.Day, scenario string, src seriesSource) (any, error) {
	switch n {
	case "1":
		return compositionDoc{
			Figure: 1, Title: "NS-infrastructure composition of .ru/.рф",
			Generation: gen, MissingDays: missing,
			Series: renderComposition(src.Fig1()),
		}, nil
	case "2":
		return compositionDoc{
			Figure: 2, Title: "TLD dependency of .ru/.рф name servers",
			Generation: gen, MissingDays: missing,
			Series: renderComposition(src.Fig2()),
		}, nil
	case "3":
		series := src.Fig3()
		top := analysis.TopTLDs(series, 5)
		return tldShareDoc{
			Figure: 3, Title: "Name-server TLD shares",
			Generation: gen, TopTLDs: top,
			MissingDays: missing,
			Series:      renderTLDShares(series, top),
		}, nil
	case "4":
		plotted := make([]asnLabel, 0, len(core.Fig4Providers()))
		for _, p := range core.Fig4Providers() {
			plotted = append(plotted, asnLabel{ASN: p.ASN, Name: p.Name})
		}
		return asnShareDoc{
			Figure: 4, Title: "Hosting ASN shares (2022 dense window)",
			Generation: gen, Plotted: plotted,
			MissingDays: missingIn(missing, simtime.DenseWindowStart),
			Series:      renderASNShares(src.Fig4()),
		}, nil
	case "5":
		return compositionDoc{
			Figure: 5, Title: "Sanctioned-domain NS composition (2022 dense window)",
			Generation:  gen,
			MissingDays: missingIn(missing, simtime.DenseWindowStart),
			Series:      renderComposition(src.Fig5()),
		}, nil
	case "reachability":
		return reachabilityDoc{
			Endpoint: "reachability", Title: "Name-server reachability under routing scenario",
			Scenario: scenario, Generation: gen,
			MissingDays: missing,
			Series:      renderReachability(src.Reachability()),
		}, nil
	case "latency":
		return routeLatencyDoc{
			Endpoint: "latency", Title: "Simulated resolution latency (best NS path)",
			Scenario: scenario, Generation: gen,
			MissingDays: missing,
			Series:      renderRouteLatency(src.RouteLatency()),
		}, nil
	}
	return nil, fmt.Errorf("serve: no series figure %q", n)
}

// docHosting builds the /api/v1/hosting document.
func docHosting(gen uint64, missing []simtime.Day, src seriesSource) any {
	return compositionDoc{
		Endpoint: "hosting", Title: "Hosting composition (§3.1)",
		Generation: gen, MissingDays: missing,
		Series: renderComposition(src.Hosting()),
	}
}

// docSweepsFromCounts builds the /api/v1/sweeps document: one row per
// sweep day from the source's per-sweep counts, the missing days
// interleaved as bare markers.
func docSweepsFromCounts(src seriesSource, missing []simtime.Day, gen uint64) sweepsDoc {
	counts := src.SweepCounts()
	doc := sweepsDoc{Endpoint: "sweeps", Generation: gen, Sweeps: len(counts), MissingDays: len(missing)}
	doc.Days = make([]sweepRow, 0, len(counts)+len(missing))
	mi := 0
	for _, c := range counts {
		for mi < len(missing) && missing[mi] < c.Day {
			doc.Days = append(doc.Days, sweepRow{Day: missing[mi], Missing: true})
			mi++
		}
		doc.Days = append(doc.Days, sweepRow{
			Day: c.Day, Domains: c.Measured, Failed: c.Failed,
			NXDomain: c.NXDomain, Unreachable: c.Unreachable,
		})
	}
	for mi < len(missing) {
		doc.Days = append(doc.Days, sweepRow{Day: missing[mi], Missing: true})
		mi++
	}
	return doc
}
