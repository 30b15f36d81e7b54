package serve

import (
	"fmt"

	"whereru/internal/analysis"
	"whereru/internal/core"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// renderExperiment builds the document of e. A store-sourced experiment
// reads src: the study cold, or the follow engine, whose series are the
// cold ones (the fold-equivalence tests pin that), so a body patched from
// the engine is byte-identical to one computed cold. missing is the
// store's missing-sweeps list.
func (s *Server) renderExperiment(e *core.Experiment, src core.Series, gen uint64, missing []simtime.Day) (any, error) {
	doc := experimentDoc{Title: e.APITitle, Generation: gen}
	if e.Source == core.FromStore {
		doc.MissingDays = missingIn(missing, e.From)
	}
	switch {
	case e.Number == 0:
		doc.Endpoint = e.ID
	case e.Collection == "tables":
		doc.Table = e.Number
	default:
		doc.Figure = e.Number
	}
	switch v := e.Value(s.study, src).(type) {
	case []analysis.Point:
		doc.Series = renderComposition(v)
	case []analysis.TLDSharePoint:
		top := analysis.TopTLDs(v, 5)
		doc.TopTLDs, doc.Series = top, renderTLDShares(v, top)
	case []analysis.ASNSharePoint:
		for _, n := range e.Plotted {
			doc.Plotted = append(doc.Plotted, asnLabel{ASN: n.ASN, Name: n.Name})
		}
		doc.Series = renderASNShares(v)
	case []analysis.ReachPoint:
		doc.Scenario, doc.Series = s.study.Opts.Scenario, renderReachability(v)
	case []analysis.RouteLatencyPoint:
		doc.Scenario, doc.Series = s.study.Opts.Scenario, renderRouteLatency(v)
	case []analysis.Timeline:
		doc.WindowFrom, doc.WindowTo = world.RussianCAStartDay, simtime.CTWindowEnd
		doc.Timelines = renderTimelines(v)
	case []analysis.PeriodIssuance:
		doc.Scale = s.study.Scale()
		doc.Rows = renderTable1(v, doc.Scale)
	case []analysis.RevocationRow:
		doc.Rows = renderTable2(v)
	default:
		return nil, fmt.Errorf("serve: no document for %s's %T", e.ID, v)
	}
	return doc, nil
}

// missingIn filters missing sweep days to those on or after from.
func missingIn(days []simtime.Day, from simtime.Day) []simtime.Day {
	var out []simtime.Day
	for _, d := range days {
		if d >= from {
			out = append(out, d)
		}
	}
	return out
}

// docSweepsFromCounts builds the /api/v1/sweeps document: one row per
// sweep day from the source's per-sweep counts, the missing days
// interleaved as bare markers.
func docSweepsFromCounts(src core.Series, missing []simtime.Day, gen uint64) sweepsDoc {
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
