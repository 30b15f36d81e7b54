package analysis

import (
	"whereru/internal/ct"
	"whereru/internal/simtime"
)

// Market-concentration analysis (extension). The paper's CCS keywords
// include "Centralization / decentralization" and its discussion warns
// about Let's Encrypt's near-complete control of .ru certificates; the
// Herfindahl–Hirschman Index (HHI) makes that concentration comparable
// across the hosting, DNS and certificate markets and across time.
//
// HHI = Σ (share_i)², with shares in [0,1]; 1.0 is a monopoly. US
// antitrust convention (shares in percent, 0–10,000) calls >2,500 highly
// concentrated, which corresponds to 0.25 here.

// HHI computes the index from a map of counts. It sums in integers, so
// the result does not depend on the map's iteration order.
func HHI[K comparable](counts map[K]int) float64 {
	var total, squares int64
	for _, n := range counts {
		total += int64(n)
		squares += int64(n) * int64(n)
	}
	if total == 0 {
		return 0
	}
	return float64(squares) / (float64(total) * float64(total))
}

// ConcentrationPoint is one day's market concentration.
type ConcentrationPoint struct {
	Day simtime.Day
	HHI float64
	// Top1Share is the largest participant's share in percent.
	Top1Share float64
	// Participants is the number of distinct market participants.
	Participants int
}

func concentrationOf[K comparable](day simtime.Day, counts map[K]int) ConcentrationPoint {
	total := 0
	top := 0
	for _, n := range counts {
		total += n
		if n > top {
			top = n
		}
	}
	p := ConcentrationPoint{Day: day, HHI: HHI(counts), Participants: len(counts)}
	if total > 0 {
		p.Top1Share = 100 * float64(top) / float64(total)
	}
	return p
}

// HostingConcentration computes HHI over hosting ASNs per day.
func (a *Analyzer) HostingConcentration(days []simtime.Day, filter Filter) []ConcentrationPoint {
	series := a.ASNShareSeries(days, filter)
	out := make([]ConcentrationPoint, len(series))
	for i, p := range series {
		out[i] = concentrationOf(p.Day, p.Counts)
	}
	return out
}

// CAConcentration computes the CA market's HHI per period from the CT
// log — the §6 "near-complete control Let's Encrypt holds" claim, as a
// number.
func CAConcentration(log *ct.Log) []ConcentrationPoint {
	periods := IssuanceByPeriod(log)
	out := make([]ConcentrationPoint, 0, len(periods))
	// Anchor each period's point at its first day.
	anchors := map[simtime.Period]simtime.Day{
		simtime.PreConflict:   simtime.CTWindowStart,
		simtime.PreSanctions:  simtime.ConflictStart,
		simtime.PostSanctions: simtime.SanctionsInEffect,
	}
	for _, p := range periods {
		counts := make(map[string]int, len(p.Issuers))
		for _, ic := range p.Issuers {
			counts[ic.Org] = ic.Count
		}
		out = append(out, concentrationOf(anchors[p.Period], counts))
	}
	return out
}

// MailConcentration computes HHI over mail-operator zones per day
// (requires the CollectMX extension).
func (a *Analyzer) MailConcentration(days []simtime.Day, filter Filter) []ConcentrationPoint {
	series := a.MailProviderSeries(days, filter)
	out := make([]ConcentrationPoint, len(series))
	for i, p := range series {
		out[i] = concentrationOf(p.Day, p.Counts)
	}
	return out
}
