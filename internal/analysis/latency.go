package analysis

import (
	"slices"
	"sort"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// Relocation latency quantifies the paper's §6 observation that
// "virtually all of the impacted sites quickly found new providers":
// for the domains hosted in an exiting provider's network on the event
// day, how many days passed before each was first observed hosted
// elsewhere?

// LatencyReport is the distribution of relocation delays after a
// provider-exit event.
type LatencyReport struct {
	ASN   netsim.ASN
	Event simtime.Day
	// Relocated maps each relocated domain to the first sweep day it was
	// seen outside the ASN.
	Relocated int
	// StillThere counts domains never observed leaving by the end.
	StillThere int
	// Gone counts domains that dropped out of the zone instead.
	Gone int
	// Delays are the per-domain days-to-relocation, sorted ascending.
	Delays []int
}

// Percentile returns the p-th percentile delay in days (nearest-rank
// method; p in [0,100]). ok is false when nothing relocated.
func (r LatencyReport) Percentile(p float64) (int, bool) {
	if len(r.Delays) == 0 {
		return 0, false
	}
	rank := int(p/100*float64(len(r.Delays)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.Delays) {
		rank = len(r.Delays)
	}
	return r.Delays[rank-1], true
}

// Median returns the median delay.
func (r LatencyReport) Median() (int, bool) { return r.Percentile(50) }

// RelocationLatency measures, for every domain hosted in asn on the event
// day, the first post-event sweep on which it resolved outside the ASN.
// Granularity is bounded by the sweep cadence (the paper's daily data has
// day granularity; a 3-day schedule quantizes to 3 days). It runs on one
// store snapshot in the calling goroutine, over only the domains the
// snapshot's posting index lists for asn (asnMemo.hosts: every domain
// hosted there on the event day is one): one Lookup per domain, then a
// walk of an original domain's epochs over the later sweeps. The delays
// are sorted at the end.
func (a *Analyzer) RelocationLatency(asn netsim.ASN, event simtime.Day, until simtime.Day) LatencyReport {
	rep := LatencyReport{ASN: asn, Event: event}
	memo := a.hosting()
	snap, asns := memo.snap, memo.byID
	// The sweeps in (event, until]: the axis the epoch walk reports on.
	sweeps := snap.Sweeps()
	sweeps = sweeps[sort.Search(len(sweeps), func(k int) bool { return sweeps[k] > event }):]
	sweeps = sweeps[:sort.Search(len(sweeps), func(k int) bool { return sweeps[k] > until })]
	for _, i := range memo.hosts[asn] {
		id, measured, ok := snap.Lookup(int(i), event)
		if !ok || !measured || !slices.Contains(asns[id], asn) || snap.Config(id).Failed {
			continue
		}
		// An epoch reaches the walk only if a later sweep measured the
		// domain in it; the first such epoch resolving outside the ASN is
		// the relocation, dated by its first sweep.
		measuredLate, first := false, -1
		snap.EpochsIn(int(i), sweeps, func(id uint32, lo, _ int) bool {
			measuredLate = true
			if !snap.Config(id).Failed && !slices.Contains(asns[id], asn) {
				first = lo
			}
			return first < 0
		})
		switch {
		case first >= 0:
			rep.Delays = append(rep.Delays, sweeps[first].Sub(event))
		case measuredLate:
			rep.StillThere++
		default:
			rep.Gone++
		}
	}
	sort.Ints(rep.Delays)
	rep.Relocated = len(rep.Delays)
	return rep
}
