package analysis

import (
	"slices"
	"sort"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// Movement is the §3.4/Figures 6-7 analysis: comparing two measurement
// days, what happened to the domains hosted in one ASN.
type Movement struct {
	ASN  netsim.ASN
	From simtime.Day
	To   simtime.Day

	// Original is the number of domains resolving into the ASN on From.
	Original int
	// Remained still resolve into the ASN on To.
	Remained int
	// RelocatedOut resolve elsewhere on To.
	RelocatedOut int
	// Gone are no longer measured on To (left the zone).
	Gone int
	// RelocatedIn resolve into the ASN on To but were measured elsewhere
	// on From.
	RelocatedIn int
	// NewlyRegistered resolve into the ASN on To and were registered
	// after From (confirmed via whois, as the paper does with Cisco's
	// Whois API).
	NewlyRegistered int

	// OutDestinations counts where relocated-out domains went.
	OutDestinations map[netsim.ASN]int
	// InSources counts where relocated-in domains came from.
	InSources map[netsim.ASN]int
}

// RemainedPct returns Remained as a percentage of Original.
func (m Movement) RemainedPct() float64 { return pct(m.Remained, m.Original) }

// RelocatedPct returns RelocatedOut as a percentage of Original.
func (m Movement) RelocatedPct() float64 { return pct(m.RelocatedOut, m.Original) }

// TopDestinations returns the relocation destinations by volume.
func (m Movement) TopDestinations(k int) []netsim.ASN {
	return topASNs(m.OutDestinations, k)
}

func topASNs(counts map[netsim.ASN]int, k int) []netsim.ASN {
	asns := make([]netsim.ASN, 0, len(counts))
	for a := range counts {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool {
		if counts[asns[i]] != counts[asns[j]] {
			return counts[asns[i]] > counts[asns[j]]
		}
		return asns[i] < asns[j]
	})
	if k > len(asns) {
		k = len(asns)
	}
	return asns[:k]
}

// Whois resolves a name's registration day — all MovementAnalysis reads
// of a whois record; registry.Group satisfies it. Implementations must be
// safe for concurrent use: MovementAnalysis calls it from its shard
// workers.
type Whois interface {
	Created(name string) (simtime.Day, bool)
}

// MovementAnalysis compares hosting between two sweep days for one ASN:
// one pass over a store snapshot's domains, sharded across workers, each
// domain costing two Snapshot.Lookups and membership scans of its
// configs' origin-AS lists (configASNs). Per-shard partial Movements
// merge by addition, so the result is deterministic.
func (a *Analyzer) MovementAnalysis(asn netsim.ASN, from, to simtime.Day, whois Whois) Movement {
	m := Movement{
		ASN: asn, From: from, To: to,
		OutDestinations: make(map[netsim.ASN]int),
		InSources:       make(map[netsim.ASN]int),
	}
	snap := a.Store.Snapshot()
	asns := a.configASNs(snap)
	// hosted reports whether a lookup found the domain measured, resolving,
	// and with an apex address in asn.
	hosted := func(id uint32, measured, ok bool) bool {
		return ok && measured && slices.Contains(asns[id], asn) && !snap.Config(id).Failed
	}
	shards := make([]Movement, a.workers())
	used := a.shard(snap.NumDomains(), func(shard, lo, hi int) {
		sm := &shards[shard]
		sm.OutDestinations = make(map[netsim.ASN]int)
		sm.InSources = make(map[netsim.ASN]int)
		for i := lo; i < hi; i++ {
			idFrom, measuredFrom, okFrom := snap.Lookup(i, from)
			idTo, measuredTo, okTo := snap.Lookup(i, to)
			original := hosted(idFrom, measuredFrom, okFrom)
			inASN := hosted(idTo, measuredTo, okTo)
			switch {
			case original && inASN:
				sm.Original++
				sm.Remained++
			case original:
				sm.Original++
				if !okTo || !measuredTo || snap.Config(idTo).Failed {
					sm.Gone++
					continue
				}
				sm.RelocatedOut++
				for _, dest := range asns[idTo] {
					sm.OutDestinations[dest]++
				}
			case inASN:
				// Incomer: newly registered or relocated in.
				if created, ok := whois.Created(snap.Domains()[i]); ok && created > from {
					sm.NewlyRegistered++
					continue
				}
				sm.RelocatedIn++
				// Where it came from: the configuration it carried into From,
				// whether or not it was still measured (or resolving) then.
				if okFrom {
					for _, src := range asns[idFrom] {
						sm.InSources[src]++
					}
				}
			}
		}
	})
	for s := 0; s < used; s++ {
		sm := &shards[s]
		m.Original += sm.Original
		m.Remained += sm.Remained
		m.RelocatedOut += sm.RelocatedOut
		m.Gone += sm.Gone
		m.RelocatedIn += sm.RelocatedIn
		m.NewlyRegistered += sm.NewlyRegistered
		for k, v := range sm.OutDestinations {
			m.OutDestinations[k] += v
		}
		for k, v := range sm.InSources {
			m.InSources[k] += v
		}
	}
	return m
}
