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
	// after From (the registry's creation day, which the paper reads from
	// Cisco's Whois API).
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

// Whois resolves a name's registration day, the one field of a whois
// record the paper reads; registry.Group satisfies it. Implementations
// must be safe for concurrent use: concurrent movement requests share one.
type Whois interface {
	Created(name string) (simtime.Day, bool)
}

// MovementAnalysis compares hosting between two sweep days for one ASN on
// one store snapshot, in the calling goroutine. It walks only the domains
// the snapshot's posting index lists for asn (asnMemo.hosts), each costing
// two Snapshot.Lookups and membership scans of its configs' origin-AS
// lists. That is exact: a domain counts only if asn hosts the config it
// carried into From or the one it carried into To, and both are epochs of
// the domain, so every domain that can count is on the list.
func (a *Analyzer) MovementAnalysis(asn netsim.ASN, from, to simtime.Day, whois Whois) Movement {
	m := Movement{
		ASN: asn, From: from, To: to,
		OutDestinations: make(map[netsim.ASN]int),
		InSources:       make(map[netsim.ASN]int),
	}
	memo := a.hosting()
	snap, asns := memo.snap, memo.byID
	// hosted reports whether a lookup found the domain measured, resolving,
	// and with an apex address in asn.
	hosted := func(id uint32, measured, ok bool) bool {
		return ok && measured && slices.Contains(asns[id], asn) && !snap.Config(id).Failed
	}
	for _, i := range memo.hosts[asn] {
		idFrom, measuredFrom, okFrom := snap.Lookup(int(i), from)
		idTo, measuredTo, okTo := snap.Lookup(int(i), to)
		original := hosted(idFrom, measuredFrom, okFrom)
		inASN := hosted(idTo, measuredTo, okTo)
		switch {
		case original && inASN:
			m.Original++
			m.Remained++
		case original:
			m.Original++
			if !okTo || !measuredTo || snap.Config(idTo).Failed {
				m.Gone++
				continue
			}
			m.RelocatedOut++
			for _, dest := range asns[idTo] {
				m.OutDestinations[dest]++
			}
		case inASN:
			// Incomer: newly registered or relocated in.
			if created, ok := whois.Created(snap.Domains()[i]); ok && created > from {
				m.NewlyRegistered++
				continue
			}
			m.RelocatedIn++
			// Where it came from: the configuration it carried into From,
			// whether or not it was still measured (or resolving) then.
			if okFrom {
				for _, src := range asns[idFrom] {
					m.InSources[src]++
				}
			}
		}
	}
	return m
}
