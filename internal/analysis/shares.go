package analysis

import (
	"sort"

	"whereru/internal/dns"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// TLDSharePoint is one day of Figure 3: for each TLD, the share of
// domains that delegate to at least one name server under it. Shares
// overlap (a domain with ns1.foo.ru and ns2.bar.com counts for both), so
// they do not sum to 100%.
type TLDSharePoint struct {
	Day    simtime.Day
	Total  int
	Counts map[string]int
}

// Share returns the percentage of domains using the TLD that day.
func (p TLDSharePoint) Share(tld string) float64 { return pct(p.Counts[tld], p.Total) }

// TLDShare returns the Figure 3 accumulator: among delegated domains,
// how many use at least one name server under each TLD.
func (a *Analyzer) TLDShare(filter Filter) *Accumulator[TLDSharePoint] {
	return newAccumulator(filter, nil,
		func(_ simtime.Day, cfg store.Config, keys []colKey) []colKey {
			if cfg.Failed || len(cfg.NSHosts) == 0 {
				return keys
			}
			keys = append(keys, colKey{kind: colTotal})
			for _, host := range cfg.NSHosts {
				keys = uniqueAppend(keys, colKey{name: dns.TLD(host)})
			}
			return keys
		},
		func(days []simtime.Day, _ []bool, c columns) []TLDSharePoint {
			counts := countsBy(c, len(days), func(k colKey) string { return k.name })
			total := c.col(colKey{kind: colTotal})
			out := make([]TLDSharePoint, 0, len(days))
			for i, day := range days {
				out = append(out, TLDSharePoint{Day: day, Total: total[i], Counts: counts[i]})
			}
			return out
		})
}

// TLDShareSeries computes Figure 3's underlying series for all TLDs.
func (a *Analyzer) TLDShareSeries(days []simtime.Day, filter Filter) []TLDSharePoint {
	return cold(a, days, filter, (*Analyzer).TLDShare)
}

// TopTLDs ranks TLDs by their share on the final day of the series
// (how the paper picks its "Top 5 TLDs out of 270").
func TopTLDs(series []TLDSharePoint, k int) []string {
	if len(series) == 0 {
		return nil
	}
	last := series[len(series)-1]
	tlds := make([]string, 0, len(last.Counts))
	for tld := range last.Counts {
		tlds = append(tlds, tld)
	}
	sort.Slice(tlds, func(i, j int) bool {
		ci, cj := last.Counts[tlds[i]], last.Counts[tlds[j]]
		if ci != cj {
			return ci > cj
		}
		return tlds[i] < tlds[j]
	})
	if k > len(tlds) {
		k = len(tlds)
	}
	return tlds[:k]
}

// ASNSharePoint is one day of Figure 4: the share of domains whose apex
// resolves into each hosting network.
type ASNSharePoint struct {
	Day    simtime.Day
	Total  int
	Counts map[netsim.ASN]int
}

// Share returns the percentage of domains hosted in the ASN that day.
func (p ASNSharePoint) Share(asn netsim.ASN) float64 { return pct(p.Counts[asn], p.Total) }

// ASNShare returns the Figure 4 accumulator: among resolvable domains,
// how many have at least one apex A record originated by each ASN.
func (a *Analyzer) ASNShare(filter Filter) *Accumulator[ASNSharePoint] {
	return newAccumulator(filter, nil,
		func(_ simtime.Day, cfg store.Config, keys []colKey) []colKey {
			if cfg.Failed {
				return keys
			}
			keys = append(keys, colKey{kind: colTotal})
			for _, addr := range cfg.ApexAddrs {
				if asn, ok := a.Internet.OriginAS(addr); ok {
					keys = uniqueAppend(keys, colKey{num: uint32(asn)})
				}
			}
			return keys
		},
		func(days []simtime.Day, _ []bool, c columns) []ASNSharePoint {
			counts := countsBy(c, len(days), func(k colKey) netsim.ASN { return netsim.ASN(k.num) })
			total := c.col(colKey{kind: colTotal})
			out := make([]ASNSharePoint, 0, len(days))
			for i, day := range days {
				out = append(out, ASNSharePoint{Day: day, Total: total[i], Counts: counts[i]})
			}
			return out
		})
}

// ASNShareSeries computes Figure 4's series for the given days.
func (a *Analyzer) ASNShareSeries(days []simtime.Day, filter Filter) []ASNSharePoint {
	return cold(a, days, filter, (*Analyzer).ASNShare)
}
