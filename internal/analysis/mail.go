package analysis

import (
	"sort"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Mail-provider analysis (measurement extension). The paper's related
// work (Liu et al., "Who's Got Your Mail?", IMC '21) groups domains by
// the operator of their MX targets and shows Russia bucking the Western
// mail-centralization trend with heavily domestic providers. With the
// pipeline's CollectMX extension enabled, these analyses reproduce that
// view for the .ru/.рф population.

// MailSharePoint is one day of mail-provider shares: for each MX-target
// zone (the mail operator's domain, e.g. "yandex.net."), the share of
// domains-with-mail it serves.
type MailSharePoint struct {
	Day simtime.Day
	// WithMail is the number of measured domains publishing any MX.
	WithMail int
	// Total is the number of measured domains.
	Total int
	// Counts maps MX-target zone to the number of domains it serves.
	Counts map[string]int
}

// Share returns a mail zone's share of domains-with-mail, in percent.
func (p MailSharePoint) Share(zone string) float64 { return pct(p.Counts[zone], p.WithMail) }

// MXZone maps an MX host to its operator zone (the host minus its first
// label): mx.yandex.net. → yandex.net.
func MXZone(host string) string { return dns.Parent(dns.Canonical(host)) }

// MailProvider returns the mail-operator share accumulator: among
// resolvable domains, how many publish MX and which operator zones serve
// them.
func (a *Analyzer) MailProvider(filter Filter) *Accumulator[MailSharePoint] {
	return newAccumulator(filter, nil,
		func(_ simtime.Day, cfg store.Config, keys []colKey) []colKey {
			if cfg.Failed {
				return keys
			}
			keys = append(keys, colKey{kind: colTotal})
			if len(cfg.MXHosts) > 0 {
				keys = append(keys, colKey{kind: colWithMail})
			}
			for _, h := range cfg.MXHosts {
				keys = uniqueAppend(keys, colKey{name: MXZone(h)})
			}
			return keys
		},
		func(days []simtime.Day, _ []bool, c columns) []MailSharePoint {
			counts := countsBy(c, len(days), func(k colKey) string { return k.name })
			total, withMail := c.col(colKey{kind: colTotal}), c.col(colKey{kind: colWithMail})
			out := make([]MailSharePoint, 0, len(days))
			for i, day := range days {
				out = append(out, MailSharePoint{Day: day, Total: total[i], WithMail: withMail[i], Counts: counts[i]})
			}
			return out
		})
}

// MailProviderSeries computes per-day mail-operator shares.
func (a *Analyzer) MailProviderSeries(days []simtime.Day, filter Filter) []MailSharePoint {
	return cold(a, days, filter, (*Analyzer).MailProvider)
}

// TopMailZones ranks mail-operator zones on the final day of a series.
func TopMailZones(series []MailSharePoint, k int) []string {
	if len(series) == 0 {
		return nil
	}
	last := series[len(series)-1]
	zones := make([]string, 0, len(last.Counts))
	for z := range last.Counts {
		zones = append(zones, z)
	}
	sort.Slice(zones, func(i, j int) bool {
		if last.Counts[zones[i]] != last.Counts[zones[j]] {
			return last.Counts[zones[i]] > last.Counts[zones[j]]
		}
		return zones[i] < zones[j]
	})
	if k > len(zones) {
		k = len(zones)
	}
	return zones[:k]
}

// MailCompositionSeries classifies domains-with-mail by whether their MX
// targets geolocate to Russia (via the NS-address trick does not apply;
// MX targets are classified by operator-zone TLD as a proxy — the
// Liu-et-al methodology groups by operator, and operator country is the
// analyst's judgment; here Russian-TLD operator zones count as Russian).
func (a *Analyzer) MailCompositionSeries(days []simtime.Day, filter Filter) []Point {
	return cold(a, days, filter, func(a *Analyzer, filter Filter) *Accumulator[Point] {
		return a.composition(mailCompositionClassifier, filter)
	})
}

func mailCompositionClassifier(geoLookup) func(simtime.Day, store.Config) Composition {
	return func(_ simtime.Day, cfg store.Config) Composition {
		if cfg.Failed || len(cfg.MXHosts) == 0 {
			return CompUnknown
		}
		sawRU, sawOther := false, false
		for _, h := range cfg.MXHosts {
			if isRussianTLD(dns.TLD(h)) {
				sawRU = true
			} else {
				sawOther = true
			}
		}
		return classifyFlags(sawRU, sawOther)
	}
}
