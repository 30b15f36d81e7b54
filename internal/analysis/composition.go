// Package analysis implements the paper's analytical contribution: the
// longitudinal classification of Russian domain infrastructure. Given the
// measurement store (DNS sweeps), the geolocation database, the address
// plan, the CT log, revocation state and scan archive, it regenerates
// every figure and table in the paper:
//
//	Figure 1/5 — country composition of name-server infrastructure
//	Figure 2   — TLD-dependency composition of delegations
//	Figure 3   — top TLDs used by authoritative name servers
//	Figure 4   — hosting-network (ASN) shares
//	Figure 6/7 — domain movement between ASNs (Amazon, Sedo, …)
//	Figure 8   — CA issuance-activity timelines
//	Table 1    — issuance by period per CA
//	Table 2    — revocation activity, overall vs sanctioned
//	§4.3       — Russian Trusted Root CA impact
package analysis

import (
	"sync"
	"sync/atomic"

	"whereru/internal/dns"
	"whereru/internal/geo"
	"whereru/internal/idn"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Composition classifies a domain's infrastructure against Russia: Full
// means entirely inside, Non entirely outside, Part mixed. Unknown means
// the measurement had no usable data (failed resolution, no records).
type Composition int

// Composition values.
const (
	CompUnknown Composition = iota
	CompFull
	CompPart
	CompNon
)

// String names the composition the way the paper's figures do.
func (c Composition) String() string {
	switch c {
	case CompFull:
		return "Full Russian"
	case CompPart:
		return "Part Russian"
	case CompNon:
		return "Non Russian"
	default:
		return "Unknown"
	}
}

// classifyFlags folds per-record membership into a composition.
func classifyFlags(sawTarget, sawOther bool) Composition {
	switch {
	case sawTarget && sawOther:
		return CompPart
	case sawTarget:
		return CompFull
	case sawOther:
		return CompNon
	default:
		return CompUnknown
	}
}

// Analyzer binds the data sets the DNS analyses read.
type Analyzer struct {
	Store    *store.Store
	Geo      *geo.DB
	Internet *netsim.Internet
	// Routes is the AS-level routing oracle of a scenario run (nil when
	// no scenario is active: everything is reachable at zero latency).
	// The reachability and route-latency series consult it per (route
	// version, address), mirroring how the composition series consult
	// Geo.
	Routes RouteOracle
	// Workers is the analysis shard count (0 = GOMAXPROCS). Series are
	// computed by sharding the domain space over this many goroutines with
	// a deterministic merge, so the result is independent of the setting.
	Workers int

	// asns is the per-config origin-AS memo (configasns.go); asnMu
	// serialises its extension. An Analyzer must not be copied.
	asnMu sync.Mutex
	asns  atomic.Pointer[asnMemo]
}

// Point is one day of a composition series (Figures 1, 2, 5).
type Point struct {
	Day     simtime.Day
	Full    int
	Part    int
	Non     int
	Unknown int
	// Total is the number of measured domains that day (the figures'
	// black "#names" curve).
	Total int
	// Interpolated marks a day no sweep actually covered: the values are
	// carried forward from the last measurement rather than observed. The
	// paper's own figures contain such a region (the OpenINTEL outage,
	// footnote 8); flagging it keeps carry-forward from masquerading as
	// fresh data.
	Interpolated bool
}

// FullPct returns Full as a percentage of classified domains.
func (p Point) FullPct() float64 { return pct(p.Full, p.classified()) }

// PartPct returns Part as a percentage of classified domains.
func (p Point) PartPct() float64 { return pct(p.Part, p.classified()) }

// NonPct returns Non as a percentage of classified domains.
func (p Point) NonPct() float64 { return pct(p.Non, p.classified()) }

func (p Point) classified() int { return p.Full + p.Part + p.Non }

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Filter selects the domains an analysis runs over; nil selects all.
// Filters must be safe for concurrent use: the cold feeder calls them
// from its shard workers.
type Filter func(domain string) bool

// nsCompositionClassifier classifies a config by where its name-server
// addresses geolocate. The same classifier serves the accumulators (bound
// to a memoizing geoCache) and the reference path (bound to the raw DB).
func nsCompositionClassifier(g geoLookup) func(simtime.Day, store.Config) Composition {
	return func(day simtime.Day, cfg store.Config) Composition {
		if cfg.Failed || len(cfg.NSAddrs) == 0 {
			return CompUnknown
		}
		sawRU, sawOther := false, false
		for _, addr := range cfg.NSAddrs {
			if country, ok := g.Lookup(day, addr); ok && country == geo.RU {
				sawRU = true
			} else {
				sawOther = true
			}
		}
		return classifyFlags(sawRU, sawOther)
	}
}

// hostingCompositionClassifier classifies by apex-address geolocation.
func hostingCompositionClassifier(g geoLookup) func(simtime.Day, store.Config) Composition {
	return func(day simtime.Day, cfg store.Config) Composition {
		if cfg.Failed || len(cfg.ApexAddrs) == 0 {
			return CompUnknown
		}
		sawRU, sawOther := false, false
		for _, addr := range cfg.ApexAddrs {
			if country, ok := g.Lookup(day, addr); ok && country == geo.RU {
				sawRU = true
			} else {
				sawOther = true
			}
		}
		return classifyFlags(sawRU, sawOther)
	}
}

// tldDependencyClassifier classifies by the TLDs the name-server hosts
// are registered under (day- and geolocation-independent).
func tldDependencyClassifier(geoLookup) func(simtime.Day, store.Config) Composition {
	return func(_ simtime.Day, cfg store.Config) Composition {
		if cfg.Failed || len(cfg.NSHosts) == 0 {
			return CompUnknown
		}
		sawRU, sawOther := false, false
		for _, host := range cfg.NSHosts {
			if isRussianTLD(dns.TLD(host)) {
				sawRU = true
			} else {
				sawOther = true
			}
		}
		return classifyFlags(sawRU, sawOther)
	}
}

// composition is the one definition of a composition series: every
// measured domain counts toward Total and toward the class mk's
// classifier assigns its config, re-evaluated per geolocation version.
func (a *Analyzer) composition(mk classifierFor, filter Filter) *Accumulator[Point] {
	classify := mk(newGeoCache(a.Geo))
	var version func(simtime.Day) int
	if a.Geo != nil {
		version = a.Geo.Version
	}
	return newAccumulator(filter, version,
		func(day simtime.Day, cfg store.Config, keys []colKey) []colKey {
			return append(keys, colKey{kind: colTotal}, colKey{num: uint32(classify(day, cfg))})
		},
		func(days []simtime.Day, swept []bool, c columns) []Point {
			class := func(comp Composition) []int { return c.col(colKey{num: uint32(comp)}) }
			full, part, non, unknown := class(CompFull), class(CompPart), class(CompNon), class(CompUnknown)
			total := c.col(colKey{kind: colTotal})
			out := make([]Point, 0, len(days))
			for i, day := range days {
				out = append(out, Point{Day: day, Full: full[i], Part: part[i], Non: non[i],
					Unknown: unknown[i], Total: total[i], Interpolated: !swept[i]})
			}
			return out
		})
}

// NSComposition returns the Figure 1/5 accumulator: how many domains'
// authoritative name servers geolocate fully/partially/not to Russia.
func (a *Analyzer) NSComposition(filter Filter) *Accumulator[Point] {
	return a.composition(nsCompositionClassifier, filter)
}

// NSCompositionSeries computes Figure 1 (and, with a sanctioned-domain
// filter, Figure 5) for the given days.
func (a *Analyzer) NSCompositionSeries(days []simtime.Day, filter Filter) []Point {
	return cold(a, days, filter, (*Analyzer).NSComposition)
}

// HostingComposition returns the §3.1 hosting accumulator: domains
// classified by where their apex A records geolocate.
func (a *Analyzer) HostingComposition(filter Filter) *Accumulator[Point] {
	return a.composition(hostingCompositionClassifier, filter)
}

// HostingCompositionSeries computes the hosting breakdown for the given
// days.
func (a *Analyzer) HostingCompositionSeries(days []simtime.Day, filter Filter) []Point {
	return cold(a, days, filter, (*Analyzer).HostingComposition)
}

// TLDDependency returns the Figure 2 accumulator: whether each domain's
// name servers are registered entirely under Russian Federation TLDs
// (.ru, .su, .рф), partially, or not at all.
func (a *Analyzer) TLDDependency(filter Filter) *Accumulator[Point] {
	return a.composition(tldDependencyClassifier, filter)
}

// TLDDependencySeries computes Figure 2 for the given days.
func (a *Analyzer) TLDDependencySeries(days []simtime.Day, filter Filter) []Point {
	return cold(a, days, filter, (*Analyzer).TLDDependency)
}

// isRussianTLD reports whether a TLD label belongs to the Russian
// Federation (.ru, .рф as xn--p1ai, and legacy .su).
func isRussianTLD(tld string) bool {
	return tld == "ru" || tld == "su" || tld == idn.RFTLDASCII
}
