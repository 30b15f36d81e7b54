package analysis

import (
	"net/netip"
	"time"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// This file defines the routing-scenario figures: per-day reachability
// of domain name-server infrastructure (overall, per country, per ASN)
// and simulated resolution-latency series, both driven by the AS-level
// route tables. Like the composition series they are accumulators: one
// route evaluation per (covered range × route-version window), so the
// output is byte-identical for any worker count and for either feeder.

// RouteOracle is the analysis-side routing dependency: per-day
// reachability and path latency for an address, plus the route-state
// version that lets the accumulators split the day axis (within one
// version every route decision is constant). netsim.RouteView satisfies it.
type RouteOracle interface {
	Route(day simtime.Day, addr netip.Addr) (time.Duration, bool)
	Version(day simtime.Day) int
}

// allReachable is the nil-Routes oracle: one version, every address
// reachable at zero latency. It keeps the series well-defined (and
// trivial) on studies without a scenario.
type allReachable struct{}

func (allReachable) Route(simtime.Day, netip.Addr) (time.Duration, bool) { return 0, true }
func (allReachable) Version(simtime.Day) int                             { return 0 }

// routes resolves the analyzer's oracle.
func (a *Analyzer) routes() RouteOracle {
	if a.Routes != nil {
		return a.Routes
	}
	return allReachable{}
}

// routeCache memoizes route decisions keyed by (route version, addr) and
// address origin metadata (static). Each accumulator owns one, like
// geoCache.
type routeCache struct {
	oracle RouteOracle
	net    *netsim.Internet
	memo   map[routeKey]routeVal
	origin map[netip.Addr]originVal
}

type routeKey struct {
	ver  int
	addr netip.Addr
}

type routeVal struct {
	lat time.Duration
	ok  bool
}

type originVal struct {
	asn     netsim.ASN
	country string
	known   bool
}

func newRouteCache(oracle RouteOracle, net *netsim.Internet) *routeCache {
	return &routeCache{
		oracle: oracle,
		net:    net,
		memo:   map[routeKey]routeVal{},
		origin: map[netip.Addr]originVal{},
	}
}

// route returns the memoized route decision for addr on day (ver is the
// day's route version, resolved by the caller once per window).
func (c *routeCache) route(ver int, day simtime.Day, addr netip.Addr) (time.Duration, bool) {
	k := routeKey{ver: ver, addr: addr}
	if v, hit := c.memo[k]; hit {
		return v.lat, v.ok
	}
	lat, ok := c.oracle.Route(day, addr)
	c.memo[k] = routeVal{lat: lat, ok: ok}
	return lat, ok
}

// originOf returns the (ASN, country) of an address per the address
// plan. Addresses outside the plan report known=false and are excluded
// from the per-country/per-ASN breakdowns.
func (c *routeCache) originOf(addr netip.Addr) originVal {
	if v, hit := c.origin[addr]; hit {
		return v
	}
	var v originVal
	if c.net != nil {
		if asn, ok := c.net.OriginAS(addr); ok {
			v.asn, v.known = asn, true
			if as, ok := c.net.Lookup(asn); ok {
				v.country = as.Country
			}
		}
	}
	c.origin[addr] = v
	return v
}

// CountryReach is one country's slice of a reachability point: how many
// measured domains have name-server addresses there, and for how many of
// them at least one such address has an AS path.
type CountryReach struct {
	Country   string
	Total     int
	Reachable int
}

// ASNReach is the per-ASN analog of CountryReach.
type ASNReach struct {
	ASN       netsim.ASN
	Total     int
	Reachable int
}

// ReachPoint is one day of the reachability series. A domain counts when
// its epoch carries at least one name-server address; it is Reachable
// when at least one of those addresses has an AS path from the vantage.
// The Countries/ASNs breakdowns attribute the domain to every country or
// ASN its name-server set touches (a dual-homed domain counts in both),
// sorted for deterministic serialization.
type ReachPoint struct {
	Day          simtime.Day
	Interpolated bool
	Total        int
	Reachable    int
	Unreachable  int
	Countries    []CountryReach
	ASNs         []ASNReach
}

// Reachability returns the reachability accumulator under the analyzer's
// route oracle. Without Routes every domain with name-server addresses
// is reachable.
func (a *Analyzer) Reachability(filter Filter) *Accumulator[ReachPoint] {
	oracle := a.routes()
	rc := newRouteCache(oracle, a.Internet)
	return newAccumulator(filter, oracle.Version,
		func(day simtime.Day, cfg store.Config, keys []colKey) []colKey {
			if len(cfg.NSAddrs) == 0 {
				return keys
			}
			ver := oracle.Version(day)
			keys = append(keys, colKey{kind: colTotal})
			anyReach := false
			for _, addr := range cfg.NSAddrs {
				_, ok := rc.route(ver, day, addr)
				anyReach = anyReach || ok
				o := rc.originOf(addr)
				if !o.known {
					continue
				}
				if o.country != "" {
					keys = uniqueAppend(keys, colKey{kind: colCountry, name: o.country})
					if ok {
						keys = uniqueAppend(keys, colKey{kind: colCountryReachable, name: o.country})
					}
				}
				keys = uniqueAppend(keys, colKey{kind: colASN, num: uint32(o.asn)})
				if ok {
					keys = uniqueAppend(keys, colKey{kind: colASNReachable, num: uint32(o.asn)})
				}
			}
			if anyReach {
				keys = append(keys, colKey{kind: colReachable})
			}
			return keys
		},
		func(days []simtime.Day, swept []bool, c columns) []ReachPoint {
			total, reach := c.col(colKey{kind: colTotal}), c.col(colKey{kind: colReachable})
			// Resolve each breakdown's column pair once, in output order.
			type breakdown struct {
				key              colKey
				total, reachable []int
			}
			breakdowns := func(kind, reachableKind uint8) []breakdown {
				var out []breakdown
				for _, k := range c.keys(kind) {
					out = append(out, breakdown{k, c.col(k), c.col(colKey{kind: reachableKind, name: k.name, num: k.num})})
				}
				return out
			}
			countries, asns := breakdowns(colCountry, colCountryReachable), breakdowns(colASN, colASNReachable)
			out := make([]ReachPoint, 0, len(days))
			for i, day := range days {
				p := ReachPoint{Day: day, Interpolated: !swept[i],
					Total: total[i], Reachable: reach[i], Unreachable: total[i] - reach[i]}
				for _, b := range countries {
					if b.total[i] > 0 {
						p.Countries = append(p.Countries, CountryReach{Country: b.key.name, Total: b.total[i], Reachable: b.reachable[i]})
					}
				}
				for _, b := range asns {
					if b.total[i] > 0 {
						p.ASNs = append(p.ASNs, ASNReach{ASN: netsim.ASN(b.key.num), Total: b.total[i], Reachable: b.reachable[i]})
					}
				}
				out = append(out, p)
			}
			return out
		})
}

// ReachabilitySeries computes per-day name-server reachability for the
// given days (any order).
func (a *Analyzer) ReachabilitySeries(days []simtime.Day, filter Filter) []ReachPoint {
	return cold(a, days, filter, (*Analyzer).Reachability)
}

// latencyBuckets is the histogram resolution of the route-latency
// series: power-of-two microsecond buckets, matching the pipeline's
// runtime latency histogram so the two views of latency are comparable.
const latencyBuckets = 24

// latencyBucket returns the bucket index for a duration.
func latencyBucket(d time.Duration) int {
	us := d.Microseconds()
	i := 0
	for i < latencyBuckets-1 && us > int64(1)<<i {
		i++
	}
	return i
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile observation of a merged histogram (0 when empty).
func bucketQuantile(counts *[latencyBuckets]int, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += uint64(c)
		if cum >= target {
			return time.Duration(int64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<(latencyBuckets-1)) * time.Microsecond
}

// CountryLatency is one country's slice of a latency point: quantiles of
// the best-path latency of domains whose name-server set touches it.
type CountryLatency struct {
	Country       string
	Domains       int
	P50, P90, P99 time.Duration
}

// RouteLatencyPoint is one day of the simulated resolution-latency
// series. A domain observes its best (minimum) routed path latency over
// its name-server addresses; domains with no routed address contribute
// nothing (their cost is visible in the reachability series instead).
type RouteLatencyPoint struct {
	Day           simtime.Day
	Interpolated  bool
	Domains       int
	P50, P90, P99 time.Duration
	Countries     []CountryLatency
}

// RouteLatency returns the resolution-latency accumulator under the
// analyzer's route oracle: one best-path-latency histogram per day,
// overall and per name-server country. Without Routes every latency is
// zero.
func (a *Analyzer) RouteLatency(filter Filter) *Accumulator[RouteLatencyPoint] {
	oracle := a.routes()
	rc := newRouteCache(oracle, a.Internet)
	return newAccumulator(filter, oracle.Version,
		func(day simtime.Day, cfg store.Config, keys []colKey) []colKey {
			ver := oracle.Version(day)
			best, routed := time.Duration(0), false
			for _, addr := range cfg.NSAddrs {
				lat, ok := rc.route(ver, day, addr)
				if !ok {
					continue
				}
				if !routed || lat < best {
					best, routed = lat, true
				}
				if o := rc.originOf(addr); o.known && o.country != "" {
					keys = uniqueAppend(keys, colKey{kind: colCountryBucket, name: o.country})
				}
			}
			if !routed {
				return keys[:0]
			}
			// The bucket is known only after the last address: the country
			// keys collected so far (keys arrives empty) are stamped with it.
			b := uint32(latencyBucket(best))
			for i := range keys {
				keys[i].num = b
			}
			return append(keys, colKey{num: b})
		},
		func(days []simtime.Day, swept []bool, c columns) []RouteLatencyPoint {
			hist := func(kind uint8, name string) (h [latencyBuckets][]int) {
				for b := range h {
					h[b] = c.col(colKey{kind: kind, name: name, num: uint32(b)})
				}
				return h
			}
			// at returns day i's histogram, its size and its quantiles.
			at := func(h *[latencyBuckets][]int, i int) (n int, p50, p90, p99 time.Duration) {
				var run [latencyBuckets]int
				for b := range run {
					run[b] = h[b][i]
					n += run[b]
				}
				return n, bucketQuantile(&run, 0.50), bucketQuantile(&run, 0.90), bucketQuantile(&run, 0.99)
			}
			all := hist(colKeyed, "")
			var countries []string
			var byCountry [][latencyBuckets][]int
			for _, k := range c.keys(colCountryBucket) {
				if len(countries) == 0 || countries[len(countries)-1] != k.name {
					countries = append(countries, k.name)
					byCountry = append(byCountry, hist(colCountryBucket, k.name))
				}
			}
			out := make([]RouteLatencyPoint, 0, len(days))
			for i, day := range days {
				p := RouteLatencyPoint{Day: day, Interpolated: !swept[i]}
				p.Domains, p.P50, p.P90, p.P99 = at(&all, i)
				for ci, country := range countries {
					cl := CountryLatency{Country: country}
					if cl.Domains, cl.P50, cl.P90, cl.P99 = at(&byCountry[ci], i); cl.Domains > 0 {
						p.Countries = append(p.Countries, cl)
					}
				}
				out = append(out, p)
			}
			return out
		})
}

// RouteLatencySeries computes per-day simulated resolution-latency
// quantiles for the given days (any order).
func (a *Analyzer) RouteLatencySeries(days []simtime.Day, filter Filter) []RouteLatencyPoint {
	return cold(a, days, filter, (*Analyzer).RouteLatency)
}
