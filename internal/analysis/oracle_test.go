package analysis

import (
	"context"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"whereru/internal/dns"
	"whereru/internal/netsim"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// The shipped code computes every series with accumulators, so the
// fold-vs-cold suite alone would only show that the two feeders agree,
// not that the definitions are right. The oracles in this file judge the
// definitions: one forEachAt walk per requested day, the route
// oracle asked directly for every address, plain per-day maps and sorted
// latency lists — no memo caches, no version windows, no difference
// columns, no histogram. The reference* series (equivalence_test.go's
// judges, and the naive side of the series ablation) close the file.

// forEachAt is the oracles' per-day walk over the live store: every
// domain measured on day (Store.MeasuredOn) with its configuration then
// (Store.At), in sorted order.
func forEachAt(st *store.Store, day simtime.Day, fn func(domain string, cfg store.Config)) {
	for _, domain := range st.Domains() {
		if st.MeasuredOn(domain, day) {
			cfg, _ := st.At(domain, day)
			fn(domain, cfg)
		}
	}
}

// oracleRoute asks the analyzer's oracle directly; without one every
// address is reachable at zero latency.
func oracleRoute(a *Analyzer, day simtime.Day, addr netip.Addr) (time.Duration, bool) {
	if a.Routes == nil {
		return 0, true
	}
	return a.Routes.Route(day, addr)
}

// oracleOrigin resolves an address to its (ASN, country) in the address
// plan.
func oracleOrigin(a *Analyzer, addr netip.Addr) (asn netsim.ASN, country string, known bool) {
	asn, known = a.Internet.OriginAS(addr)
	if !known {
		return 0, "", false
	}
	if as, ok := a.Internet.Lookup(asn); ok {
		country = as.Country
	}
	return asn, country, true
}

func oracleSwept(a *Analyzer, day simtime.Day) bool {
	for _, d := range a.Store.Sweeps() {
		if d == day {
			return true
		}
	}
	return false
}

func oracleReachability(a *Analyzer, days []simtime.Day, filter Filter) []ReachPoint {
	out := make([]ReachPoint, 0, len(days))
	for _, day := range days {
		p := ReachPoint{Day: day, Interpolated: !oracleSwept(a, day)}
		// country/ASN -> [domains touching it, of which with a routed address there]
		countries := map[string]*[2]int{}
		asns := map[netsim.ASN]*[2]int{}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if (filter != nil && !filter(domain)) || len(cfg.NSAddrs) == 0 {
				return
			}
			p.Total++
			reachable := false
			inCountry, inASN := map[string]bool{}, map[netsim.ASN]bool{}
			for _, addr := range cfg.NSAddrs {
				_, ok := oracleRoute(a, day, addr)
				reachable = reachable || ok
				asn, country, known := oracleOrigin(a, addr)
				if !known {
					continue
				}
				if country != "" {
					inCountry[country] = inCountry[country] || ok
				}
				inASN[asn] = inASN[asn] || ok
			}
			if reachable {
				p.Reachable++
			} else {
				p.Unreachable++
			}
			for country, ok := range inCountry {
				if countries[country] == nil {
					countries[country] = &[2]int{}
				}
				countries[country][0]++
				if ok {
					countries[country][1]++
				}
			}
			for asn, ok := range inASN {
				if asns[asn] == nil {
					asns[asn] = &[2]int{}
				}
				asns[asn][0]++
				if ok {
					asns[asn][1]++
				}
			}
		})
		for country, n := range countries {
			p.Countries = append(p.Countries, CountryReach{Country: country, Total: n[0], Reachable: n[1]})
		}
		sort.Slice(p.Countries, func(i, j int) bool { return p.Countries[i].Country < p.Countries[j].Country })
		for asn, n := range asns {
			p.ASNs = append(p.ASNs, ASNReach{ASN: asn, Total: n[0], Reachable: n[1]})
		}
		sort.Slice(p.ASNs, func(i, j int) bool { return p.ASNs[i].ASN < p.ASNs[j].ASN })
		out = append(out, p)
	}
	return out
}

// oracleBucketBound rounds a latency up to the next power-of-two
// microsecond bound (capped at 2^23 µs), the resolution the series
// reports quantiles at.
func oracleBucketBound(d time.Duration) time.Duration {
	bound := int64(1)
	for n := 0; n < 23 && d.Microseconds() > bound; n++ {
		bound *= 2
	}
	return time.Duration(bound) * time.Microsecond
}

// oracleQuantile is the nearest-rank quantile of the observations (rank
// floor(q·n), at least 1); 0 when there are none.
func oracleQuantile(obs []time.Duration, q float64) time.Duration {
	if len(obs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q * float64(len(sorted)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func oracleRouteLatency(a *Analyzer, days []simtime.Day, filter Filter) []RouteLatencyPoint {
	out := make([]RouteLatencyPoint, 0, len(days))
	for _, day := range days {
		var all []time.Duration
		byCountry := map[string][]time.Duration{}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			best, routed := time.Duration(0), false
			inCountry := map[string]bool{}
			for _, addr := range cfg.NSAddrs {
				lat, ok := oracleRoute(a, day, addr)
				if !ok {
					continue
				}
				if !routed || lat < best {
					best, routed = lat, true
				}
				if _, country, known := oracleOrigin(a, addr); known && country != "" {
					inCountry[country] = true
				}
			}
			if !routed {
				return
			}
			obs := oracleBucketBound(best)
			all = append(all, obs)
			for country := range inCountry {
				byCountry[country] = append(byCountry[country], obs)
			}
		})
		p := RouteLatencyPoint{Day: day, Interpolated: !oracleSwept(a, day), Domains: len(all),
			P50: oracleQuantile(all, 0.50), P90: oracleQuantile(all, 0.90), P99: oracleQuantile(all, 0.99)}
		for country, obs := range byCountry {
			p.Countries = append(p.Countries, CountryLatency{Country: country, Domains: len(obs),
				P50: oracleQuantile(obs, 0.50), P90: oracleQuantile(obs, 0.90), P99: oracleQuantile(obs, 0.99)})
		}
		sort.Slice(p.Countries, func(i, j int) bool { return p.Countries[i].Country < p.Countries[j].Country })
		out = append(out, p)
	}
	return out
}

func oracleSweepCounts(a *Analyzer, days []simtime.Day, filter Filter) []SweepCount {
	out := make([]SweepCount, 0, len(days))
	for _, day := range days {
		c := SweepCount{Day: day}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			c.Measured++
			switch {
			case cfg.Failed:
				c.Failed++
			case len(cfg.NSHosts) == 0:
				c.NXDomain++
			case len(cfg.NSAddrs) == 0:
				c.Unreachable++
			}
		})
		out = append(out, c)
	}
	return out
}

// assertOraclesEqual holds the three accumulator definitions to their
// oracles for every shard width.
func assertOraclesEqual(t *testing.T, label string, an *Analyzer, days []simtime.Day, filter Filter) {
	t.Helper()
	for _, workers := range equivWorkerCounts {
		an.Workers = workers
		for _, c := range []struct {
			name      string
			got, want interface{}
		}{
			{"Reachability", an.ReachabilitySeries(days, filter), oracleReachability(an, days, filter)},
			{"RouteLatency", an.RouteLatencySeries(days, filter), oracleRouteLatency(an, days, filter)},
			{"SweepCount", an.SweepCountSeries(days, filter), oracleSweepCounts(an, days, filter)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: %s (workers=%d) diverges from the per-day oracle\n got %+v\nwant %+v",
					label, c.name, workers, c.got, c.want)
			}
		}
	}
}

// scenarioAnalyzer collects a short study around the 2022 route events
// through the routed transport of the named scenario ("" = none) and
// returns the analyzer over it plus the sweep days.
func scenarioAnalyzer(t *testing.T, scenario string) (*Analyzer, []simtime.Day) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 20220224, Scale: 20000, RFShare: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	an := &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet}
	pipe := &openintel.Pipeline{
		Resolver: w.NewResolver(), Seeds: w.Registries, Clock: w.Clock(),
		Store: st, Workers: 4, CollectMX: true,
	}
	if scenario != "" {
		if err := w.ApplyScenario(scenario, nil); err != nil {
			t.Fatal(err)
		}
		view := w.RouteView()
		an.Routes, pipe.Routes = view, view
		pipe.Resolver = dns.NewResolver(w.RoutedTransport(), w.Roots())
	}
	days := openintel.Schedule(simtime.Date(2021, 12, 1), simtime.Date(2022, 4, 5), simtime.DenseWindowStart, 7)
	if _, err := pipe.Run(context.Background(), days); err != nil {
		t.Fatal(err)
	}
	return an, days
}

func TestRouteAndSweepSeriesMatchOracles(t *testing.T) {
	for _, scenario := range []string{"", world.ScenarioNetnodDepeering, world.ScenarioRUNETPartition} {
		an, sweeps := scenarioAnalyzer(t, scenario)
		// An unsorted axis: the sweeps back to front, then days no sweep
		// ran on — after the last, before the first, and the two days that
		// carry the 2022-03-01 sweep's configs past a route event (once a
		// sweep runs under the new routes, unreachable servers simply fail
		// to resolve and leave the series).
		var days []simtime.Day
		for i := len(sweeps) - 1; i >= 0; i-- {
			days = append(days, sweeps[i])
		}
		days = append(days, sweeps[len(sweeps)-1]+10, sweeps[0]-10,
			world.NetnodCutoffDay.Add(2), simtime.Date(2022, 3, 7))
		label := "scenario " + scenario
		assertOraclesEqual(t, label, an, days, nil)
		assertOraclesEqual(t, label, an, days, func(d string) bool { return len(d)%2 == 0 })
		if scenario == "" {
			continue
		}
		// The scenario must actually bite, or the comparison is vacuous.
		bites := false
		for _, p := range an.ReachabilitySeries(days, nil) {
			for _, c := range p.Countries {
				bites = bites || c.Reachable < c.Total
			}
		}
		if !bites {
			t.Errorf("%s: no day has a country with unreachable name servers", label)
		}
	}
}

// flipRoutes is a two-version oracle: before the flip day every address
// is reachable at a latency derived from it; from the flip day on, dark
// is unreachable.
type flipRoutes struct {
	flip simtime.Day
	dark netip.Addr
}

func (r flipRoutes) Version(day simtime.Day) int {
	if day >= r.flip {
		return 1
	}
	return 0
}

func (r flipRoutes) Route(day simtime.Day, addr netip.Addr) (time.Duration, bool) {
	if day >= r.flip && addr == r.dark {
		return 0, false
	}
	return time.Duration(addr.As4()[3]+1) * 3 * time.Millisecond, true
}

// TestRouteAndSweepSeriesOnHandcraftedGaps covers what a collected world
// rarely has: epochs with gaps, zone dropout and failed measurements
// straddling a route-version boundary, so one config's reachability and
// latency genuinely change mid-epoch.
func TestRouteAndSweepSeriesOnHandcraftedGaps(t *testing.T) {
	an, st, ru, us := unitAnalyzer(t)
	an.Routes = flipRoutes{flip: 50, dark: us}
	ruNS := store.Config{NSHosts: []string{"ns.a.ru."}, NSAddrs: []netip.Addr{ru}}
	usNS := store.Config{NSHosts: []string{"ns.b.com."}, NSAddrs: []netip.Addr{us}}
	mixed := store.Config{NSHosts: []string{"ns.a.ru.", "ns.b.com."}, NSAddrs: []netip.Addr{ru, us}}
	lame := store.Config{NSHosts: []string{"ns.gone.net."}}
	lives := map[string]map[simtime.Day]store.Config{
		"steady.ru.":  {10: mixed, 20: mixed, 30: mixed, 40: mixed, 60: mixed, 70: mixed},
		"gap.ru.":     {10: usNS, 40: usNS, 70: usNS},
		"dropout.ru.": {10: ruNS, 20: ruNS},
		"late.ru.":    {60: usNS, 70: ruNS},
		"flaky.ru.":   {10: usNS, 20: {Failed: true}, 30: lame, 60: {}, 70: usNS},
	}
	names := []string{"steady.ru.", "gap.ru.", "dropout.ru.", "late.ru.", "flaky.ru."}
	for _, day := range []simtime.Day{10, 20, 30, 40, 60, 70} {
		st.BeginSweep(day)
		for _, name := range names {
			if cfg, ok := lives[name][day]; ok {
				st.Add(store.Measurement{Domain: name, Day: day, Config: cfg})
			}
		}
	}
	probe := []simtime.Day{70, 5, 10, 15, 20, 25, 30, 40, 45, 49, 50, 55, 60, 65, 75}
	assertOraclesEqual(t, "handcrafted", an, probe, nil)
	assertOraclesEqual(t, "handcrafted", an, probe, func(d string) bool { return d != "steady.ru." })
}

// referenceSeries is the original per-day path: one full store walk per
// requested day. It is the equivalence oracle for the composition
// accumulators under the cold feeder and the naive side of the series
// ablation benchmarks.
func (a *Analyzer) referenceSeries(days []simtime.Day, filter Filter, classify func(simtime.Day, store.Config) Composition) []Point {
	out := make([]Point, 0, len(days))
	sweeps := a.Store.Sweeps()
	for _, day := range days {
		p := Point{Day: day, Interpolated: !sweptDay(sweeps, day)}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			p.Total++
			switch classify(day, cfg) {
			case CompFull:
				p.Full++
			case CompPart:
				p.Part++
			case CompNon:
				p.Non++
			default:
				p.Unknown++
			}
		})
		out = append(out, p)
	}
	return out
}

// referenceTLDShareSeries is the per-day reference path for Figure 3,
// kept as the equivalence oracle for the TLDShare accumulator under the
// cold feeder.
func (a *Analyzer) referenceTLDShareSeries(days []simtime.Day, filter Filter) []TLDSharePoint {
	out := make([]TLDSharePoint, 0, len(days))
	for _, day := range days {
		p := TLDSharePoint{Day: day, Counts: make(map[string]int)}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			if cfg.Failed || len(cfg.NSHosts) == 0 {
				return
			}
			p.Total++
			seen := map[string]bool{}
			for _, host := range cfg.NSHosts {
				tld := dns.TLD(host)
				if !seen[tld] {
					seen[tld] = true
					p.Counts[tld]++
				}
			}
		})
		out = append(out, p)
	}
	return out
}

// referenceASNShareSeries is the per-day reference path for Figure 4,
// kept as the equivalence oracle for the ASNShare accumulator under the
// cold feeder.
func (a *Analyzer) referenceASNShareSeries(days []simtime.Day, filter Filter) []ASNSharePoint {
	out := make([]ASNSharePoint, 0, len(days))
	for _, day := range days {
		p := ASNSharePoint{Day: day, Counts: make(map[netsim.ASN]int)}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			if cfg.Failed {
				return
			}
			p.Total++
			seen := map[netsim.ASN]bool{}
			for _, addr := range cfg.ApexAddrs {
				if asn, ok := a.Internet.OriginAS(addr); ok && !seen[asn] {
					seen[asn] = true
					p.Counts[asn]++
				}
			}
		})
		out = append(out, p)
	}
	return out
}

// referenceMailProviderSeries is the per-day reference path, kept as the
// equivalence oracle for the MailProvider accumulator under the cold
// feeder.
func (a *Analyzer) referenceMailProviderSeries(days []simtime.Day, filter Filter) []MailSharePoint {
	out := make([]MailSharePoint, 0, len(days))
	for _, day := range days {
		p := MailSharePoint{Day: day, Counts: make(map[string]int)}
		forEachAt(a.Store, day, func(domain string, cfg store.Config) {
			if filter != nil && !filter(domain) {
				return
			}
			if cfg.Failed {
				return
			}
			p.Total++
			if len(cfg.MXHosts) == 0 {
				return
			}
			p.WithMail++
			seen := map[string]bool{}
			for _, h := range cfg.MXHosts {
				z := MXZone(h)
				if !seen[z] {
					seen[z] = true
					p.Counts[z]++
				}
			}
		})
		out = append(out, p)
	}
	return out
}
