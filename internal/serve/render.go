// render.go converts the analysis layer's result types into the API's
// JSON documents. Every renderer takes the exact structs the text
// report renders (analysis.Point with its Interpolated gap flag,
// TLDSharePoint, ASNSharePoint, Movement, PeriodIssuance, RevocationRow,
// Timeline), so the JSON API and `whereru`'s stdout report can never
// disagree about the data — they are two serializations of one value.
//
// simtime.Day implements encoding.TextMarshaler, so days appear as
// ISO-8601 strings ("2022-02-24") both as values and as map keys, and
// integer-keyed maps (ASN counts) serialize with json's deterministic
// sorted keys — repeated renders of the same result are byte-identical,
// which is what makes the strong ETags sound.
package serve

import (
	"sort"

	"whereru/internal/analysis"
	"whereru/internal/core"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// compositionPoint is one day of a composition series (Figures 1/2/5,
// hosting): the classified counts plus the percentages the figures plot.
type compositionPoint struct {
	Day          simtime.Day `json:"day"`
	Full         int         `json:"full"`
	Part         int         `json:"part"`
	Non          int         `json:"non"`
	Unknown      int         `json:"unknown"`
	Total        int         `json:"total"`
	FullPct      float64     `json:"full_pct"`
	PartPct      float64     `json:"part_pct"`
	NonPct       float64     `json:"non_pct"`
	Interpolated bool        `json:"interpolated,omitempty"`
}

// compositionDoc is a composition-series response.
type compositionDoc struct {
	Figure      int                `json:"figure,omitempty"`
	Endpoint    string             `json:"endpoint,omitempty"`
	Title       string             `json:"title"`
	Generation  uint64             `json:"generation"`
	MissingDays []simtime.Day      `json:"missing_days,omitempty"`
	Series      []compositionPoint `json:"series"`
}

func renderComposition(series []analysis.Point) []compositionPoint {
	out := make([]compositionPoint, 0, len(series))
	for _, p := range series {
		out = append(out, compositionPoint{
			Day: p.Day, Full: p.Full, Part: p.Part, Non: p.Non,
			Unknown: p.Unknown, Total: p.Total,
			FullPct: p.FullPct(), PartPct: p.PartPct(), NonPct: p.NonPct(),
			Interpolated: p.Interpolated,
		})
	}
	return out
}

// tldSharePoint is one day of Figure 3. Counts overlap (a domain using
// name servers under two TLDs counts for both), exactly as in the text
// chart.
type tldSharePoint struct {
	Day    simtime.Day        `json:"day"`
	Total  int                `json:"total"`
	Counts map[string]int     `json:"counts"`
	Shares map[string]float64 `json:"shares"`
}

type tldShareDoc struct {
	Figure      int             `json:"figure"`
	Title       string          `json:"title"`
	Generation  uint64          `json:"generation"`
	TopTLDs     []string        `json:"top_tlds"`
	MissingDays []simtime.Day   `json:"missing_days,omitempty"`
	Series      []tldSharePoint `json:"series"`
}

func renderTLDShares(series []analysis.TLDSharePoint, top []string) []tldSharePoint {
	out := make([]tldSharePoint, 0, len(series))
	for _, p := range series {
		shares := make(map[string]float64, len(top))
		for _, tld := range top {
			shares[tld] = p.Share(tld)
		}
		out = append(out, tldSharePoint{Day: p.Day, Total: p.Total, Counts: p.Counts, Shares: shares})
	}
	return out
}

// asnSharePoint is one day of Figure 4.
type asnSharePoint struct {
	Day    simtime.Day        `json:"day"`
	Total  int                `json:"total"`
	Counts map[netsim.ASN]int `json:"counts"`
}

type asnLabel struct {
	ASN  netsim.ASN `json:"asn"`
	Name string     `json:"name"`
}

type asnShareDoc struct {
	Figure      int             `json:"figure"`
	Title       string          `json:"title"`
	Generation  uint64          `json:"generation"`
	Plotted     []asnLabel      `json:"plotted"`
	MissingDays []simtime.Day   `json:"missing_days,omitempty"`
	Series      []asnSharePoint `json:"series"`
}

func renderASNShares(series []analysis.ASNSharePoint) []asnSharePoint {
	out := make([]asnSharePoint, 0, len(series))
	for _, p := range series {
		out = append(out, asnSharePoint{Day: p.Day, Total: p.Total, Counts: p.Counts})
	}
	return out
}

// caTimeline is one CA's Figure 8 row; active days are a sorted list.
type caTimeline struct {
	Org        string        `json:"org"`
	Total      int           `json:"total"`
	LastActive simtime.Day   `json:"last_active"`
	ActiveDays []simtime.Day `json:"active_days"`
}

type caTimelineDoc struct {
	Figure     int          `json:"figure"`
	Title      string       `json:"title"`
	Generation uint64       `json:"generation"`
	WindowFrom simtime.Day  `json:"window_from"`
	WindowTo   simtime.Day  `json:"window_to"`
	Timelines  []caTimeline `json:"timelines"`
}

func renderTimelines(timelines []analysis.Timeline) []caTimeline {
	out := make([]caTimeline, 0, len(timelines))
	for _, tl := range timelines {
		days := make([]simtime.Day, 0, len(tl.ActiveDays))
		for d := range tl.ActiveDays {
			days = append(days, d)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		out = append(out, caTimeline{Org: tl.Org, Total: tl.Total, LastActive: tl.LastActive, ActiveDays: days})
	}
	return out
}

// issuerShare is one CA within a Table 1 period.
type issuerShare struct {
	Org      string  `json:"org"`
	Count    int     `json:"count"`
	SharePct float64 `json:"share_pct"`
}

// issuanceRow is one period row of Table 1. PerDayPaper rescales to the
// paper's population (count × scale), mirroring the text table.
type issuanceRow struct {
	Period      string        `json:"period"`
	Days        int           `json:"days"`
	Total       int           `json:"total"`
	PerDay      float64       `json:"per_day"`
	PerDayPaper float64       `json:"per_day_paper"`
	Issuers     []issuerShare `json:"issuers"`
}

type table1Doc struct {
	Table      int           `json:"table"`
	Title      string        `json:"title"`
	Generation uint64        `json:"generation"`
	Scale      int           `json:"scale"`
	Rows       []issuanceRow `json:"rows"`
}

func renderTable1(periods []analysis.PeriodIssuance, scale int) []issuanceRow {
	out := make([]issuanceRow, 0, len(periods))
	for _, p := range periods {
		issuers := make([]issuerShare, 0, len(p.Issuers))
		for _, ic := range p.Issuers {
			issuers = append(issuers, issuerShare{Org: ic.Org, Count: ic.Count, SharePct: p.Share(ic.Org)})
		}
		out = append(out, issuanceRow{
			Period: p.Period.String(), Days: p.Days, Total: p.Total,
			PerDay: p.PerDay(), PerDayPaper: p.PerDay() * float64(scale),
			Issuers: issuers,
		})
	}
	return out
}

// revocationRow is one CA row of Table 2.
type revocationRow struct {
	Org            string  `json:"org"`
	Issued         int     `json:"issued"`
	Revoked        int     `json:"revoked"`
	RevokedPct     float64 `json:"revoked_pct"`
	SancIssued     int     `json:"sanc_issued"`
	SancRevoked    int     `json:"sanc_revoked"`
	SancRevokedPct float64 `json:"sanc_revoked_pct"`
}

type table2Doc struct {
	Table      int             `json:"table"`
	Title      string          `json:"title"`
	Generation uint64          `json:"generation"`
	Rows       []revocationRow `json:"rows"`
}

func renderTable2(rows []analysis.RevocationRow) []revocationRow {
	out := make([]revocationRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, revocationRow{
			Org: r.Org, Issued: r.Issued, Revoked: r.Revoked, RevokedPct: r.RevokedPct(),
			SancIssued: r.SancIssued, SancRevoked: r.SancRevoked, SancRevokedPct: r.SancRevokedPct(),
		})
	}
	return out
}

// movementDoc is the §3.4 movement analysis for one provider network.
type movementDoc struct {
	ASN             netsim.ASN         `json:"asn"`
	From            simtime.Day        `json:"from"`
	To              simtime.Day        `json:"to"`
	Generation      uint64             `json:"generation"`
	Original        int                `json:"original"`
	Remained        int                `json:"remained"`
	RemainedPct     float64            `json:"remained_pct"`
	RelocatedOut    int                `json:"relocated_out"`
	RelocatedPct    float64            `json:"relocated_pct"`
	Gone            int                `json:"gone"`
	RelocatedIn     int                `json:"relocated_in"`
	NewlyRegistered int                `json:"newly_registered"`
	OutDestinations map[netsim.ASN]int `json:"out_destinations"`
	InSources       map[netsim.ASN]int `json:"in_sources"`
	TopDestinations []netsim.ASN       `json:"top_destinations"`
}

func renderMovement(m analysis.Movement, gen uint64) movementDoc {
	return movementDoc{
		ASN: m.ASN, From: m.From, To: m.To, Generation: gen,
		Original: m.Original, Remained: m.Remained, RemainedPct: m.RemainedPct(),
		RelocatedOut: m.RelocatedOut, RelocatedPct: m.RelocatedPct(),
		Gone: m.Gone, RelocatedIn: m.RelocatedIn, NewlyRegistered: m.NewlyRegistered,
		OutDestinations: m.OutDestinations, InSources: m.InSources,
		TopDestinations: m.TopDestinations(5),
	}
}

// timelineEpoch is one configuration epoch of a domain, intersected
// with the sweep axis: From/To are the first and last sweep days the
// configuration was observed on, SweepsCovered how many sweeps that is.
type timelineEpoch struct {
	From          simtime.Day `json:"from"`
	To            simtime.Day `json:"to"`
	SweepsCovered int         `json:"sweeps_covered"`
	NSHosts       []string    `json:"ns_hosts,omitempty"`
	NSAddrs       []string    `json:"ns_addrs,omitempty"`
	ApexAddrs     []string    `json:"apex_addrs,omitempty"`
	MXHosts       []string    `json:"mx_hosts,omitempty"`
	Failed        bool        `json:"failed,omitempty"`
}

type timelineDoc struct {
	Domain     string          `json:"domain"`
	Generation uint64          `json:"generation"`
	FirstSeen  simtime.Day     `json:"first_seen"`
	LastSeen   simtime.Day     `json:"last_seen"`
	Epochs     []timelineEpoch `json:"epochs"`
}

func renderTimelineEpoch(cfg store.Config, from, to simtime.Day, covered int) timelineEpoch {
	ep := timelineEpoch{
		From: from, To: to, SweepsCovered: covered,
		NSHosts: cfg.NSHosts, MXHosts: cfg.MXHosts, Failed: cfg.Failed,
	}
	for _, a := range cfg.NSAddrs {
		ep.NSAddrs = append(ep.NSAddrs, a.String())
	}
	for _, a := range cfg.ApexAddrs {
		ep.ApexAddrs = append(ep.ApexAddrs, a.String())
	}
	return ep
}

// countryReach is one country's slice of a reachability point: domains
// whose name-server set touches the country, and how many of them still
// have a routed address there.
type countryReach struct {
	Country      string  `json:"country"`
	Total        int     `json:"total"`
	Reachable    int     `json:"reachable"`
	ReachablePct float64 `json:"reachable_pct"`
}

// asnReach is the per-ASN analog of countryReach.
type asnReach struct {
	ASN       netsim.ASN `json:"asn"`
	Total     int        `json:"total"`
	Reachable int        `json:"reachable"`
}

// reachPoint is one day of the scenario reachability series.
type reachPoint struct {
	Day          simtime.Day    `json:"day"`
	Total        int            `json:"total"`
	Reachable    int            `json:"reachable"`
	Unreachable  int            `json:"unreachable"`
	ReachablePct float64        `json:"reachable_pct"`
	Countries    []countryReach `json:"countries,omitempty"`
	ASNs         []asnReach     `json:"asns,omitempty"`
	Interpolated bool           `json:"interpolated,omitempty"`
}

type reachabilityDoc struct {
	Endpoint    string        `json:"endpoint"`
	Title       string        `json:"title"`
	Scenario    string        `json:"scenario,omitempty"`
	Generation  uint64        `json:"generation"`
	MissingDays []simtime.Day `json:"missing_days,omitempty"`
	Series      []reachPoint  `json:"series"`
}

func reachPct(reachable, total int) float64 {
	if total == 0 {
		return 100
	}
	return 100 * float64(reachable) / float64(total)
}

func renderReachability(series []analysis.ReachPoint) []reachPoint {
	out := make([]reachPoint, 0, len(series))
	for _, p := range series {
		rp := reachPoint{
			Day: p.Day, Total: p.Total, Reachable: p.Reachable,
			Unreachable:  p.Unreachable,
			ReachablePct: reachPct(p.Reachable, p.Total),
			Interpolated: p.Interpolated,
		}
		for _, c := range p.Countries {
			rp.Countries = append(rp.Countries, countryReach{
				Country: c.Country, Total: c.Total, Reachable: c.Reachable,
				ReachablePct: reachPct(c.Reachable, c.Total),
			})
		}
		for _, a := range p.ASNs {
			rp.ASNs = append(rp.ASNs, asnReach{ASN: a.ASN, Total: a.Total, Reachable: a.Reachable})
		}
		out = append(out, rp)
	}
	return out
}

// countryLatency is one country's latency quantiles (microseconds, the
// unit the sweeps endpoint already reports runtime latency in).
type countryLatency struct {
	Country string `json:"country"`
	Domains int    `json:"domains"`
	P50US   int64  `json:"p50_us"`
	P90US   int64  `json:"p90_us"`
	P99US   int64  `json:"p99_us"`
}

// routeLatencyPoint is one day of the simulated resolution-latency
// series (best routed name-server path per domain).
type routeLatencyPoint struct {
	Day          simtime.Day      `json:"day"`
	Domains      int              `json:"domains"`
	P50US        int64            `json:"p50_us"`
	P90US        int64            `json:"p90_us"`
	P99US        int64            `json:"p99_us"`
	Countries    []countryLatency `json:"countries,omitempty"`
	Interpolated bool             `json:"interpolated,omitempty"`
}

type routeLatencyDoc struct {
	Endpoint    string              `json:"endpoint"`
	Title       string              `json:"title"`
	Scenario    string              `json:"scenario,omitempty"`
	Generation  uint64              `json:"generation"`
	MissingDays []simtime.Day       `json:"missing_days,omitempty"`
	Series      []routeLatencyPoint `json:"series"`
}

func renderRouteLatency(series []analysis.RouteLatencyPoint) []routeLatencyPoint {
	out := make([]routeLatencyPoint, 0, len(series))
	for _, p := range series {
		lp := routeLatencyPoint{
			Day: p.Day, Domains: p.Domains,
			P50US: p.P50.Microseconds(), P90US: p.P90.Microseconds(), P99US: p.P99.Microseconds(),
			Interpolated: p.Interpolated,
		}
		for _, c := range p.Countries {
			lp.Countries = append(lp.Countries, countryLatency{
				Country: c.Country, Domains: c.Domains,
				P50US: c.P50.Microseconds(), P90US: c.P90.Microseconds(), P99US: c.P99.Microseconds(),
			})
		}
		out = append(out, lp)
	}
	return out
}

// outageEvent is one scheduled outage or route-event window.
type outageEvent struct {
	Key  string      `json:"key"`
	Kind string      `json:"kind"`
	From simtime.Day `json:"from"`
	To   simtime.Day `json:"to"`
	Days int         `json:"days"`
}

// outagesDoc is the /api/v1/outages response: every scheduled window in
// effect during collection — registry outages and, under a scenario, the
// route events — keyed and sorted exactly as OutageSchedule.Events
// returns them.
type outagesDoc struct {
	Endpoint   string        `json:"endpoint"`
	Generation uint64        `json:"generation"`
	Scenario   string        `json:"scenario,omitempty"`
	Events     []outageEvent `json:"events"`
}

func renderOutages(events []netsim.ScheduledEvent, scenario string, gen uint64) outagesDoc {
	doc := outagesDoc{
		Endpoint:   "outages",
		Generation: gen,
		Scenario:   scenario,
		Events:     make([]outageEvent, 0, len(events)),
	}
	for _, ev := range events {
		doc.Events = append(doc.Events, outageEvent{
			Key: ev.Key, Kind: ev.Kind,
			From: ev.Window.From, To: ev.Window.To, Days: ev.Window.Len(),
		})
	}
	return doc
}

// studyDoc is the /api/v1/study metadata document.
type studyDoc struct {
	Scale         int           `json:"scale"`
	Seed          int64         `json:"seed"`
	Generation    uint64        `json:"generation"`
	Domains       int           `json:"domains"`
	Sweeps        int           `json:"sweeps"`
	FirstSweep    simtime.Day   `json:"first_sweep,omitempty"`
	LastSweep     simtime.Day   `json:"last_sweep,omitempty"`
	MissingSweeps []simtime.Day `json:"missing_sweeps,omitempty"`
	CollectedMX   bool          `json:"collected_mx"`
	Endpoints     []string      `json:"endpoints"`
}

func renderStudy(st *core.Study, gen uint64) studyDoc {
	doc := studyDoc{
		Scale:         st.Scale(),
		Seed:          st.Opts.World.Seed,
		Generation:    gen,
		Domains:       st.Store.NumDomains(),
		CollectedMX:   st.Opts.CollectMX,
		MissingSweeps: st.Store.MissingSweeps(),
		Endpoints:     endpointList(),
	}
	sweeps := st.Store.Sweeps()
	doc.Sweeps = len(sweeps)
	if len(sweeps) > 0 {
		doc.FirstSweep = sweeps[0]
		doc.LastSweep = sweeps[len(sweeps)-1]
	}
	return doc
}

// sweepRow is one day on the collection axis. Measured days carry counts
// derived from the store's epochs — failed, NXDOMAIN and unreachable
// re-derive from each day's configs exactly as the sweep classified them
// — so a collected, a loaded and a followed server serve the same row.
type sweepRow struct {
	Day         simtime.Day `json:"day"`
	Missing     bool        `json:"missing,omitempty"`
	Domains     int         `json:"domains"`
	Failed      int         `json:"failed"`
	NXDomain    int         `json:"nxdomain"`
	Unreachable int         `json:"unreachable"`
}

// sweepsDoc is the /api/v1/sweeps response: every scheduled day, swept
// and missing, in day order.
type sweepsDoc struct {
	Endpoint    string     `json:"endpoint"`
	Generation  uint64     `json:"generation"`
	Sweeps      int        `json:"sweeps"`
	MissingDays int        `json:"missing_days"`
	Days        []sweepRow `json:"days"`
}
