package world

import (
	"fmt"
	"strings"
	"time"

	"whereru/internal/dns"
	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// This file wires the AS-level routing model (netsim.Topology) into the
// world: a transit backbone connecting the provider ASes to the
// measurement vantage, two IXP fabrics (an MSK-IX analog for the RU side
// and a DE-CIX analog for the western side) plus Netnod's own fabric,
// and the built-in scenario catalog that turns the paper's event
// timeline into route events with reachability and latency consequences.

// Topology ASNs that exist only in the routing graph, not the address
// plan: the measurement platform's vantage AS and the two aggregate
// transit carriers. Values are from the private-use range so they can
// never collide with catalog providers.
const (
	// VantageASN is the measurement platform's origin AS — every route
	// decision is taken from its perspective.
	VantageASN netsim.ASN = 64496
	// EUTransitASN aggregates western transit.
	EUTransitASN netsim.ASN = 64500
	// RUTransitASN aggregates Russian domestic transit.
	RUTransitASN netsim.ASN = 64501
)

// IXP fabric names in the base topology.
const (
	// IXPMoscow is the MSK-IX analog: RU providers plus both transit
	// carriers (the EU carrier is a remote peer — the link the RU-IXP
	// isolation scenario withdraws).
	IXPMoscow = "MSK-IX"
	// IXPStockholm is Netnod's own fabric, where dns-ru.netnod.su peers
	// with EU transit and RU-CENTER.
	IXPStockholm = "NETNOD-IX"
	// IXPFrankfurt is the DE-CIX analog for western providers.
	IXPFrankfurt = "DE-CIX"
)

// buildTopology constructs the AS adjacency graph. Every provider hangs
// off its regional transit carrier; RU providers additionally peer at
// the Moscow fabric, western providers at the Frankfurt fabric, and
// Netnod at its Stockholm fabric. The design gives most RU destinations
// two equal-hop paths from the vantage — through the Moscow fabric
// (cheap) and through RU transit (expensive) — so scenarios that
// degrade the fabric shift latency without severing reachability, while
// depeering/partition events sever it outright.
func (w *World) buildTopology() error {
	t := netsim.NewTopology()
	// Backbone: vantage → EU transit → {RU transit, DNS infra}.
	t.AddLink(VantageASN, EUTransitASN, 5*time.Millisecond, netsim.LinkTransit)
	t.AddLink(EUTransitASN, RUTransitASN, 30*time.Millisecond, netsim.LinkTransit)
	t.AddLink(EUTransitASN, infraASN, 2*time.Millisecond, netsim.LinkTransit)

	for _, name := range []string{IXPMoscow, IXPStockholm, IXPFrankfurt} {
		port := time.Millisecond
		if name == IXPMoscow {
			port = 2 * time.Millisecond
		}
		if err := t.AddIXP(name, port); err != nil {
			return err
		}
	}
	// Transit carriers peer remotely at the fabrics that matter for the
	// scenarios: EU transit is a remote member of MSK-IX (withdrawable),
	// and both western fabrics include EU transit.
	for _, m := range []struct {
		ixp string
		asn netsim.ASN
	}{
		{IXPMoscow, RUTransitASN},
		{IXPMoscow, EUTransitASN},
		{IXPStockholm, EUTransitASN},
		{IXPFrankfurt, EUTransitASN},
	} {
		if err := t.AddIXPMember(m.ixp, m.asn); err != nil {
			return err
		}
	}

	for _, k := range sortedKeys(w.providers) {
		p := w.providers[k]
		if p.Country == "RU" {
			t.AddLink(RUTransitASN, p.ASN, 8*time.Millisecond, netsim.LinkTransit)
			if err := t.AddIXPMember(IXPMoscow, p.ASN); err != nil {
				return err
			}
			continue
		}
		t.AddLink(EUTransitASN, p.ASN, 8*time.Millisecond, netsim.LinkTransit)
		if err := t.AddIXPMember(IXPFrankfurt, p.ASN); err != nil {
			return err
		}
	}
	// Netnod's .ru service peers on its own fabric with RU-CENTER (the
	// secondary arrangement behind the rucenter-netnod profile).
	for _, k := range []string{"netnod", "rucenter"} {
		if p := w.providers[k]; p != nil {
			if err := t.AddIXPMember(IXPStockholm, p.ASN); err != nil {
				return err
			}
		}
	}
	w.Topology = t
	return nil
}

// RouteView returns the per-address routing oracle from the measurement
// vantage — the object both the DNS route transport and the analysis
// engine consume.
func (w *World) RouteView() *netsim.RouteView {
	return &netsim.RouteView{Net: w.Internet, R: w.Topology.Router(VantageASN)}
}

// RoutedTransport wraps the in-memory wire with the route layer: no AS
// path to a server ⇒ the exchange fails like a timeout; routed
// exchanges accumulate simulated path latency.
func (w *World) RoutedTransport() *dns.RouteTransport {
	return dns.NewRouteTransport(w.Mem, w.Clock(), w.RouteView())
}

// Built-in scenario names.
const (
	// ScenarioNetnodDepeering models the Netnod cutoff as a real routing
	// event: from NetnodCutoffDay to study end, AS8674 is depeered from
	// EU transit and withdraws from both its fabrics (Stockholm and the
	// Frankfurt remote peering), so dns-ru.netnod.su becomes unreachable
	// rather than merely unlisted.
	ScenarioNetnodDepeering = "netnod-depeering"
	// ScenarioRUIXPIsolation models RU-side IXP isolation: from the
	// invasion to study end, EU transit's remote peering at the Moscow
	// fabric is withdrawn, so vantage→RU paths fall back to the long
	// transit detour — a latency signal with reachability intact.
	ScenarioRUIXPIsolation = "ru-ixp-isolation"
	// ScenarioRUNETPartition models a partial RUNET partition: for two
	// weeks in March 2022, RU transit and the small RU ASes are cut from
	// the outside world; the major RU providers keep their direct Moscow
	// fabric peerings and stay reachable.
	ScenarioRUNETPartition = "runet-partition"
)

// Scenarios returns the built-in scenario names, sorted.
func Scenarios() []string {
	return []string{ScenarioNetnodDepeering, ScenarioRUIXPIsolation, ScenarioRUNETPartition}
}

// ApplyScenario registers a built-in scenario's route events on the
// topology and records them in sched (key "route:<event key>") so the
// outage API can list them. It must run before measurement starts.
func (w *World) ApplyScenario(name string, sched *netsim.OutageSchedule) error {
	t := w.Topology
	switch name {
	case ScenarioNetnodDepeering:
		win := simtime.Window{From: NetnodCutoffDay, To: simtime.StudyEnd}
		netnod, ok := w.providers["netnod"]
		if !ok {
			return fmt.Errorf("world: scenario %s: no netnod provider", name)
		}
		t.Depeer(netnod.ASN, EUTransitASN, win)
		// Both fabric memberships go: the Stockholm fabric is Netnod's own,
		// and leaving the Frankfurt remote peering up would let traffic slip
		// around the depeering through any other western member.
		for _, ixp := range []string{IXPStockholm, IXPFrankfurt} {
			if err := t.WithdrawIXPMember(ixp, netnod.ASN, win); err != nil {
				return err
			}
		}
	case ScenarioRUIXPIsolation:
		win := simtime.Window{From: simtime.ConflictStart, To: simtime.StudyEnd}
		if err := t.WithdrawIXPMember(IXPMoscow, EUTransitASN, win); err != nil {
			return err
		}
	case ScenarioRUNETPartition:
		win := simtime.Window{From: simtime.Date(2022, 3, 6), To: simtime.Date(2022, 3, 20)}
		// The partition group: RU transit plus every RU provider except
		// the majors, which keep serving the outside world through their
		// direct Moscow fabric peering with EU transit.
		surviving := map[string]bool{
			"regru": true, "rucenter": true, "timeweb": true,
			"beget": true, "yandex": true,
		}
		group := []netsim.ASN{RUTransitASN}
		for _, k := range sortedKeys(w.providers) {
			p := w.providers[k]
			if p.Country == "RU" && !surviving[k] {
				group = append(group, p.ASN)
			}
		}
		t.Partition("runet", group, win)
	default:
		return fmt.Errorf("world: unknown scenario %q (have: %s)", name, strings.Join(Scenarios(), ", "))
	}
	if sched != nil {
		for _, ev := range t.Events() {
			sched.AddEvent("route:"+ev.Key, ev.Kind, ev.Window)
		}
	}
	return nil
}
