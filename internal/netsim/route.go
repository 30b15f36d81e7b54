package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/simtime"
)

// This file is the AS-level interdomain routing model layered on the
// Internet address plan. The base Internet answers "which AS originates
// this address?"; the Topology answers "can the measurement vantage reach
// that AS today, and at what path latency?". Adjacency comes from two
// sources — explicit transit/peering links with a per-link latency, and
// IXP fabrics (a named switch with member ASes and a per-fabric port
// latency; crossing a fabric costs two ports) — and is perturbed by
// clock-driven route events: depeerings, IXP-membership withdrawals, and
// partition windows. Path selection is deterministic BGP-lite: shortest
// AS path first, then lowest total latency, then the lexicographically
// smallest AS path, so route tables are a pure function of (topology,
// day) and byte-identical output survives any worker count.

// LinkKind distinguishes transit links from settlement-free peering. The
// routing policy treats them identically (shortest path wins); the kind
// is descriptive, for event labels and operator output.
type LinkKind uint8

// Link kinds.
const (
	LinkTransit LinkKind = iota
	LinkPeering
)

func (k LinkKind) String() string {
	if k == LinkPeering {
		return "peering"
	}
	return "transit"
}

// link is one bidirectional adjacency with a round-trip latency
// contribution.
type link struct {
	a, b ASN
	lat  time.Duration
	kind LinkKind
}

// ixp is a named peering fabric: every pair of present members is
// adjacent through the switch at twice the port latency.
type ixp struct {
	name    string
	port    time.Duration
	members []ASN // sorted
}

// Route event kinds, shared with the OutageSchedule's event records.
const (
	EventDepeer      = "depeer"
	EventIXPWithdraw = "ixp-withdraw"
	EventPartition   = "partition"
)

// RouteEvent is one scheduled routing perturbation. Events are windows on
// the simulation clock: inside the window the adjacency is suppressed,
// outside it the base topology holds. Key is a stable human-readable
// label ("depeer:AS8674-AS64500") used by schedules and the API.
type RouteEvent struct {
	Kind   string
	Key    string
	Window simtime.Window

	// Kind-specific payloads (internal; exported accessors would invite
	// callers to re-implement severed()).
	a, b   ASN          // EventDepeer
	ixp    string       // EventIXPWithdraw
	member ASN          // EventIXPWithdraw
	group  map[ASN]bool // EventPartition
}

// Topology is the AS adjacency graph plus its scheduled route events.
// Construction (AddLink/AddIXP/...) happens during world build; after
// that the topology is read-only except for event registration, which
// scenario setup performs once before measurement starts.
type Topology struct {
	mu     sync.RWMutex
	links  []link
	ixps   map[string]*ixp
	events []RouteEvent
	// bounds is the sorted distinct days on which the route state changes
	// (each event window's first day and the day after its last): rebuilt
	// by addEvent, read without a lock by every routed exchange. Its
	// identity also names the event set a Router's tables were built for.
	bounds atomic.Pointer[[]simtime.Day]

	// routers memoizes one Router per vantage so repeated Router() calls
	// share the per-version route tables.
	routersMu sync.Mutex
	routers   map[ASN]*Router
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	t := &Topology{ixps: make(map[string]*ixp), routers: make(map[ASN]*Router)}
	t.bounds.Store(new([]simtime.Day))
	return t
}

// AddLink registers a bidirectional link between two ASes with a
// round-trip latency contribution.
func (t *Topology) AddLink(a, b ASN, lat time.Duration, kind LinkKind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links = append(t.links, link{a: a, b: b, lat: lat, kind: kind})
}

// AddIXP registers a peering fabric with a per-member port latency.
func (t *Topology) AddIXP(name string, port time.Duration) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.ixps[name]; dup {
		return fmt.Errorf("netsim: IXP %q already registered", name)
	}
	t.ixps[name] = &ixp{name: name, port: port}
	return nil
}

// AddIXPMember connects an AS to a fabric.
func (t *Topology) AddIXPMember(name string, asn ASN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	x, ok := t.ixps[name]
	if !ok {
		return fmt.Errorf("netsim: unknown IXP %q", name)
	}
	i := sort.Search(len(x.members), func(i int) bool { return x.members[i] >= asn })
	if i < len(x.members) && x.members[i] == asn {
		return nil
	}
	x.members = append(x.members, 0)
	copy(x.members[i+1:], x.members[i:])
	x.members[i] = asn
	return nil
}

// Depeer schedules the withdrawal of every adjacency between two ASes
// during the window: the direct link(s) and any shared fabric path
// between exactly this pair.
func (t *Topology) Depeer(a, b ASN, w simtime.Window) {
	if b < a {
		a, b = b, a
	}
	t.addEvent(RouteEvent{
		Kind: EventDepeer, Key: fmt.Sprintf("depeer:AS%d-AS%d", a, b),
		Window: w, a: a, b: b,
	})
}

// WithdrawIXPMember schedules an AS's departure from a fabric during the
// window: all of its fabric adjacencies there disappear.
func (t *Topology) WithdrawIXPMember(name string, asn ASN, w simtime.Window) error {
	t.mu.RLock()
	_, ok := t.ixps[name]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("netsim: unknown IXP %q", name)
	}
	t.addEvent(RouteEvent{
		Kind: EventIXPWithdraw, Key: fmt.Sprintf("ixp:%s:AS%d", name, asn),
		Window: w, ixp: name, member: asn,
	})
	return nil
}

// Partition schedules a cut of every adjacency crossing the group
// boundary during the window — the inside keeps talking to itself, the
// outside keeps talking to itself, and nothing crosses. label names the
// event ("runet").
func (t *Topology) Partition(label string, group []ASN, w simtime.Window) {
	g := make(map[ASN]bool, len(group))
	for _, asn := range group {
		g[asn] = true
	}
	t.addEvent(RouteEvent{
		Kind: EventPartition, Key: "partition:" + label,
		Window: w, group: g,
	})
}

func (t *Topology) addEvent(ev RouteEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, ev)
	bounds := make([]simtime.Day, 0, 2*len(t.events))
	for _, ev := range t.events {
		bounds = append(bounds, ev.Window.From, ev.Window.To+1)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	t.bounds.Store(&bounds)
}

// Events returns the scheduled route events sorted by (window start, key)
// — a deterministic order independent of registration sequence.
func (t *Topology) Events() []RouteEvent {
	t.mu.RLock()
	out := make([]RouteEvent, len(t.events))
	copy(out, t.events)
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Window.From != out[j].Window.From {
			return out[i].Window.From < out[j].Window.From
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Version returns the route-state version for a day: a monotone integer
// that changes exactly when some event window opens or closes. Within one
// version window the adjacency — and therefore every route table — is
// constant, which is what lets the analysis engine classify once per
// (epoch × route-version window) and routers cache one table per version
// (the same segmentation trick geo.DB.Version enables for geolocation).
func (t *Topology) Version(day simtime.Day) int {
	return versionAt(*t.bounds.Load(), day)
}

// versionAt counts the boundaries at or before day. A scenario has a
// handful of them, so a scan beats a search and allocates nothing.
func versionAt(bounds []simtime.Day, day simtime.Day) int {
	ver := 0
	for ver < len(bounds) && bounds[ver] <= day {
		ver++
	}
	return ver
}

// severed reports whether any event active on day cuts the adjacency
// between a and b. Fabric membership withdrawal is handled separately
// (it removes all of a member's fabric edges, not one pair).
func (t *Topology) severed(a, b ASN, day simtime.Day) bool {
	for i := range t.events {
		ev := &t.events[i]
		if !ev.Window.Contains(day) {
			continue
		}
		switch ev.Kind {
		case EventDepeer:
			if (ev.a == a && ev.b == b) || (ev.a == b && ev.b == a) {
				return true
			}
		case EventPartition:
			if ev.group[a] != ev.group[b] {
				return true
			}
		}
	}
	return false
}

// withdrawn reports whether asn has left the named fabric on day.
func (t *Topology) withdrawn(name string, asn ASN, day simtime.Day) bool {
	for i := range t.events {
		ev := &t.events[i]
		if ev.Kind == EventIXPWithdraw && ev.ixp == name && ev.member == asn && ev.Window.Contains(day) {
			return true
		}
	}
	return false
}

// edge is one directed adjacency in the day's effective graph.
type edge struct {
	to  ASN
	lat time.Duration
}

// adjacency materializes the effective graph for a day: base links minus
// severed pairs, plus fabric cliques minus withdrawn members and severed
// pairs. Adjacency lists are sorted by neighbor so everything downstream
// is order-independent.
func (t *Topology) adjacency(day simtime.Day) map[ASN][]edge {
	t.mu.RLock()
	defer t.mu.RUnlock()
	adj := make(map[ASN][]edge)
	add := func(a, b ASN, lat time.Duration) {
		adj[a] = append(adj[a], edge{to: b, lat: lat})
		adj[b] = append(adj[b], edge{to: a, lat: lat})
	}
	for _, l := range t.links {
		if t.severed(l.a, l.b, day) {
			continue
		}
		add(l.a, l.b, l.lat)
	}
	names := make([]string, 0, len(t.ixps))
	for name := range t.ixps {
		names = append(names, name)
	}
	sort.Strings(names)
	var present []ASN
	for _, name := range names {
		x := t.ixps[name]
		present = present[:0]
		for _, m := range x.members {
			if !t.withdrawn(name, m, day) {
				present = append(present, m)
			}
		}
		for i := 0; i < len(present); i++ {
			for j := i + 1; j < len(present); j++ {
				if t.severed(present[i], present[j], day) {
					continue
				}
				add(present[i], present[j], 2*x.port)
			}
		}
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].lat < edges[j].lat
		})
	}
	return adj
}

// PathInfo describes the selected route from a vantage to a destination
// AS: the AS path (vantage first, destination last), its hop count, and
// the summed round-trip latency of its links.
type PathInfo struct {
	Path    []ASN
	Hops    int
	Latency time.Duration
}

// better is the deterministic tie-break among equal-hop candidate paths:
// lowest latency, then lexicographically smallest AS path. It must be a
// strict total order over distinct candidates — path selection folds
// candidates pairwise, so any order of comparisons yields the same
// winner.
func better(a, b PathInfo) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	for i := 0; i < len(a.Path) && i < len(b.Path); i++ {
		if a.Path[i] != b.Path[i] {
			return a.Path[i] < b.Path[i]
		}
	}
	return len(a.Path) < len(b.Path)
}

// routesFrom computes the route table from vantage for a day with a
// level-synchronous BFS (shortest AS path), resolving each level's
// candidates with better(). The result is independent of map iteration
// order: a node settles at the first level that reaches it, and its
// winning path is the better()-minimum over all of that level's
// candidates, a fold over an unordered set.
func (t *Topology) routesFrom(vantage ASN, day simtime.Day) map[ASN]PathInfo {
	adj := t.adjacency(day)
	dist := map[ASN]PathInfo{vantage: {Path: []ASN{vantage}, Hops: 0, Latency: 0}}
	frontier := []ASN{vantage}
	for len(frontier) > 0 {
		next := make(map[ASN]PathInfo)
		for _, n := range frontier {
			cur := dist[n]
			for _, e := range adj[n] {
				if _, settled := dist[e.to]; settled {
					continue
				}
				cand := PathInfo{
					Path:    append(append(make([]ASN, 0, len(cur.Path)+1), cur.Path...), e.to),
					Hops:    cur.Hops + 1,
					Latency: cur.Latency + e.lat,
				}
				if old, seen := next[e.to]; !seen || better(cand, old) {
					next[e.to] = cand
				}
			}
		}
		frontier = frontier[:0]
		for n, pi := range next {
			dist[n] = pi
			frontier = append(frontier, n)
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	}
	return dist
}

// Router answers reachability and latency questions from one vantage AS,
// caching one route table per route-state version. Safe for concurrent
// use by sweep workers, whose reads take no lock.
type Router struct {
	topo    *Topology
	vantage ASN
	tables  atomic.Pointer[routeTables]
}

// routeTables is a Router's cache for one event set: a lazily filled
// table per version of it. Registering an event installs new boundaries,
// and the next query starts a fresh cache for them.
type routeTables struct {
	bounds *[]simtime.Day
	byVer  []atomic.Pointer[map[ASN]PathInfo] // len(*bounds)+1
}

// Router returns the shared router for a vantage AS.
func (t *Topology) Router(vantage ASN) *Router {
	t.routersMu.Lock()
	defer t.routersMu.Unlock()
	if r, ok := t.routers[vantage]; ok {
		return r
	}
	r := &Router{topo: t, vantage: vantage}
	t.routers[vantage] = r
	return r
}

// table returns the route table for day, computed once per route-state
// version — or a few times, when workers race for the first query of a
// version: the BFS runs outside any lock, duplicate computations produce
// identical tables, and the last store wins.
func (r *Router) table(day simtime.Day) map[ASN]PathInfo {
	bounds := r.topo.bounds.Load()
	rt := r.tables.Load()
	if rt == nil || rt.bounds != bounds {
		rt = &routeTables{bounds: bounds, byVer: make([]atomic.Pointer[map[ASN]PathInfo], len(*bounds)+1)}
		r.tables.Store(rt)
	}
	slot := &rt.byVer[versionAt(*bounds, day)]
	if tbl := slot.Load(); tbl != nil {
		return *tbl
	}
	tbl := r.topo.routesFrom(r.vantage, day)
	slot.Store(&tbl)
	return tbl
}

// Path returns the selected route to dst on day.
func (r *Router) Path(day simtime.Day, dst ASN) (PathInfo, bool) {
	pi, ok := r.table(day)[dst]
	return pi, ok
}

// Latency returns the path round-trip latency to dst on day; ok is false
// when no path exists.
func (r *Router) Latency(day simtime.Day, dst ASN) (time.Duration, bool) {
	pi, ok := r.table(day)[dst]
	return pi.Latency, ok
}

// RouteView adapts (Internet, Router) to per-address routing decisions:
// the shape the DNS transport layer (dns.RoutePolicy) and the analysis
// engine consume. Addresses outside the simulated allocation plan are
// treated as reachable at zero latency — they are outside the model, and
// failing them would turn bookkeeping gaps into phantom outages.
type RouteView struct {
	Net *Internet
	R   *Router
}

// Route returns the simulated path round-trip latency to the AS
// originating server; ok is false when no AS path exists on day.
func (v *RouteView) Route(day simtime.Day, server netip.Addr) (time.Duration, bool) {
	asn, ok := v.Net.OriginAS(server)
	if !ok {
		return 0, true
	}
	if asn == v.R.vantage {
		return 0, true
	}
	return v.R.Latency(day, asn)
}

// Version exposes the topology's route-state versioning (the analysis
// engine segments the day axis with it).
func (v *RouteView) Version(day simtime.Day) int { return v.R.topo.Version(day) }
