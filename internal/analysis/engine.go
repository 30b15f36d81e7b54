package analysis

import (
	"net/netip"
	"sort"

	"whereru/internal/simtime"
	"whereru/internal/store"
)

// The cold feeder is the batch path of every series. The per-day path
// walks the whole store once per requested day — rebuilding the domain
// list, re-locking and re-classifying every domain each time — even
// though domain configurations are piecewise-constant epochs, the very
// insight the store's compression encodes. The cold feeder instead
// captures one read-only store snapshot and covers one Accumulator, in
// the calling goroutine, with each domain's epochs intersected with the
// requested days. The output is element-for-element identical to the
// per-day oracles (the equivalence tests assert exactly that).
// Parallelism lives across callers: concurrent requests share the
// snapshot, the geo DB and the analyzer's memo, never an accumulator.

// geoLookup is the geolocation dependency of the classifiers. geo.DB
// satisfies it directly (the reference path); each accumulator wraps it
// in a memoizing geoCache (the fast path).
type geoLookup interface {
	Lookup(day simtime.Day, addr netip.Addr) (string, bool)
}

// versionedGeo is the part of geo.DB the cache needs beyond Lookup.
type versionedGeo interface {
	geoLookup
	Version(day simtime.Day) int
}

// geoCache memoizes country lookups keyed by (geo DB version, addr): the
// database is versioned in dated snapshots, so within one version window
// a lookup is a pure function of the address. Each accumulator owns one
// cache, so no locking is needed.
type geoCache struct {
	db      versionedGeo
	curDay  simtime.Day
	curVer  int
	haveDay bool
	memo    map[geoKey]geoVal
}

type geoKey struct {
	ver  int
	addr netip.Addr
}

type geoVal struct {
	country string
	ok      bool
}

func newGeoCache(db versionedGeo) *geoCache {
	return &geoCache{db: db, memo: map[geoKey]geoVal{}}
}

func (g *geoCache) Lookup(day simtime.Day, addr netip.Addr) (string, bool) {
	if !g.haveDay || day != g.curDay {
		g.curDay, g.curVer, g.haveDay = day, g.db.Version(day), true
	}
	k := geoKey{ver: g.curVer, addr: addr}
	if v, hit := g.memo[k]; hit {
		return v.country, v.ok
	}
	country, ok := g.db.Lookup(day, addr)
	g.memo[k] = geoVal{country: country, ok: ok}
	return country, ok
}

// classifierFor builds a day-wise composition classifier bound to a geo
// lookup. Classifiers must be pure: for a fixed config, the result may
// change across days only when the geo version changes.
type classifierFor func(g geoLookup) func(day simtime.Day, cfg store.Config) Composition

// sortDays returns the day axis in ascending order plus, when the input
// was not already sorted, the mapping from sorted index to original
// index. The epoch visitor's interval searches require an ascending
// axis, but the public series methods accept days in any order, exactly
// like the reference path.
func sortDays(days []simtime.Day) ([]simtime.Day, []int) {
	for i := 1; i < len(days); i++ {
		if days[i] < days[i-1] {
			perm := make([]int, len(days))
			for j := range perm {
				perm[j] = j
			}
			sort.Slice(perm, func(a, b int) bool { return days[perm[a]] < days[perm[b]] })
			sorted := make([]simtime.Day, len(days))
			for si, oi := range perm {
				sorted[si] = days[oi]
			}
			return sorted, perm
		}
	}
	return days, nil
}

// cold computes a series for days (any order) by feeding one accumulator
// from a store snapshot's epochs. Cost is O(epochs × version windows),
// independent of len(days) beyond laying out the axis.
func cold[P any](a *Analyzer, days []simtime.Day, filter Filter, mk func(*Analyzer, Filter) *Accumulator[P]) []P {
	days, perm := sortDays(days)
	snap := a.Store.Snapshot()
	sweeps := snap.Sweeps()
	acc := mk(a, filter)
	for _, day := range days {
		acc.Extend(day, sweptDay(sweeps, day))
	}
	snap.ForEachEpochIn(days, func(domain string, cfg store.Config, elo, ehi int) {
		acc.Cover(domain, cfg, elo, ehi-1)
	})
	out := acc.Points()
	if perm == nil {
		return out
	}
	res := make([]P, len(out))
	for si, oi := range perm {
		res[oi] = out[si]
	}
	return res
}

// sweptDay reports whether day is one of the (sorted) recorded sweep
// days. A series point on a day no sweep covered is carry-forward data
// and gets flagged Interpolated.
func sweptDay(sweeps []simtime.Day, day simtime.Day) bool {
	i := sort.Search(len(sweeps), func(i int) bool { return sweeps[i] >= day })
	return i < len(sweeps) && sweeps[i] == day
}

// uniqueAppend appends k to dst unless already present (key sets per
// config are tiny, so a linear scan beats a map).
func uniqueAppend[K comparable](dst []K, k K) []K {
	for _, have := range dst {
		if have == k {
			return dst
		}
	}
	return append(dst, k)
}
