package analysis

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"

	"whereru/internal/simtime"
	"whereru/internal/store"
)

// The cold feeder is the batch path of every series. The per-day path
// walks the whole store once per requested day — rebuilding the domain
// list, re-locking and re-classifying every domain each time — even
// though domain configurations are piecewise-constant epochs, the very
// insight the store's compression encodes. The cold feeder instead
// captures one read-only store snapshot, shards the sorted domain list
// over a worker pool, and covers one Accumulator per shard with each
// domain's epochs intersected with the requested days. Shard columns
// merge by addition, so the output is deterministic and
// element-for-element identical to the reference per-day path (the
// equivalence tests assert exactly that).

// workers returns the shard count: Analyzer.Workers, defaulting to the
// number of CPUs the scheduler may use (GOMAXPROCS, which a CPU-limited
// container can set below the host's count).
func (a *Analyzer) workers() int {
	if a.Workers > 0 {
		return a.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shard partitions [0, n) into contiguous ranges and runs fn(shard, lo,
// hi) on each concurrently, returning when all complete.
func (a *Analyzer) shard(n int, fn func(shard, lo, hi int)) int {
	w := a.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	for s := 0; s < w; s++ {
		lo, hi := s*n/w, (s+1)*n/w
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	return w
}

// geoLookup is the geolocation dependency of the classifiers. geo.DB
// satisfies it directly (the reference path); shard workers wrap it in a
// memoizing geoCache (the fast path).
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
// a lookup is a pure function of the address. Each shard worker owns one
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
// per shard from a store snapshot's epochs and merging the shards. Cost
// is O(epochs × version windows), independent of len(days) beyond laying
// out the axis.
func cold[P any](a *Analyzer, days []simtime.Day, filter Filter, mk func(*Analyzer, Filter) *Accumulator[P]) []P {
	days, perm := sortDays(days)
	snap := a.Store.Snapshot()
	sweeps := snap.Sweeps()
	shards := make([]*Accumulator[P], a.workers())
	used := a.shard(snap.NumDomains(), func(shard, lo, hi int) {
		acc := mk(a, filter)
		for _, day := range days {
			acc.Extend(day, sweptDay(sweeps, day))
		}
		snap.VisitEpochs(days, lo, hi, func(domain string, cfg store.Config, elo, ehi int) {
			acc.Cover(domain, cfg, elo, ehi-1)
		})
		shards[shard] = acc
	})
	for _, s := range shards[1:used] {
		shards[0].merge(s)
	}
	out := shards[0].Points()
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
