package dns

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
)

// InfraCache holds the resolver's infrastructure state: the delegation
// cache (zone cut → authoritative addresses), the host cache (name-server
// name → addresses, positive and negative), and the singleflight table
// that coalesces concurrent host-cache misses. It is safe for concurrent
// use and can be shared by several Resolvers — the ZDNS design, where all
// sweep workers feed one cache so a big provider's NS set is resolved
// once per sweep rather than once per worker (or once per domain).
//
// Sharing cannot change measured answers: in the simulated world a
// response is a pure function of (question, day), so a cached value is
// bit-identical to what a fresh resolution would return. Only the
// counters (and upstream query volume) depend on scheduling.
type InfraCache struct {
	// mu serializes writers. Readers take no lock: zones and hosts are
	// lfMaps, and everything the cache knows about one host is a single
	// immutable hostEntry, so a lookup is one consistent view of its key.
	mu    sync.Mutex
	gen   uint64 // bumped by Flush; in-flight results from older generations are not stored
	zones *lfMap[string, []netip.Addr]
	hosts *lfMap[string, hostEntry]
	// positive counts host entries holding addresses (CacheStats.Hosts).
	positive int

	zoneHits, zoneMisses            atomic.Int64
	hostHits, hostMisses, coalesced atomic.Int64
}

// hostEntry is the cache's whole knowledge of one name-server host:
// addresses (cached holds even for an empty set), the negative mark, and
// the resolution in flight. Stored slices are never written again.
type hostEntry struct {
	addrs  []netip.Addr
	cached bool
	neg    bool
	flight *hostFlight
}

// hostFlight is one in-flight host resolution; waiters block on done and
// then read addrs/err (the close provides the happens-before edge).
type hostFlight struct {
	done  chan struct{}
	addrs []netip.Addr
	err   error
}

// NewInfraCache returns an empty cache.
func NewInfraCache() *InfraCache {
	return &InfraCache{
		zones: newLFMap[string, []netip.Addr](hashString),
		hosts: newLFMap[string, hostEntry](hashString),
	}
}

// Flush drops every cached entry (including negative entries) and
// detaches in-flight resolutions: their waiters are still answered, but
// their results — begun against the pre-flush world — are not stored.
func (c *InfraCache) Flush() {
	c.mu.Lock()
	c.gen++
	c.zones.reset()
	c.hosts.reset()
	c.positive = 0
	c.mu.Unlock()
}

// CacheStats is a point-in-time view of cache sizes and cumulative
// lookup counters (monotonic over the cache's lifetime; Flush does not
// reset them — consumers take deltas, like ClientStats).
type CacheStats struct {
	// Zones and Hosts are current entry counts.
	Zones, Hosts int
	// ZoneHits/ZoneMisses count delegation-cache walks: a hit found a
	// cached zone cut to start from, a miss fell back to the roots.
	ZoneHits, ZoneMisses int64
	// HostHits/HostMisses count host-cache lookups (hits include
	// negative-cache hits); Coalesced counts lookups that piggybacked on
	// an in-flight identical resolution instead of going upstream.
	HostHits, HostMisses, Coalesced int64
}

// Hits and Misses aggregate the per-layer counters.
func (s CacheStats) Hits() int64   { return s.ZoneHits + s.HostHits }
func (s CacheStats) Misses() int64 { return s.ZoneMisses + s.HostMisses }

// Stats returns current sizes and counters.
func (c *InfraCache) Stats() CacheStats {
	c.mu.Lock()
	zones, hosts := c.zones.n, c.positive
	c.mu.Unlock()
	return CacheStats{
		Zones:      zones,
		Hosts:      hosts,
		ZoneHits:   c.zoneHits.Load(),
		ZoneMisses: c.zoneMisses.Load(),
		HostHits:   c.hostHits.Load(),
		HostMisses: c.hostMisses.Load(),
		Coalesced:  c.coalesced.Load(),
	}
}

// deepestCut finds the closest enclosing cached zone cut for name,
// falling back to the given roots. Each probe is its own lock-free read;
// a cut cached while the walk is under way may be missed, which costs a
// referral and cannot change the answer (see InfraCache).
func (c *InfraCache) deepestCut(name string, roots []netip.Addr) ([]netip.Addr, string) {
	for n := name; n != "."; n = Parent(n) {
		if addrs, ok := c.zones.get(n); ok && len(addrs) > 0 {
			c.zoneHits.Add(1)
			return addrs, n
		}
	}
	c.zoneMisses.Add(1)
	return roots, "."
}

// storeZone caches a copy of zone's server addresses — unless the same
// addresses are cached already, when nothing is written — and returns
// the cached slice (read-only, like everything the cache hands out).
func (c *InfraCache) storeZone(zone string, addrs []netip.Addr) []netip.Addr {
	if have, ok := c.zones.get(zone); ok && slices.Equal(have, addrs) {
		return have
	}
	kept := slices.Clone(addrs)
	c.mu.Lock()
	c.zones.put(zone, kept)
	c.mu.Unlock()
	return kept
}

func (c *InfraCache) dropZone(zone string) {
	c.mu.Lock()
	c.zones.del(zone)
	c.mu.Unlock()
}

// updateHost applies f to host's entry under mu.
func (c *InfraCache) updateHost(host string, f func(*hostEntry)) {
	e, _ := c.hosts.get(host)
	was := e.cached
	f(&e)
	if e.cached != was {
		if e.cached {
			c.positive++
		} else {
			c.positive--
		}
	}
	if !e.cached && !e.neg && e.flight == nil {
		c.hosts.del(host)
	} else {
		c.hosts.put(host, e)
	}
}

// storeHost caches glue for host, copying it. Referrals repeat the same
// glue for the same few hosts all sweep long, so an entry that already
// holds these addresses is left alone and no lock is taken.
func (c *InfraCache) storeHost(host string, addrs []netip.Addr) {
	if e, ok := c.hosts.get(host); ok && e.cached && slices.Equal(e.addrs, addrs) {
		return
	}
	c.mu.Lock()
	c.updateHost(host, func(e *hostEntry) { e.addrs, e.cached = slices.Clone(addrs), true })
	c.mu.Unlock()
}

// lookupHost consults the positive and negative host caches. The second
// return distinguishes a positive hit (true, even with an empty address
// set) from a miss; neg reports a negative-cache hit.
//
// Order matters for determinism: a negative entry wins over a positive
// one, and a host with a chase in flight reports a miss so the caller
// joins the flight instead of trusting glue the chase stored on its way
// down. Referral walks cache glue (storeHost) before the authoritative
// query runs; if that query then fails, honoring the glue would make a
// host's resolvability depend on whether some earlier resolution had
// walked past it — scheduling, not DNS data. The three facts live in one
// entry, read in one load, so the lock-free reader applies this order to
// a state some writer actually left.
func (c *InfraCache) lookupHost(host string) (addrs []netip.Addr, ok, neg bool) {
	e, _ := c.hosts.get(host)
	return e.resolved()
}

// resolved applies lookupHost's precedence to one entry.
func (e hostEntry) resolved() (addrs []netip.Addr, ok, neg bool) {
	switch {
	case e.neg:
		return nil, false, true
	case e.flight != nil:
		return nil, false, false
	}
	return e.addrs, e.cached, false
}

// joinOrLead decides a miss's fate: either joins an in-flight resolution
// for host (lead=false) or registers a new flight it must complete
// (lead=true, with the generation to hand back to completeHost). A cache
// hit that raced in between is returned like lookupHost's.
func (c *InfraCache) joinOrLead(host string) (fl *hostFlight, lead bool, gen uint64, addrs []netip.Addr, ok, neg bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.hosts.get(host)
	if e.flight != nil && !e.neg {
		return e.flight, false, 0, nil, false, false
	}
	if addrs, ok, neg = e.resolved(); ok || neg {
		return nil, false, 0, addrs, ok, neg
	}
	fl = &hostFlight{done: make(chan struct{})}
	c.updateHost(host, func(e *hostEntry) { e.flight = fl })
	return fl, true, c.gen, nil, false, false
}

// completeHost finishes a led flight: stores the outcome (unless the
// cache was flushed since the flight began, or the failure was only the
// caller's context dying) and wakes the waiters. addrs must be the
// caller's to give away: the cache and the flight keep it.
func (c *InfraCache) completeHost(host string, fl *hostFlight, gen uint64, addrs []netip.Addr, err error, ctxDead bool) {
	c.mu.Lock()
	c.updateHost(host, func(e *hostEntry) {
		if e.flight == fl {
			e.flight = nil
		}
		if c.gen != gen {
			return
		}
		if err == nil {
			e.addrs, e.cached = addrs, true
		} else if !ctxDead {
			// A dead name-server host costs one resolution per sweep, not
			// one per delegated domain. The chase may have glued this very
			// host into the positive cache while walking down to its zone;
			// the authoritative failure invalidates that, or the host's
			// resolvability would depend on resolution order.
			e.addrs, e.cached, e.neg = nil, false, true
		}
	})
	c.mu.Unlock()
	fl.addrs, fl.err = addrs, err
	close(fl.done)
}

// isContextErr reports whether err is (or wraps) a context cancellation
// or deadline — failures that describe the leader's context, not the
// looked-up host, and so must not be adopted by waiters with live
// contexts.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
