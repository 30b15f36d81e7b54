package serve

import "sync"

// The result cache is what lets one process answer heavy repeated
// traffic over an immutable-until-appended store. It does two jobs at
// once:
//
//   - Versioned caching: keys embed the store generation, so a result
//     computed against one store state can never be served after the
//     store gains sweeps — invalidation is a by-product of the key, not
//     an event the store has to broadcast.
//   - Request coalescing (singleflight): the first request for a key
//     installs a pending entry and becomes the leader; every concurrent
//     identical request finds that entry and waits on its ready channel.
//     N concurrent cold requests therefore trigger exactly one engine
//     computation, which the saturation semaphore then bounds.
//
// Entries hold the fully rendered JSON body plus its strong ETag, so a
// warm hit is a map lookup and a memcpy — no analysis, no marshaling.

// cacheKey identifies one cached response: the endpoint, its
// canonicalized parameters, and the store generation the result was
// computed against.
type cacheKey struct {
	endpoint string
	params   string
	gen      uint64
}

// entry is one cached (or in-flight) response. ready is closed by the
// leader when body/etag/err are final; they must not be touched after.
type entry struct {
	ready chan struct{}
	body  []byte
	etag  string
	err   error
}

// done reports whether the entry's computation has finished.
func (e *entry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// resultCache is the versioned, coalescing response cache.
type resultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry
	// order is the insertion order of live keys, the eviction queue.
	order []cacheKey
	max   int
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{entries: make(map[cacheKey]*entry), max: max}
}

// lookup returns the entry for key, creating a pending one when absent.
// leader is true for the caller that must now compute and publish the
// result (exactly one caller per cold key sees it).
func (c *resultCache) lookup(key cacheKey) (e *entry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	c.evictLocked(key.gen)
	e = &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	return e, true
}

// evictLocked makes room before an insert: entries computed against
// older store generations go first (they can never be hit again — the
// current generation is part of every future key), then the oldest
// completed entries until the cache is under its cap. Pending entries
// are never evicted; their leaders still hold them.
func (c *resultCache) evictLocked(gen uint64) {
	keep := c.order[:0]
	for _, k := range c.order {
		e, ok := c.entries[k]
		if !ok {
			continue // removed on error
		}
		if k.gen < gen && e.done() {
			delete(c.entries, k)
			continue
		}
		keep = append(keep, k)
	}
	c.order = keep
	for i := 0; len(c.entries) >= c.max && i < len(c.order); i++ {
		k := c.order[i]
		if e, ok := c.entries[k]; ok && e.done() {
			delete(c.entries, k)
		}
	}
}

// insert installs an already-computed response for key, but only if the
// key is absent — a pending leader or an existing body always wins, so
// follow-mode patching can never clobber an in-flight computation or
// duplicate an order entry. Reports whether the entry was installed.
func (c *resultCache) insert(key cacheKey, body []byte, etag string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.evictLocked(key.gen)
	e := &entry{ready: make(chan struct{}), body: body, etag: etag}
	close(e.ready)
	c.entries[key] = e
	c.order = append(c.order, key)
	return true
}

// remove drops key from the cache if it still maps to e: failed and
// saturated computations must not stay cached, so the next request
// retries instead of replaying the error forever.
func (c *resultCache) remove(key cacheKey, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
	}
}
