package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// The result cache is what lets one process answer heavy repeated
// traffic over an immutable-until-appended store. It does three jobs at
// once:
//
//   - Versioned caching: keys embed the store generation, so a result
//     computed against one store state can never be served after the
//     store gains sweeps — invalidation is a by-product of the key, not
//     an event the store has to broadcast. The first lookup of a newer
//     generation drops every finished entry of the older ones, once.
//   - Request coalescing (singleflight): the first request for a key
//     installs a pending entry and becomes the leader; every concurrent
//     identical request finds that entry and waits on its ready channel.
//     N concurrent cold requests therefore trigger exactly one engine
//     computation, which the saturation semaphore then bounds. Follow
//     mode reserves its patched keys the same way, before any request
//     can read their generation (stream.go).
//   - Recency: entries sit on one doubly-linked list, most recently used
//     first. A hit moves its entry to the front; an insert at capacity
//     evicts from the back, skipping pending entries. One-off keys (a
//     movement query) thus age out behind the warm ones that keep being
//     hit, and eviction costs O(1) instead of a scan.
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

// entry is one cached (or in-flight) response. ready is closed by
// publish or fail when body/etag/err are final; they must not be touched
// after. key, prev and next place the entry in its cache, under the
// cache's mutex.
type entry struct {
	ready chan struct{}
	body  []byte
	etag  string
	err   error

	key        cacheKey
	prev, next *entry
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

// resultCache is the versioned, coalescing LRU response cache.
type resultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*entry
	// lru is the recency list's sentinel: lru.next is the most recently
	// used entry, lru.prev the least.
	lru entry
	// gen is the newest generation looked up so far.
	gen uint64
	max int
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	c := &resultCache{entries: make(map[cacheKey]*entry), max: max}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// lookup returns the entry for key, creating a pending one when absent.
// leader is true for the caller that must now compute and publish the
// result (exactly one caller per cold key sees it).
func (c *resultCache) lookup(key cacheKey) (e *entry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		return e, false
	}
	if key.gen > c.gen {
		c.gen = key.gen
		c.dropOlderLocked()
	}
	for len(c.entries) >= c.max && c.evictLocked() {
	}
	e = &entry{ready: make(chan struct{}), key: key}
	c.entries[key] = e
	c.pushFront(e)
	return e, true
}

// dropOlderLocked drops the finished entries of generations before
// c.gen: they can never be hit again, since the current generation is
// part of every future key. Pending ones stay with their leaders and
// age out from the back of the list.
func (c *resultCache) dropOlderLocked() {
	for e := c.lru.next; e != &c.lru; {
		next := e.next
		if e.key.gen < c.gen && e.done() {
			c.deleteLocked(e)
		}
		e = next
	}
}

// evictLocked drops the least recently used finished entry and reports
// whether there was one. Pending entries are never evicted; their
// leaders still hold them.
func (c *resultCache) evictLocked() bool {
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		if e.done() {
			c.deleteLocked(e)
			return true
		}
	}
	return false
}

func (c *resultCache) deleteLocked(e *entry) {
	delete(c.entries, e.key)
	c.unlink(e)
}

func (c *resultCache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *resultCache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// publish renders doc as e's response — the JSON body, a newline, its
// strong ETag — and releases e's waiters. It is the one way a body
// enters the cache, for a request's computation and a fold's patch
// alike, so the two are byte-identical.
func (c *resultCache) publish(e *entry, doc any) {
	body, err := json.Marshal(doc)
	if err != nil {
		c.fail(e, fmt.Errorf("serve: rendering %s: %w", e.key.endpoint, err))
		return
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	e.body = body
	e.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
	close(e.ready)
}

// fail publishes err as e's outcome to its waiters and drops e from the
// cache if its key still maps to it: failed and saturated computations
// must not stay cached, so the next request retries instead of replaying
// the error forever.
func (c *resultCache) fail(e *entry, err error) {
	e.err = err
	c.mu.Lock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		c.deleteLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
}
