package dns

import (
	"hash/maphash"
	"net/netip"
	"sync/atomic"
)

// lfMap is a hash map whose reads take no lock: the three read-mostly
// tables on the exchange path (wireIntern, InfraCache, MemNet's routing
// table) are probed dozens of times per measurement by every sweep
// worker and written a few times per sweep, so the read side is a
// handful of atomic loads and the write side pays for it.
//
// Readers load the current table, hash to a bucket and walk an immutable
// chain. Writers must be serialized by the owner's mutex. They never
// modify a published node: an insert publishes a new chain head, a
// replace or delete publishes a copy of the chain up to the changed
// node, growth and reset publish a whole new table. Every get is
// therefore one consistent view of its key: it returns exactly what some
// write left for that key, as if it had held the owner's lock at one
// instant during the call.
type lfMap[K comparable, V any] struct {
	hash  func(K) uint64
	table atomic.Pointer[lfTable[K, V]]
	n     int // entries; writer-owned, like every mutation
}

type lfTable[K comparable, V any] struct {
	buckets []atomic.Pointer[lfNode[K, V]]
}

// lfNode is immutable once published.
type lfNode[K comparable, V any] struct {
	key  K
	val  V
	next *lfNode[K, V]
}

const lfMinBuckets = 16

func newLFMap[K comparable, V any](hash func(K) uint64) *lfMap[K, V] {
	m := &lfMap[K, V]{hash: hash}
	m.table.Store(&lfTable[K, V]{buckets: make([]atomic.Pointer[lfNode[K, V]], lfMinBuckets)})
	return m
}

func (t *lfTable[K, V]) bucket(h uint64) *atomic.Pointer[lfNode[K, V]] {
	return &t.buckets[h&uint64(len(t.buckets)-1)]
}

// get returns the value stored under k. Safe without any lock.
func (m *lfMap[K, V]) get(k K) (v V, ok bool) {
	for e := m.table.Load().bucket(m.hash(k)).Load(); e != nil; e = e.next {
		if e.key == k {
			return e.val, true
		}
	}
	return v, false
}

// put stores v under k, replacing any previous value.
func (m *lfMap[K, V]) put(k K, v V) {
	t := m.table.Load()
	b := t.bucket(m.hash(k))
	head := b.Load()
	for e := head; e != nil; e = e.next {
		if e.key == k {
			b.Store(spliceChain(head, e, &lfNode[K, V]{key: k, val: v, next: e.next}))
			return
		}
	}
	b.Store(&lfNode[K, V]{key: k, val: v, next: head})
	m.n++
	if m.n > len(t.buckets) {
		m.rehash(2 * len(t.buckets))
	}
}

// del removes k if present.
func (m *lfMap[K, V]) del(k K) {
	b := m.table.Load().bucket(m.hash(k))
	head := b.Load()
	for e := head; e != nil; e = e.next {
		if e.key == k {
			b.Store(spliceChain(head, e, e.next))
			m.n--
			return
		}
	}
}

// spliceChain returns a chain equal to head's with old swapped for repl,
// copying the nodes ahead of old (readers may still be walking them).
func spliceChain[K comparable, V any](head, old, repl *lfNode[K, V]) *lfNode[K, V] {
	if head == old {
		return repl
	}
	return &lfNode[K, V]{key: head.key, val: head.val, next: spliceChain(head.next, old, repl)}
}

func (m *lfMap[K, V]) rehash(size int) {
	old := m.table.Load()
	t := &lfTable[K, V]{buckets: make([]atomic.Pointer[lfNode[K, V]], size)}
	for i := range old.buckets {
		for e := old.buckets[i].Load(); e != nil; e = e.next {
			b := t.bucket(m.hash(e.key))
			b.Store(&lfNode[K, V]{key: e.key, val: e.val, next: b.Load()})
		}
	}
	m.table.Store(t)
}

// reset empties the map. The bucket count is kept: a flushed cache
// refills to about the size it had.
func (m *lfMap[K, V]) reset() {
	m.table.Store(&lfTable[K, V]{buckets: make([]atomic.Pointer[lfNode[K, V]], len(m.table.Load().buckets))})
	m.n = 0
}

// Hashes for the key types in use. The seed is per process; nothing
// observable depends on bucket order.
var lfSeed = maphash.MakeSeed()

func hashString(s string) uint64 { return maphash.String(lfSeed, s) }

func hashAddr(a netip.Addr) uint64 {
	b := a.As16()
	return maphash.Bytes(lfSeed, b[:])
}
