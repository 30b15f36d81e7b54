package store

import (
	"net/netip"
	"runtime"
	"unsafe"

	"whereru/internal/simtime"
)

// MemStats describes the store's resident memory and interning behavior.
// The byte figures are accounted, not sampled: they are computed from the
// capacities of the columnar representation itself and the arenas'
// running totals, so they are exactly reproducible for a given
// measurement stream — which is what lets a test gate them against a
// constant (TestWorldShapedHeapAccounting), the way the allocs gate
// compares allocs/op (both are timing-independent).
//
// The accounting covers the dominant terms — columns, arenas, string
// bytes, table entries — plus a fixed per-entry estimate for Go map
// overhead. It deliberately excludes allocator slack and GC headroom; the
// measured runtime.ReadMemStats harness in the tests holds the two within
// 1.25x of each other on both the paper's and the world's stream shape.
type MemStats struct {
	// Domains and Epochs mirror Stats; DeadRows counts column rows
	// abandoned by relocation and not yet compacted.
	Domains      int
	Epochs       int64
	DeadRows     int
	NaiveRecords int64

	// DistinctConfigs is the intern table size: how many distinct
	// configurations the whole store has ever observed.
	DistinctConfigs int
	// InternedHosts is the number of distinct hostname strings pooled;
	// HostSlots and AddrSlots are the shared arenas' entry counts (one
	// slot per hostname/address position across all distinct configs).
	InternedHosts int
	HostSlots     int
	AddrSlots     int

	// ColumnBytes is the epoch columns plus the per-domain row offsets.
	ColumnBytes int64
	// InternBytes is the intern table: arenas, canonical config table,
	// distinct string bytes and the hash index over the configs.
	InternBytes int64
	// IndexBytes is the domain index: names, name bytes, the name map
	// and the cached sorted view.
	IndexBytes int64
}

// mapEntryOverhead approximates Go's per-entry map cost (bucket slot,
// hash metadata, load-factor headroom) for the accounted figures. The
// exact number varies by key size and fill; 48 bytes is a deliberate
// middle estimate, applied uniformly so comparisons stay meaningful.
const mapEntryOverhead = 48

// ResidentBytes is the accounted total.
func (m MemStats) ResidentBytes() int64 { return m.ColumnBytes + m.InternBytes + m.IndexBytes }

// BytesPerEpoch is the headline density metric: accounted resident bytes
// per live (domain, epoch) row.
func (m MemStats) BytesPerEpoch() float64 {
	if m.Epochs == 0 {
		return 0
	}
	return float64(m.ResidentBytes()) / float64(m.Epochs)
}

// Element sizes for the accounting (unsafe.Sizeof is a compile-time
// constant; the "unsafe" import does no unsafe memory access).
const (
	daySize    = int64(unsafe.Sizeof(simtime.Day(0)))
	strSize    = int64(unsafe.Sizeof(""))
	addrSize   = int64(unsafe.Sizeof(netip.Addr{}))
	configSize = int64(unsafe.Sizeof(Config{}))
)

// LiveHeapBytes measures the live-heap growth attributable to building a
// value: it settles the heap with GC, snapshots runtime.MemStats, runs
// build, settles again with the result still reachable, and returns the
// HeapAlloc delta. This is the measured (as opposed to accounted)
// memory harness: MemStats says what the representation should cost,
// LiveHeapBytes says what the runtime actually retains — the heap
// reduction test holds the two against each other, and BENCH_7.json
// records its output.
func LiveHeapBytes(build func() any) uint64 {
	settle := func() {
		// Two cycles: the first can leave just-unreachable objects for the
		// next sweep; the second settles them.
		runtime.GC()
		runtime.GC()
	}
	var before, after runtime.MemStats
	settle()
	runtime.ReadMemStats(&before)
	v := build()
	settle()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// MemStats computes the store's memory accounting.
func (s *Store) MemStats() MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := &s.intern
	m := MemStats{
		Domains:         len(s.names),
		Epochs:          s.live,
		DeadRows:        len(s.epochFrom) - int(s.live),
		NaiveRecords:    s.naive,
		DistinctConfigs: len(t.configs),
		InternedHosts:   len(t.strs),
		HostSlots:       t.hostArena.used,
		AddrSlots:       t.addrArena.used,
	}
	m.ColumnBytes = int64(cap(s.epochFrom))*daySize +
		int64(cap(s.epochLast))*daySize +
		int64(cap(s.epochCfg))*4 +
		int64(cap(s.off))*4 + int64(cap(s.cnt))*4
	m.InternBytes = int64(t.hostArena.reserved)*strSize +
		int64(t.addrArena.reserved)*addrSize +
		int64(cap(t.configs))*configSize +
		t.hostBytes + int64(len(t.strs))*mapEntryOverhead +
		int64(len(t.ids))*24 // a 16-byte slot and its control byte at the map's average fill
	m.IndexBytes = int64(cap(s.names))*strSize + s.nameBytes +
		int64(len(s.byName))*mapEntryOverhead +
		int64(cap(s.index))*strSize + int64(cap(s.order))*4
	return m
}
