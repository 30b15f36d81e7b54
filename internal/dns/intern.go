package dns

import (
	"hash/maphash"
	"net/netip"
	"sync"
)

// The sweep hot path decodes the same small set of infrastructure names
// and record payloads millions of times: every referral repeats the
// registry's NS hosts, every glued answer repeats the same few provider
// addresses. wireIntern dedups those across messages so a steady-state
// decode materializes no new strings and boxes no new RData values.
// Interning is invisible to callers — it only returns values equal to
// what a fresh decode would build — so it cannot perturb measurements.
//
// Tables are bounded; once full, lookups still hit existing entries and
// misses simply allocate like an intern-free decode. A MemNet carries
// one intern for its lifetime. The simulated world's infrastructure names
// and payloads stay far below the bounds; its domain names pass the name
// cap from about 1:180 on (117k at 1:100), and a decode of a domain name
// the table does not hold then allocates its string. That is the cheaper
// side: at 1:100, collect_clean peaks 6–9 MB lower with the cap than
// without it, at the same CPU per measurement.

const (
	maxInternNames = 1 << 16
	maxInternData  = 1 << 15
)

// wireIntern's tables are insert-only lfMaps: a steady-state decode
// finds every name and payload with lock-free reads, and mu is taken
// only to add a value seen for the first time.
type wireIntern struct {
	mu    sync.Mutex
	names *lfMap[uint64, string] // hash of the name bytes -> name
	a     *lfMap[netip.Addr, RData]
	aaaa  *lfMap[netip.Addr, RData]
	ns    *lfMap[string, RData]
	cname *lfMap[string, RData]
	soa   *lfMap[SOAData, RData]
	mx    *lfMap[MXData, RData]
}

func newWireIntern() *wireIntern {
	return &wireIntern{
		names: newLFMap[uint64, string](func(h uint64) uint64 { return h }),
		a:     newLFMap[netip.Addr, RData](hashAddr),
		aaaa:  newLFMap[netip.Addr, RData](hashAddr),
		ns:    newLFMap[string, RData](hashString),
		cname: newLFMap[string, RData](hashString),
		soa:   newLFMap[SOAData, RData](func(d SOAData) uint64 { return hashString(d.MName) ^ uint64(d.Serial) }),
		mx:    newLFMap[MXData, RData](func(d MXData) uint64 { return hashString(d.Host) ^ uint64(d.Preference) }),
	}
}

// name returns a string equal to b, reusing a previously interned copy
// when possible. Hash collisions fall back to a fresh allocation (the
// first-comer keeps the slot), preserving correctness.
func (w *wireIntern) name(b []byte) string {
	h := maphash.Bytes(lfSeed, b)
	s, ok := w.names.get(h)
	if ok && s == string(b) { // comparison does not allocate
		return s
	}
	out := string(b)
	if !ok {
		w.mu.Lock()
		if _, dup := w.names.get(h); !dup && w.names.n < maxInternNames {
			w.names.put(h, out)
		}
		w.mu.Unlock()
	}
	return out
}

// internData returns the table's boxed RData for k, boxing and adding it
// on first sight (bounded; past the bound a miss just allocates).
func internData[K comparable](w *wireIntern, m *lfMap[K, RData], k K, box func(K) RData) RData {
	if d, ok := m.get(k); ok {
		return d
	}
	d := box(k)
	w.mu.Lock()
	if prior, ok := m.get(k); ok {
		d = prior
	} else if m.n < maxInternData {
		m.put(k, d)
	}
	w.mu.Unlock()
	return d
}

func (w *wireIntern) aData(addr netip.Addr) RData {
	return internData(w, w.a, addr, func(a netip.Addr) RData { return AData{a} })
}

func (w *wireIntern) aaaaData(addr netip.Addr) RData {
	return internData(w, w.aaaa, addr, func(a netip.Addr) RData { return AAAAData{a} })
}

func (w *wireIntern) nsData(host string) RData {
	return internData(w, w.ns, host, func(h string) RData { return NSData{h} })
}

func (w *wireIntern) cnameData(target string) RData {
	return internData(w, w.cname, target, func(t string) RData { return CNAMEData{t} })
}

func (w *wireIntern) soaData(soa SOAData) RData {
	return internData(w, w.soa, soa, func(d SOAData) RData { return d })
}

func (w *wireIntern) mxData(mx MXData) RData {
	return internData(w, w.mx, mx, func(d MXData) RData { return d })
}

// wirePool recycles wire-format buffers across exchanges. Decoded
// messages never alias these buffers (decodeInto copies everything out),
// so returning one after decode is safe.
var wirePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getWireBuf() *[]byte { return wirePool.Get().(*[]byte) }

func putWireBuf(b *[]byte) {
	// Messages are capped at maxMsgSize; anything larger is a stray
	// oversized read buffer not worth keeping.
	if cap(*b) <= maxMsgSize+2 {
		wirePool.Put(b)
	}
}
