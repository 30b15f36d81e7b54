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
// cap from about 1:180 on (117k at 1:100). The question and the owner
// names that point at it still cost nothing past the cap — they decode
// to the query's own name (parser.hint) — but any other spelling of a
// name the table does not hold allocates its string. That is the cheaper side: at 1:100, collect_clean peaks 6–9 MB
// lower with the cap than without it, at the same CPU per measurement.

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
	ns    *lfMap[string, RData]
	mx    *lfMap[MXData, RData]
}

func newWireIntern() *wireIntern {
	return &wireIntern{
		names: newLFMap[uint64, string](func(h uint64) uint64 { return h }),
		a:     newLFMap[netip.Addr, RData](hashAddr),
		ns:    newLFMap[string, RData](hashString),
		mx:    newLFMap[MXData, RData](func(d MXData) uint64 { return hashString(d.Host) ^ uint64(d.Preference) }),
	}
}

// lookup returns the interned string equal to b, if there is one, and
// b's hash for add.
func (w *wireIntern) lookup(b []byte) (string, uint64, bool) {
	h := maphash.Bytes(lfSeed, b)
	s, ok := w.names.get(h)
	return s, h, ok && s == string(b) // comparison does not allocate
}

// add returns a new string equal to b, whose hash is h, and interns it
// unless the slot is taken (a hash collision: the first-comer keeps it)
// or the table is full. The decoder adds only validated names.
func (w *wireIntern) add(b []byte, h uint64) string {
	out := string(b)
	w.mu.Lock()
	if _, dup := w.names.get(h); !dup && w.names.n < maxInternNames {
		w.names.put(h, out)
	}
	w.mu.Unlock()
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

func (w *wireIntern) nsData(host string) RData {
	return internData(w, w.ns, host, func(h string) RData { return NSData{h} })
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
