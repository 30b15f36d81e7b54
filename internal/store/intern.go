package store

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"net/netip"
	"slices"
)

// internTable hash-conses Configs: every distinct configuration is stored
// once and addressed by a dense uint32 ID. This is what makes the
// columnar store paper-scale — hosting configurations are massively
// redundant (a handful of providers serve most of the zone), so the
// store pays for each distinct Config once, not once per domain-epoch.
//
// Two layers of sharing:
//
//   - Config identity: equal configs (same section contents in the same
//     order) always map to the same ID. ids is keyed by a hash of the
//     sections and says where to look, never what is equal: a candidate
//     is confirmed against the canonical config itself, and a config
//     whose slot another holds takes the next one.
//   - Storage: the canonical Config's slices are sections of shared
//     chunked arenas (hostArena, addrArena), and every hostname string
//     is canonicalized through strs, so a name-server name appearing in
//     a million configs holds its bytes once.
//
// Arena chunks never move, so a canonical Config's slices are valid
// forever and cost their length once; the configs table itself only ever
// appends, which is what lets Snapshot alias it instead of copying it.
//
// The table does not normalize: callers pass exactly the Config they
// want stored (Add normalizes first, the decoders pass file contents
// verbatim), so interning is invisible to every reader — it changes
// where bytes live, never what a lookup returns.
type internTable struct {
	ids     map[uint64]uint32 // section hash (or the next free slot after it) -> ID
	configs []Config          // ID -> canonical pooled config
	strs    map[string]string // canonical hostname instances

	hostArena arena[string]
	addrArena arena[netip.Addr]

	seed     maphash.Seed
	hashMask uint64 // and-ed onto every hash: all ones, but for the collision test

	hostBytes int64 // bytes held by distinct hostname strings
}

func (t *internTable) init() {
	t.ids = make(map[uint64]uint32)
	t.strs = make(map[string]string)
	t.seed = maphash.MakeSeed()
	t.hashMask = ^uint64(0)
}

// config returns the canonical Config for id. The value's slices alias
// the shared pools and must be treated as read-only.
func (t *internTable) config(id uint32) Config { return t.configs[id] }

// view returns the configs table frozen at its current length, safe to
// read concurrently with further interning (the slice is append-only).
func (t *internTable) view() []Config {
	return t.configs[:len(t.configs):len(t.configs)]
}

// intern returns the ID for c, registering it on first sight. c is
// stored as given (no normalization); its slices are copied into the
// pools, so the caller's backing arrays are not retained.
func (t *internTable) intern(c Config) uint32 {
	return internSections(t, c.Failed, c.NSHosts, c.NSAddrs, c.ApexAddrs, c.MXHosts)
}

// internScratch is intern for a scratchConfig, with the ID intern gives
// the equivalent Config (TestInternScratchAgreesWithIntern pins this).
func (t *internTable) internScratch(sc *scratchConfig) uint32 {
	return internSections(t, sc.failed, sc.nsHosts, sc.nsAddrs, sc.apexAddrs, sc.mxHosts)
}

func internSections[S string | []byte](t *internTable, failed bool, ns []S, nsAddrs, apex []netip.Addr, mx []S) uint32 {
	h := uint64(0)
	if failed {
		h = 1
	}
	h = hashHosts(t.seed, h, ns)
	h = hashAddrs(h, nsAddrs)
	h = hashAddrs(h, apex)
	h = hashHosts(t.seed, h, mx)
	slot := h & t.hashMask
	for ; ; slot++ {
		id, taken := t.ids[slot]
		if !taken {
			break
		}
		if sameSections(&t.configs[id], failed, ns, nsAddrs, apex, mx) {
			return id
		}
	}
	id := uint32(len(t.configs))
	t.ids[slot] = id
	t.configs = append(t.configs, Config{
		NSHosts:   internHosts(t, ns),
		NSAddrs:   t.internAddrs(nsAddrs),
		ApexAddrs: t.internAddrs(apex),
		MXHosts:   internHosts(t, mx),
		Failed:    failed,
	})
	return id
}

// hashHosts and hashAddrs fold one section into h: its length, so that an
// element moving between neighbouring sections changes the hash, then
// each hostname's maphash or address's bytes — read where they lie,
// nothing is assembled.

func fold(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func hashHosts[S string | []byte](seed maphash.Seed, h uint64, hs []S) uint64 {
	h = fold(h, uint64(len(hs)))
	// One arm per instantiation: how generic code reaches the function
	// that takes its element type without converting each hostname.
	switch hs := any(hs).(type) {
	case []string:
		for _, s := range hs {
			h = fold(h, maphash.String(seed, s))
		}
	case [][]byte:
		for _, s := range hs {
			h = fold(h, maphash.Bytes(seed, s))
		}
	}
	return h
}

func hashAddrs(h uint64, as []netip.Addr) uint64 {
	h = fold(h, uint64(len(as)))
	for _, a := range as {
		b := a.As16() // equal addresses have equal bytes; the zone is left to the comparison
		h = fold(fold(h, binary.BigEndian.Uint64(b[:8])), binary.BigEndian.Uint64(b[8:]))
	}
	return h
}

// sameSections is Config.Equal with the other side taken apart, so that
// hostnames still lying in a decoder's buffer compare without becoming
// strings: the same elements in the same order, nil equal to empty.
func sameSections[S string | []byte](c *Config, failed bool, ns []S, nsAddrs, apex []netip.Addr, mx []S) bool {
	return c.Failed == failed &&
		sameHosts(c.NSHosts, ns) &&
		slices.Equal(c.NSAddrs, nsAddrs) &&
		slices.Equal(c.ApexAddrs, apex) &&
		sameHosts(c.MXHosts, mx)
}

func sameHosts[S string | []byte](have []string, hs []S) bool {
	// The comparison converts without copying.
	return slices.EqualFunc(have, hs, func(a string, b S) bool { return a == string(b) })
}

// scratchConfig is a decoded config whose hostnames still alias the
// section payload. The decode path interns from it directly so a
// paper-scale file read allocates strings only for configs never seen
// before, never per epoch.
type scratchConfig struct {
	failed             bool
	nsHosts, mxHosts   [][]byte
	nsAddrs, apexAddrs []netip.Addr
}

// config materializes the scratch as a Config that owns its memory; an
// empty section is nil.
func (sc *scratchConfig) config() Config {
	return Config{
		NSHosts: hostStrings(sc.nsHosts), NSAddrs: append([]netip.Addr(nil), sc.nsAddrs...),
		ApexAddrs: append([]netip.Addr(nil), sc.apexAddrs...), MXHosts: hostStrings(sc.mxHosts),
		Failed: sc.failed,
	}
}

func hostStrings(hs [][]byte) []string {
	if len(hs) == 0 {
		return nil
	}
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = string(h)
	}
	return out
}

// normalize sorts the sections in place, as Config.Normalize does: byte
// order is string order, and neither sort allocates.
func (sc *scratchConfig) normalize() {
	slices.SortFunc(sc.nsHosts, bytes.Compare)
	sortAddrs(sc.nsAddrs)
	sortAddrs(sc.apexAddrs)
	slices.SortFunc(sc.mxHosts, bytes.Compare)
}

// arena hands out sections of one element type from chunks that are
// never copied or re-sliced: a section that does not fit the current
// chunk starts a new one (the unused tail, shorter than the section, is
// the only waste). Chunks double from arenaMinChunk slots, so a small
// store stays small, up to arenaMaxChunk.
type arena[T any] struct {
	chunk []T // the current chunk; its length is what has been handed out
	// used and reserved count slots handed out and slots allocated over
	// all chunks, for MemStats.
	used, reserved int
}

const (
	arenaMinChunk = 64
	arenaMaxChunk = 8192
)

// alloc returns a section of n zeroed slots.
func (a *arena[T]) alloc(n int) []T {
	if n > cap(a.chunk)-len(a.chunk) {
		size := min(max(2*cap(a.chunk), arenaMinChunk), arenaMaxChunk)
		a.chunk = make([]T, 0, max(size, n))
		a.reserved += cap(a.chunk)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	a.used += n
	return a.chunk[start : start+n : start+n]
}

func internHosts[S string | []byte](t *internTable, hs []S) []string {
	if len(hs) == 0 {
		return nil
	}
	out := t.hostArena.alloc(len(hs))
	for i, h := range hs {
		out[i] = canon(t, h)
	}
	return out
}

func (t *internTable) internAddrs(as []netip.Addr) []netip.Addr {
	if len(as) == 0 {
		return nil
	}
	out := t.addrArena.alloc(len(as))
	copy(out, as)
	return out
}

// canon returns the canonical instance of h — a string or a byte view of
// one — registering it on first sight. The map lookup on string(h) does
// not allocate, so repeated hostnames cost nothing to look up.
func canon[S string | []byte](t *internTable, h S) string {
	if c, ok := t.strs[string(h)]; ok {
		return c
	}
	s := string(h)
	t.strs[s] = s
	t.hostBytes += int64(len(s))
	return s
}
