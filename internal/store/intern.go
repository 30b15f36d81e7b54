package store

import (
	"bytes"
	"encoding/binary"
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
//   - Config identity: an unambiguous byte encoding of the config is the
//     key of ids; equal configs (same section contents in the same
//     order) always map to the same ID.
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
	ids     map[string]uint32 // encoded config -> ID
	configs []Config          // ID -> canonical pooled config
	strs    map[string]string // canonical hostname instances

	hostArena arena[string]
	addrArena arena[netip.Addr]

	key []byte // reusable key-encoding scratch

	hostBytes int64 // bytes held by distinct hostname strings
	keyBytes  int64 // bytes held by interned config keys
}

func (t *internTable) init() {
	t.ids = make(map[string]uint32)
	t.strs = make(map[string]string)
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
	k := t.key[:0]
	k = appendFailedKey(k, c.Failed)
	k = appendHostsKey(k, c.NSHosts)
	k = appendAddrsKey(k, c.NSAddrs)
	k = appendAddrsKey(k, c.ApexAddrs)
	k = appendHostsKey(k, c.MXHosts)
	t.key = k
	if id, ok := t.ids[string(k)]; ok {
		return id
	}
	return t.add(k, Config{
		NSHosts:   internHosts(t, c.NSHosts),
		NSAddrs:   t.internAddrs(c.NSAddrs),
		ApexAddrs: t.internAddrs(c.ApexAddrs),
		MXHosts:   internHosts(t, c.MXHosts),
		Failed:    c.Failed,
	})
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

// internScratch is intern for a scratchConfig. It must produce exactly
// the ID intern would for the equivalent Config: both build the key from
// the same encoders, section by section in the same order
// (TestInternScratchAgreesWithIntern pins this).
func (t *internTable) internScratch(sc *scratchConfig) uint32 {
	k := t.key[:0]
	k = appendFailedKey(k, sc.failed)
	k = appendHostsKey(k, sc.nsHosts)
	k = appendAddrsKey(k, sc.nsAddrs)
	k = appendAddrsKey(k, sc.apexAddrs)
	k = appendHostsKey(k, sc.mxHosts)
	t.key = k
	if id, ok := t.ids[string(k)]; ok {
		return id
	}
	return t.add(k, Config{
		NSHosts:   internHosts(t, sc.nsHosts),
		NSAddrs:   t.internAddrs(sc.nsAddrs),
		ApexAddrs: t.internAddrs(sc.apexAddrs),
		MXHosts:   internHosts(t, sc.mxHosts),
		Failed:    sc.failed,
	})
}

func (t *internTable) add(key []byte, canonical Config) uint32 {
	id := uint32(len(t.configs))
	t.ids[string(key)] = id
	t.keyBytes += int64(len(key))
	t.configs = append(t.configs, canonical)
	return id
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

// The key encoding is an unambiguous serialization of a config's
// contents: the failed flag, then each section with a uvarint count and
// length-prefixed (hosts) or tagged fixed-width (addrs) elements. Two
// configs encode to the same key iff their sections hold the same
// elements in the same order.

func appendFailedKey(k []byte, failed bool) []byte {
	if failed {
		return append(k, 1)
	}
	return append(k, 0)
}

func appendHostsKey[S string | []byte](k []byte, hs []S) []byte {
	k = binary.AppendUvarint(k, uint64(len(hs)))
	for _, h := range hs {
		k = binary.AppendUvarint(k, uint64(len(h)))
		k = append(k, h...)
	}
	return k
}

func appendAddrsKey(k []byte, as []netip.Addr) []byte {
	k = binary.AppendUvarint(k, uint64(len(as)))
	for _, a := range as {
		switch {
		case a.Is4():
			b := a.As4()
			k = append(k, 4)
			k = append(k, b[:]...)
		case a.IsValid():
			b := a.As16()
			k = append(k, 16)
			k = append(k, b[:]...)
			z := a.Zone()
			k = binary.AppendUvarint(k, uint64(len(z)))
			k = append(k, z...)
		default:
			k = append(k, 0)
		}
	}
	return k
}
