package store

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"whereru/internal/frame"
)

// internCases are adversarial configs for the interning properties:
// duplicate hosts, mixed case, empty vs nil sections, invalid and v6
// addresses, failure flags.
func internCases() []Config {
	v6 := netip.MustParseAddr("2001:db8::1")
	v6z := netip.MustParseAddr("fe80::1%eth0")
	return []Config{
		{},
		{NSHosts: []string{}},
		{NSHosts: []string{"a.ru."}},
		{NSHosts: []string{"a.ru.", "a.ru."}},
		{NSHosts: []string{"a.ru.", "b.ru."}},
		{NSHosts: []string{"b.ru.", "a.ru."}},
		{NSHosts: []string{"A.ru."}},
		{NSHosts: []string{"a.RU."}},
		{MXHosts: []string{"a.ru."}}, // same host, different section
		{NSHosts: []string{"a.ru."}, MXHosts: []string{"a.ru."}},
		{Failed: true},
		{Failed: true, NSHosts: []string{"a.ru."}},
		{NSAddrs: []netip.Addr{netip.AddrFrom4([4]byte{11, 0, 0, 1})}},
		{ApexAddrs: []netip.Addr{netip.AddrFrom4([4]byte{11, 0, 0, 1})}}, // same addr, different section
		{NSAddrs: []netip.Addr{v6}},
		{NSAddrs: []netip.Addr{v6z}},
		{NSAddrs: []netip.Addr{{}}},
		{NSHosts: []string{""}}, // empty hostname element
		{NSHosts: []string{"", ""}},
	}
}

// TestInternRoundTripsNormalizeEqual is the property satellite (d) asks
// for: for any two adversarial configs, intern assigns the same ID
// exactly when the normalized configs are Equal, and the canonical config
// it stores is indistinguishable from the normalized input.
func TestInternRoundTripsNormalizeEqual(t *testing.T) {
	cases := internCases()
	var table internTable
	table.init()
	norm := make([]Config, len(cases))
	ids := make([]uint32, len(cases))
	for i, c := range cases {
		norm[i] = cloneConfig(c).Normalize()
		ids[i] = table.intern(cloneConfig(c).Normalize())
	}
	for i := range cases {
		got := table.config(ids[i])
		if !got.Equal(norm[i]) {
			t.Errorf("case %d: interned config not Equal to normalized input:\n%+v\nvs\n%+v", i, got, norm[i])
		}
		// Contents must match element-for-element, not just via Equal (the
		// codec serializes these bytes).
		if !reflect.DeepEqual(flattenConfig(got), flattenConfig(norm[i])) {
			t.Errorf("case %d: interned contents differ: %v vs %v", i, flattenConfig(got), flattenConfig(norm[i]))
		}
		for j := range cases {
			sameID := ids[i] == ids[j]
			equal := norm[i].Equal(norm[j])
			if sameID != equal {
				t.Errorf("cases %d/%d: sameID=%v but Equal=%v (%+v vs %+v)", i, j, sameID, equal, norm[i], norm[j])
			}
		}
	}
	// Re-interning is stable and allocates no new entries.
	before := len(table.configs)
	for i, c := range cases {
		if id := table.intern(cloneConfig(c).Normalize()); id != ids[i] {
			t.Errorf("case %d: re-intern gave %d, want %d", i, id, ids[i])
		}
	}
	if len(table.configs) != before {
		t.Errorf("re-interning grew the table: %d -> %d", before, len(table.configs))
	}
}

// flattenConfig projects a config to comparable value form (DeepEqual on
// Config itself would distinguish pool-backed sub-slices by capacity).
func flattenConfig(c Config) [5]any {
	return [5]any{c.Failed,
		append([]string(nil), c.NSHosts...),
		append([]netip.Addr(nil), c.NSAddrs...),
		append([]netip.Addr(nil), c.ApexAddrs...),
		append([]string(nil), c.MXHosts...)}
}

// TestInternScratchAgreesWithIntern pins the decode fast path: a config
// serialized to its v3 byte layout and decoded into a scratchConfig must
// intern to exactly the ID the materialized Config gets. The two key
// encodings diverging would make file decode and live Add disagree about
// config identity.
func TestInternScratchAgreesWithIntern(t *testing.T) {
	var table internTable
	table.init()
	for i, c := range internCases() {
		if hasNonV4Addr(c) {
			continue // the v3 codec is v4-only; scratch decode never sees these
		}
		n := cloneConfig(c).Normalize()
		var e encoder
		e.config(n, "x")
		if e.Err() != nil {
			t.Fatalf("case %d: encode: %v", i, e.Err())
		}
		r := byteReader{frame.NewReader(e.Bytes())}
		var sc scratchConfig
		r.configInto(&sc, "x")
		if err := r.Done("x", "config"); err != nil {
			t.Fatalf("case %d: scratch decode: %v", i, err)
		}
		want := table.intern(cloneConfig(c).Normalize())
		got := table.internScratch(&sc)
		if got != want {
			t.Errorf("case %d: internScratch=%d, intern=%d for %+v", i, got, want, n)
		}
		// The same through the scratch's own normalize, from the config as
		// given (a journal replay meets foreign, unsorted lists): the two
		// sort orders must agree too.
		var raw encoder
		raw.config(c, "x")
		r = byteReader{frame.NewReader(raw.Bytes())}
		r.configInto(&sc, "x")
		sc.normalize()
		if got := table.internScratch(&sc); r.Err() != nil || got != want {
			t.Errorf("case %d: normalized scratch interns to %d, Normalize to %d (err %v)", i, got, want, r.Err())
		}
		if !sc.config().Equal(n) {
			t.Errorf("case %d: scratch materializes to %+v, want %+v", i, sc.config(), n)
		}
	}
}

func hasNonV4Addr(c Config) bool {
	for _, a := range c.NSAddrs {
		if !a.Is4() {
			return true
		}
	}
	for _, a := range c.ApexAddrs {
		if !a.Is4() {
			return true
		}
	}
	return false
}

// TestInternSharesHostStorage verifies the storage-sharing layer: the
// same hostname appearing in many distinct configs is pooled to one
// canonical string instance.
func TestInternSharesHostStorage(t *testing.T) {
	var table internTable
	table.init()
	host := "ns1.shared.ru."
	for i := 0; i < 50; i++ {
		c := Config{
			NSHosts:   []string{host},
			ApexAddrs: []netip.Addr{netip.AddrFrom4([4]byte{11, 0, 0, byte(i + 1)})},
		}
		table.intern(c.Normalize())
	}
	if got := len(table.strs); got != 1 {
		t.Fatalf("50 configs with one shared host pooled %d strings, want 1", got)
	}
	if got := len(table.configs); got != 50 {
		t.Fatalf("distinct configs = %d, want 50", got)
	}
	// Every canonical config's NSHosts[0] must be the same string instance
	// (same data pointer), not just equal bytes.
	first := table.config(0).NSHosts[0]
	for id := uint32(1); id < 50; id++ {
		if got := table.config(id).NSHosts[0]; got != first {
			t.Fatalf("config %d host %q not pooled", id, got)
		}
	}
	if table.hostBytes != int64(len(host)) {
		t.Fatalf("hostBytes = %d, want %d", table.hostBytes, len(host))
	}
}

// TestInternArenaGrowthKeepsOldConfigsValid pins the append-only arena
// contract: configs interned before arena reallocation keep their
// contents afterward.
func TestInternArenaGrowthKeepsOldConfigsValid(t *testing.T) {
	var table internTable
	table.init()
	id0 := table.intern(Config{NSHosts: []string{"first.ru."}}.Normalize())
	want := flattenConfig(table.config(id0))
	for i := 0; i < 5000; i++ { // force multiple arena reallocations
		table.intern(Config{NSHosts: []string{fmt.Sprintf("ns%d.ru.", i)}}.Normalize())
	}
	if got := flattenConfig(table.config(id0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("early config changed after arena growth: %v vs %v", got, want)
	}
}

// distinctConfig is the i-th of a family of pairwise distinct configs
// shaped like the simulated world's: one of a few shared NS sets, an
// apex address of its own.
func distinctConfig(i int) Config {
	prov := i % 27
	return Config{
		NSHosts:   []string{fmt.Sprintf("ns1.prov%d.ru.", prov), fmt.Sprintf("ns2.prov%d.ru.", prov)},
		NSAddrs:   []netip.Addr{netip.AddrFrom4([4]byte{11, byte(prov), 0, 1}), netip.AddrFrom4([4]byte{11, byte(prov), 0, 2})},
		ApexAddrs: []netip.Addr{netip.AddrFrom4([4]byte{12, byte(i >> 16), byte(i >> 8), byte(i)})},
		MXHosts:   []string{fmt.Sprintf("mx.prov%d.ru.", i%5)},
	}
}

// TestInternArenasNeverMove pins the chunked arenas: 50,000 distinct
// configs go into a store while a reader walks the configs of a snapshot
// taken half-way (under -race, a chunk written again after it was handed
// out is a reported race as well as a wrong config); afterwards every
// config still equals what went in, and the arenas hold what was asked of
// them plus at most a tenth and one chunk — where growing by append kept
// every outgrown array alive, about five times the final one.
func TestInternArenasNeverMove(t *testing.T) {
	const n = 50000
	s := New()
	s.BeginSweep(19000)
	add := func(i int) {
		s.Add(Measurement{Domain: fmt.Sprintf("dom%06d.ru.", i), Day: 19000, Config: distinctConfig(i)})
	}
	for i := 0; i < n/2; i++ {
		add(i)
	}
	snap := s.Snapshot()
	if snap.NumConfigs() != n/2 {
		t.Fatalf("snapshot knows %d configs, want %d", snap.NumConfigs(), n/2)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for id := 0; ; id = (id + 1) % snap.NumConfigs() {
			select {
			case <-stop:
				return
			default:
			}
			if got := snap.Config(uint32(id)); !got.Equal(distinctConfig(id)) {
				t.Errorf("config %d read through the snapshot changed: %+v", id, got)
				return
			}
		}
	}()
	for i := n / 2; i < n; i++ {
		add(i)
	}
	close(stop)
	<-done
	// A section larger than any chunk gets one of its own.
	huge := Config{NSAddrs: make([]netip.Addr, arenaMaxChunk+1)}
	hugeID := s.intern.intern(huge)
	for i := 0; i < n; i++ {
		if got := s.intern.config(uint32(i)); !got.Equal(distinctConfig(i)) {
			t.Fatalf("config %d changed: %+v", i, got)
		}
	}
	if got := s.intern.config(hugeID); !got.Equal(huge) {
		t.Fatalf("oversized config changed")
	}
	for name, a := range map[string]struct{ used, reserved int }{
		"host": {s.intern.hostArena.used, s.intern.hostArena.reserved},
		"addr": {s.intern.addrArena.used, s.intern.addrArena.reserved},
	} {
		if a.used < 3*n || a.reserved > a.used*11/10+arenaMaxChunk {
			t.Errorf("%s arena: %d slots reserved for %d used", name, a.reserved, a.used)
		}
	}
	if ms := s.MemStats(); ms.HostSlots != 3*n || ms.AddrSlots != 3*n+arenaMaxChunk+1 {
		t.Errorf("MemStats counts %d host and %d address slots, want %d and %d", ms.HostSlots, ms.AddrSlots, 3*n, 3*n+arenaMaxChunk+1)
	}
}

// intern returns the ID for c, registering it on first sight. c is
// stored as given (no normalization); its slices are copied into the
// pools, so the caller's backing arrays are not retained.
func (t *internTable) intern(c Config) uint32 {
	return internSections(t, c.Failed, c.NSHosts, c.NSAddrs, c.ApexAddrs, c.MXHosts)
}
