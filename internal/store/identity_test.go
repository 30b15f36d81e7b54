package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"whereru/internal/simtime"
)

// Config identity is "equal to the domain's tail epoch, else equal to a
// hash candidate". These tests hold it to an oracle that never compares
// configs: the generator draws each measurement's config by index from a
// table of pairwise distinct ones, so which measurements open an epoch is
// known from the indices alone.

// identityTable is the configs the stream draws from: world-shaped ones,
// and neighbours that differ in exactly one place a lazy comparison could
// skip — the failed flag, the last MX host, one address, which of two
// adjacent sections holds an element.
func identityTable() []Config {
	base := distinctConfig(40)
	failed := cloneConfig(base)
	failed.Failed = true
	mx := cloneConfig(base)
	mx.MXHosts = []string{"mx.prov9.ru."}
	twoMX := cloneConfig(base)
	twoMX.MXHosts = append(twoMX.MXHosts, "mx2.prov9.ru.")
	apex := cloneConfig(base)
	apex.ApexAddrs = []netip.Addr{netip.AddrFrom4([4]byte{12, 0, 0, 99})}
	moved := cloneConfig(base) // the apex address filed under the name servers'
	moved.NSAddrs = append(moved.NSAddrs, moved.ApexAddrs...)
	moved.ApexAddrs = nil
	out := []Config{base, failed, mx, twoMX, apex, moved,
		{},             // resolved, nothing there
		{Failed: true}, // did not resolve
		{NSHosts: []string{"ns1.prov0.ru."}},
		{MXHosts: []string{"ns1.prov0.ru."}}, // the same host in the other host section
	}
	for i := 0; i < 40; i++ {
		out = append(out, distinctConfig(i))
	}
	return out
}

// neighbours is how many leading entries of identityTable are the ones
// that differ from each other in one place.
const neighbours = 10

// present returns table entry c the way a collector might hand it over:
// its own memory, sections in any order, an empty section nil or not.
func present(rng *rand.Rand, c Config) Config {
	c = cloneConfig(c)
	rng.Shuffle(len(c.NSHosts), func(i, j int) { c.NSHosts[i], c.NSHosts[j] = c.NSHosts[j], c.NSHosts[i] })
	rng.Shuffle(len(c.NSAddrs), func(i, j int) { c.NSAddrs[i], c.NSAddrs[j] = c.NSAddrs[j], c.NSAddrs[i] })
	if len(c.NSHosts) == 0 && rng.Intn(2) == 0 {
		c.NSHosts = []string{}
	}
	if len(c.ApexAddrs) == 0 && rng.Intn(2) == 0 {
		c.ApexAddrs = []netip.Addr{}
	}
	if len(c.MXHosts) == 0 && rng.Intn(2) == 0 {
		c.MXHosts = []string{}
	}
	return c
}

func scratchOf(c Config) *scratchConfig {
	sc := &scratchConfig{failed: c.Failed, nsAddrs: c.NSAddrs, apexAddrs: c.ApexAddrs}
	for _, h := range c.NSHosts {
		sc.nsHosts = append(sc.nsHosts, []byte(h))
	}
	for _, h := range c.MXHosts {
		sc.mxHosts = append(sc.mxHosts, []byte(h))
	}
	return sc
}

// addScratch is Add for a measurement lying in a decoder's buffer, as
// journal replay adds one: domain and sc's hostnames are views the store
// does not keep. sc is normalized in place.
func (s *Store) addScratch(domain []byte, day simtime.Day, sc *scratchConfig) {
	sc.normalize()
	s.mu.Lock()
	defer s.mu.Unlock()
	addSections(s, domain, day, sc.failed, sc.nsHosts, sc.nsAddrs, sc.apexAddrs, sc.mxHosts)
}

// normalize sorts the sections in place, as Config.Normalize does: byte
// order is string order.
func (sc *scratchConfig) normalize() {
	slices.SortFunc(sc.nsHosts, bytes.Compare)
	sortAddrs(sc.nsAddrs)
	sortAddrs(sc.apexAddrs)
	slices.SortFunc(sc.mxHosts, bytes.Compare)
}

func TestConfigIdentityMatchesIndexOracle(t *testing.T) {
	const nDomains, nSweeps = 300, 90
	table := identityTable()
	for i := range table {
		table[i] = table[i].Normalize()
	}
	rng := rand.New(rand.NewSource(24))
	added, scratch, ref, want := New(), New(), NewReference(), NewReference()
	cur := make([]int, nDomains)  // index of the domain's tail config, -1 before its first
	prev := make([]int, nDomains) // the one before, to flap back to
	for d := range cur {
		cur[d], prev[d] = -1, -1
	}
	// The first domains walk every ordered pair of neighbours, A → B → A
	// (their third sweep on, they draw like the rest).
	pair := func(d, sweep int) int {
		a, b := d/neighbours, d%neighbours
		if a >= neighbours || a == b || sweep > 2 {
			return -1
		}
		return []int{a, b, a}[sweep]
	}
	measurements := 0
	for i := 0; i < nSweeps; i++ {
		day := simtime.Day(700 + 3*i)
		for _, st := range []interface{ BeginSweep(simtime.Day) }{added, scratch, ref, want} {
			st.BeginSweep(day)
		}
		for d := 0; d < nDomains; d++ {
			next := pair(d, i)
			if next < 0 && rng.Intn(6) == 0 {
				continue // not in the zone this sweep
			}
			if next < 0 {
				next = cur[d]
				switch r := rng.Intn(30); {
				case next < 0 || r == 0:
					next = rng.Intn(len(table)) // may redraw the same one
				case r == 1 && prev[d] >= 0:
					next = prev[d] // A → B → A
				}
			}
			name := fmt.Sprintf("dom%03d.ru.", d)
			series := want.domains[name]
			if series == nil {
				series = &refSeries{}
				want.domains[name] = series
			}
			if next == cur[d] {
				series.epochs[len(series.epochs)-1].lastSeen = day
			} else {
				series.epochs = append(series.epochs, refEpoch{from: day, lastSeen: day, config: table[next]})
				prev[d], cur[d] = cur[d], next
			}
			c := present(rng, table[next])
			added.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
			ref.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
			scratch.addScratch([]byte(name), day, scratchOf(c))
			measurements++
		}
	}
	if measurements < 20000 {
		t.Fatalf("only %d measurements", measurements)
	}
	wantBytes := func() []byte {
		var buf bytes.Buffer
		if _, err := want.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	var refBytes bytes.Buffer
	if _, err := ref.WriteTo(&refBytes); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"Add": storeBytes(t, added), "addScratch": storeBytes(t, scratch), "reference Add": refBytes.Bytes()} {
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s: store file differs from the index oracle's (%d vs %d bytes)", name, len(got), len(wantBytes))
		}
	}
	for name, st := range map[string]*Store{"Add": added, "addScratch": scratch} {
		if got := st.MemStats().DistinctConfigs; got > len(table) {
			t.Errorf("%s: %d distinct configs interned from a table of %d", name, got, len(table))
		}
	}
	t.Logf("%d measurements, %d epochs, %d configs", measurements, added.Stats().Epochs, added.MemStats().DistinctConfigs)

	// A measurement that repeats its domain's tail never reaches the
	// table: with the index gone (a nil map reads as empty and panics on
	// a write), every domain re-observed as it stands changes nothing.
	added.intern.ids, scratch.intern.ids = nil, nil
	day := simtime.Day(700 + 3*nSweeps)
	for d, idx := range cur {
		if idx < 0 {
			continue
		}
		name := fmt.Sprintf("dom%03d.ru.", d)
		c := present(rng, table[idx])
		added.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		scratch.addScratch([]byte(name), day, scratchOf(c))
	}
	if a, s := added.Stats(), scratch.Stats(); a != s || a.Epochs != ref.Stats().Epochs {
		t.Errorf("re-observing every tail: %+v (Add) %+v (addScratch), want %d epochs", a, s, ref.Stats().Epochs)
	}
}

// TestInternSurvivesHashCollisions narrows the section hash to four bits,
// so 5,000 distinct configs contend for sixteen slots: each must still
// get an ID of its own and read back as what went in, whichever of the
// two intern paths asks, and asking again must find it.
func TestInternSurvivesHashCollisions(t *testing.T) {
	const n = 5000
	var table internTable
	table.init()
	table.hashMask = 0xF
	ids := make([]uint32, n)
	for i := range ids {
		if i%2 == 0 {
			ids[i] = table.intern(distinctConfig(i).Normalize())
		} else {
			ids[i] = table.internScratch(scratchOf(distinctConfig(i).Normalize()))
		}
		if ids[i] != uint32(i) {
			t.Fatalf("config %d interned as %d: an earlier config's slot answered for it", i, ids[i])
		}
	}
	for i, id := range ids {
		want := distinctConfig(i).Normalize()
		if got := table.config(id); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("config(%d) = %v, want %v", id, got, want)
		}
		if again := table.internScratch(scratchOf(want)); again != id {
			t.Fatalf("config %d found again as %d, want %d", i, again, id)
		}
	}
	if len(table.configs) != n || len(table.ids) != n {
		t.Fatalf("%d configs, %d slots, want %d of each", len(table.configs), len(table.ids), n)
	}
}

// TestRepeatAddAllocatesNothing pins the tail comparison's cost: neither
// path builds anything to decide that a measurement repeats its domain's
// latest epoch.
func TestRepeatAddAllocatesNothing(t *testing.T) {
	s := New()
	c := distinctConfig(3).Normalize()
	name := []byte("repeat.ru.")
	m := Measurement{Domain: string(name), Day: 100, Config: c}
	s.Add(m)
	sc := scratchOf(c)
	if got := testing.AllocsPerRun(200, func() { m.Day++; s.Add(m) }); got != 0 {
		t.Errorf("Add of a repeated config allocates %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { m.Day++; s.addScratch(name, m.Day, sc) }); got != 0 {
		t.Errorf("addScratch of a repeated config allocates %.1f times, want 0", got)
	}
	// A change of config hashes and compares without building a key: what
	// it allocates is the new epoch's, not the lookup's.
	other := distinctConfig(4).Normalize()
	s.Add(Measurement{Domain: "other.ru.", Day: 100, Config: other})
	flip := []Config{c, other}
	i := 0
	if got := testing.AllocsPerRun(200, func() { i++; m.Day++; m.Config = flip[i%2]; s.Add(m) }); got > 0.5 {
		t.Errorf("Add of a known config under a new epoch allocates %.1f times, want amortized column growth only", got)
	}
	if s.Stats().Epochs < 200 {
		t.Fatalf("flapping opened %d epochs", s.Stats().Epochs)
	}
}
