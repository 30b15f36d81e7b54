package dns

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestLFMapMatchesMap drives an lfMap and a built-in map through the same
// random puts, replacements, deletes and resets (across several table
// growths) and requires identical contents throughout.
func TestLFMapMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newLFMap[string, int](hashString)
	model := map[string]int{}
	check := func(step int) {
		t.Helper()
		if m.n != len(model) {
			t.Fatalf("step %d: n = %d, model has %d", step, m.n, len(model))
		}
		for k, want := range model {
			if got, ok := m.get(k); !ok || got != want {
				t.Fatalf("step %d: get(%q) = %d, %v; want %d", step, k, got, ok, want)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		k := fmt.Sprintf("k%d.", rng.Intn(700))
		switch op := rng.Intn(100); {
		case op < 60:
			m.put(k, step)
			model[k] = step
		case op < 95:
			m.del(k)
			delete(model, k)
		case op == 99 && step%7 == 0:
			m.reset()
			clear(model)
		}
		if _, ok := m.get("absent."); ok {
			t.Fatal("found a key never stored")
		}
		if step%500 == 0 {
			check(step)
		}
	}
	check(-1)
}

// TestLFMapReadersSeeWholeValues runs lock-free readers against a writer
// that inserts, replaces, deletes, grows and resets: a reader must only
// ever see a value some put stored under that very key.
func TestLFMapReadersSeeWholeValues(t *testing.T) {
	type val struct{ key, version, check int }
	m := newLFMap[int, val](func(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 >> 7 }) // clustered on purpose
	const keys = 300
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				k := i % keys
				if v, ok := m.get(k); ok && (v.key != k || v.check != v.key^v.version) {
					t.Errorf("get(%d) returned %+v", k, v)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60000; i++ {
		k := rng.Intn(keys)
		switch op := rng.Intn(100); {
		case op < 70:
			m.put(k, val{k, i, k ^ i})
		case op < 99:
			m.del(k)
		case i%11 == 0:
			m.reset()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestInfraCacheLockFreeReadSide hammers the cache's lock-free readers
// against every kind of writer and asserts what lookupHost documents: a
// negative entry beats a positive one and a chase in flight beats glue —
// at every instant, not just between operations — while zone reads see
// only whole address sets some writer stored.
//
// One protocol goroutine walks one host at a time through flush → lead a
// flight → (glue arrives) → fail the flight → (glue arrives again) and
// publishes the host's phase in seq: odd while its flight or negative
// entry exists. Glue writers store glue for the same hosts the whole
// time, as referral walks do. A reader that saw the same odd seq before
// and after its lookup ran entirely inside such a phase and must not have
// been handed the glue.
func TestInfraCacheLockFreeReadSide(t *testing.T) {
	c := NewInfraCache()
	hosts := []string{"ns1.reg.ru.", "ns2.reg.ru.", "ns1.hosting.com."}
	glue := map[string][]netip.Addr{}
	for i, h := range hosts {
		glue[h] = []netip.Addr{netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), netip.AddrFrom4([4]byte{10, 0, byte(i), 2})}
	}
	zoneA := []netip.Addr{mustAddr("192.0.2.1"), mustAddr("192.0.2.2")}
	zoneB := []netip.Addr{mustAddr("198.51.100.1")}
	roots := []netip.Addr{mustAddr("198.41.0.4")}
	lookupFailed := errors.New("authoritative lookup failed")

	seq := make([]atomic.Int64, len(hosts))
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				f(i)
			}
		}()
	}

	// Readers.
	for r := 0; r < 3; r++ {
		run(func(i int) {
			h, phase := hosts[i%len(hosts)], &seq[i%len(hosts)]
			before := phase.Load()
			addrs, ok, neg := c.lookupHost(h)
			after := phase.Load()
			if ok && neg {
				t.Errorf("lookupHost(%s) reported both a hit and a negative entry", h)
			}
			if ok && !slices.Equal(addrs, glue[h]) {
				t.Errorf("lookupHost(%s) = %v, not the stored glue %v", h, addrs, glue[h])
			}
			if ok && before == after && before%2 == 1 {
				t.Errorf("lookupHost(%s) trusted glue while a flight or negative entry existed (phase %d)", h, before)
			}
			addrs, zone := c.deepestCut("www.flip.example.", roots)
			switch {
			case zone == "." && slices.Equal(addrs, roots):
			case zone == "flip.example." && (slices.Equal(addrs, zoneA) || slices.Equal(addrs, zoneB)):
			default:
				t.Errorf("deepestCut = %v at %q: not a state any writer left", addrs, zone)
			}
		})
	}
	// Glue writers: what referral walks do, at any time.
	for w := 0; w < 2; w++ {
		run(func(i int) {
			h := hosts[i%len(hosts)]
			c.storeHost(h, glue[h])
		})
	}
	// Zone writers on their own keys.
	run(func(i int) {
		switch i % 3 {
		case 0:
			c.storeZone("flip.example.", zoneA)
		case 1:
			c.storeZone("flip.example.", zoneB)
		default:
			c.dropZone("flip.example.")
		}
		c.storeZone(fmt.Sprintf("d%d.example.", i%512), zoneA)
	})

	// The protocol writer (this goroutine), one host per cycle.
	for cycle := 0; cycle < 6000; cycle++ {
		i := cycle % len(hosts)
		h := hosts[i]
		var fl *hostFlight
		var gen uint64
		for lead := false; !lead; {
			c.Flush() // also ends the previous host's negative entry, already in an even phase
			fl, lead, gen, _, _, _ = c.joinOrLead(h)
			// Not leading means a glue writer got in between: flush again.
		}
		seq[i].Add(1)           // odd: h has a flight registered
		c.storeHost(h, glue[h]) // the chase glues the host on its way down
		if _, ok, neg := c.lookupHost(h); ok || neg {
			t.Fatalf("in-flight %s: lookupHost ok=%v neg=%v, want a miss", h, ok, neg)
		}
		c.completeHost(h, fl, gen, nil, lookupFailed, false)
		c.storeHost(h, glue[h]) // a later referral glues it again
		if _, ok, neg := c.lookupHost(h); ok || !neg {
			t.Fatalf("failed %s: lookupHost ok=%v neg=%v, want the negative entry", h, ok, neg)
		}
		seq[i].Add(1) // even: the next flush may expose glue again
	}
}

// internName is what the decoder does with a name's bytes once they are
// validated: the interned copy, or a new string added to the table.
func internName(w *wireIntern, b []byte) string {
	s, h, ok := w.lookup(b)
	if !ok {
		s = w.add(b, h)
	}
	return s
}

// TestWireInternConcurrent interns an overlapping population from many
// goroutines: every returned value equals its input, and once the dust
// settles each name and payload has exactly one interned copy.
func TestWireInternConcurrent(t *testing.T) {
	w := newWireIntern()
	const population = 400
	name := func(i int) string { return fmt.Sprintf("host%d.example.ru.", i) }
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 20000; n++ {
				i := rng.Intn(population)
				if got := internName(w, []byte(name(i))); got != name(i) {
					t.Errorf("name(%q) = %q", name(i), got)
					return
				}
				if got := w.aData(addr(i)); got != (AData{addr(i)}) {
					t.Errorf("aData(%v) = %v", addr(i), got)
					return
				}
				if got := w.nsData(name(i)); got != (NSData{name(i)}) {
					t.Errorf("nsData(%q) = %v", name(i), got)
					return
				}
				if got := w.mxData(MXData{10, name(i)}); got != (MXData{10, name(i)}) {
					t.Errorf("mxData(%q) = %v", name(i), got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < population; i++ {
		a, b := internName(w, []byte(name(i))), internName(w, []byte(name(i)))
		if unsafe.StringData(a) != unsafe.StringData(b) {
			t.Fatalf("name %q has more than one interned copy", name(i))
		}
	}
	if w.names.n != population || w.a.n != population || w.ns.n != population || w.mx.n != population {
		t.Errorf("table sizes %d/%d/%d/%d, want %d each", w.names.n, w.a.n, w.ns.n, w.mx.n, population)
	}
}
