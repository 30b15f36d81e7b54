package store

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"whereru/internal/simtime"
)

func addrList(ss ...string) []netip.Addr {
	out := make([]netip.Addr, len(ss))
	for i, s := range ss {
		out[i] = netip.MustParseAddr(s)
	}
	return out
}

// paperStream feeds fn one measurement per (domain, sweep) with the
// provider redundancy the paper reports: a handful of hosting providers
// serve most of the zone, and a small fraction of domains change
// configuration per sweep. This is the workload the interned columnar
// layout is designed for.
func paperStream(nDomains, nSweeps int, fn func(m Measurement)) {
	for i := 0; i < nSweeps; i++ {
		day := simtime.Day(19000 + i*3)
		for j := 0; j < nDomains; j++ {
			// ~6% of domains migrate provider each sweep, giving multi-epoch
			// series like the paper's five-year window produces.
			gen := (j + i*nDomains/16) / nDomains
			prov := (j + gen) % 8
			fn(Measurement{
				Domain: fmt.Sprintf("dom%06d.ru.", j),
				Day:    day,
				Config: Config{
					NSHosts:   []string{fmt.Sprintf("ns1.prov%d.ru.", prov), fmt.Sprintf("ns2.prov%d.ru.", prov)},
					NSAddrs:   addrList(fmt.Sprintf("11.%d.0.1", prov), fmt.Sprintf("11.%d.0.2", prov)),
					ApexAddrs: addrList(fmt.Sprintf("11.%d.1.%d", prov, j%2+1)),
					MXHosts:   []string{fmt.Sprintf("mx.prov%d.ru.", prov)},
				},
			})
		}
	}
}

func buildColumnar(nDomains, nSweeps int) *Store {
	s := New()
	last := simtime.Day(-1)
	paperStream(nDomains, nSweeps, func(m Measurement) {
		if m.Day != last {
			s.BeginSweep(m.Day)
			last = m.Day
		}
		s.Add(m)
	})
	return s
}

func buildReference(nDomains, nSweeps int) *ReferenceStore {
	s := NewReference()
	last := simtime.Day(-1)
	paperStream(nDomains, nSweeps, func(m Measurement) {
		if m.Day != last {
			s.BeginSweep(m.Day)
			last = m.Day
		}
		s.Add(m)
	})
	return s
}

// BenchmarkStoreAdd measures ingest: one op is one measurement through
// Add on the paper-shaped workload (interning hits dominate; the store
// should not allocate per measurement once the config universe is seen).
func BenchmarkStoreAdd(b *testing.B) {
	const nDomains, nSweeps = 2000, 20
	ms := make([]Measurement, 0, nDomains*nSweeps)
	paperStream(nDomains, nSweeps, func(m Measurement) { ms = append(ms, m.Clone()) })
	b.ReportAllocs()
	b.ResetTimer()
	var s *Store
	for i := 0; i < b.N; i++ {
		if i%len(ms) == 0 {
			b.StopTimer()
			s = New() // fresh store each pass so epochs behave identically
			b.StartTimer()
		}
		s.Add(ms[i%len(ms)])
	}
}

// Clone deep-copies a measurement (Add's Normalize sorts slices in
// place, which would corrupt a shared benchmark fixture re-used across
// passes).
func (m Measurement) Clone() Measurement {
	m.Config = cloneConfig(m.Config)
	return m
}

// BenchmarkStoreRead measures file decode: one op is a full Read of a
// serialized paper-shaped store.
func BenchmarkStoreRead(b *testing.B) {
	s := buildColumnar(2000, 30)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestColumnarHeapReduction is the acceptance measurement: live heap
// bytes per (domain, epoch), measured with runtime.ReadMemStats via
// LiveHeapBytes, must drop at least 4x from the reference representation
// to the columnar one on the paper-shaped workload. The logged figures
// are what BENCH_7.json records.
func TestColumnarHeapReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is too noisy under -short's time budget")
	}
	const nDomains, nSweeps = 5000, 40
	refHeap := LiveHeapBytes(func() any { return buildReference(nDomains, nSweeps) })
	var col *Store
	colHeap := LiveHeapBytes(func() any { col = buildColumnar(nDomains, nSweeps); return col })
	epochs := col.Stats().Epochs
	if epochs == 0 {
		t.Fatal("no epochs built")
	}
	refPer := float64(refHeap) / float64(epochs)
	colPer := float64(colHeap) / float64(epochs)
	t.Logf("epochs=%d reference=%.1f B/epoch columnar=%.1f B/epoch reduction=%.1fx",
		epochs, refPer, colPer, refPer/colPer)
	ms := col.MemStats()
	t.Logf("accounted: %.1f B/epoch (%d resident bytes, %d distinct configs, %d pooled hosts)",
		ms.BytesPerEpoch(), ms.ResidentBytes(), ms.DistinctConfigs, ms.InternedHosts)
	if colPer*4 > refPer {
		t.Fatalf("columnar store is only %.2fx smaller than reference (%.1f vs %.1f B/epoch), want >= 4x",
			refPer/colPer, refPer, colPer)
	}
	// The accounted figure must stay honest: within 2x of measured either
	// way (it excludes allocator slack; it must not drift into fiction).
	if acc := ms.BytesPerEpoch(); acc > colPer*2 || colPer > acc*2 {
		t.Fatalf("accounted %.1f B/epoch vs measured %.1f B/epoch differ by more than 2x", acc, colPer)
	}
}

// worldStream is the stream the simulated world produces, where
// paperStream is the redundancy the paper reports: NS sets shared by a
// few dozen profiles, but an apex address (and so a configuration) per
// domain, and a third of the domains moving hosts once — nearly one
// distinct config per epoch, so the intern table is most of the store.
func worldStream(nDomains, nSweeps int, fn func(m Measurement)) {
	for i := 0; i < nSweeps; i++ {
		for j := 0; j < nDomains; j++ {
			cfg := distinctConfig(j)
			if j%3 == 0 && i >= j%nSweeps {
				cfg.ApexAddrs[0] = netip.AddrFrom4([4]byte{13, byte(j >> 16), byte(j >> 8), byte(j)})
			}
			if j%5 == 4 {
				cfg.MXHosts = nil
			}
			fn(Measurement{Domain: fmt.Sprintf("dom%06d.ru.", j), Day: simtime.Day(19000 + i*3), Config: cfg})
		}
	}
}

// worldShapedBytesPerEpoch is the store memory gate: accounted resident
// bytes per (domain, epoch) on worldStream(6000, 10), exactly
// reproducible. A change that stops interning, re-materializes per-epoch
// structs or lets the arenas hold more than they hand out moves it.
const worldShapedBytesPerEpoch = 430

// TestWorldShapedHeapAccounting holds MemStats to the heap on the stream
// that found it wanting: with a config per epoch the arenas dominate,
// and an accounting that counts only their current backing array reads
// half of what the runtime retains when they grow by append.
func TestWorldShapedHeapAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is too noisy under -short's time budget")
	}
	const nDomains, nSweeps = 6000, 10
	var s *Store
	heap := LiveHeapBytes(func() any {
		s = New()
		last := simtime.Day(-1)
		worldStream(nDomains, nSweeps, func(m Measurement) {
			if m.Day != last {
				s.BeginSweep(m.Day)
				last = m.Day
			}
			s.Add(m)
		})
		return s
	})
	ms := s.MemStats()
	acc := ms.ResidentBytes()
	t.Logf("%d epochs, %d distinct configs: accounted %d bytes (%.1f B/epoch, intern %d), measured %d (%.2fx)",
		ms.Epochs, ms.DistinctConfigs, acc, ms.BytesPerEpoch(), ms.InternBytes, heap, float64(heap)/float64(acc))
	if ms.DistinctConfigs < 5000 || int64(ms.DistinctConfigs)*10 < ms.Epochs*9 {
		t.Fatalf("%d distinct configs in %d epochs: not the world's shape", ms.DistinctConfigs, ms.Epochs)
	}
	if float64(heap) > 1.25*float64(acc) || float64(acc) > 1.25*float64(heap) {
		t.Errorf("accounted %d bytes vs %d measured: more than 1.25x apart", acc, heap)
	}
	if got := ms.BytesPerEpoch(); got > worldShapedBytesPerEpoch {
		t.Errorf("accounted %.1f bytes per (domain, epoch), the gate is %d", got, worldShapedBytesPerEpoch)
	}
}
