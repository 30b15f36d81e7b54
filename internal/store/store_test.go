package store

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"whereru/internal/simtime"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func cfg(ns []string, nsIPs, apex []string) Config {
	c := Config{NSHosts: ns}
	for _, a := range nsIPs {
		c.NSAddrs = append(c.NSAddrs, ip(a))
	}
	for _, a := range apex {
		c.ApexAddrs = append(c.ApexAddrs, ip(a))
	}
	return c.Normalize()
}

func TestEpochCompression(t *testing.T) {
	s := New()
	c1 := cfg([]string{"ns1.reg.ru."}, []string{"11.0.0.1"}, []string{"11.0.1.1"})
	c2 := cfg([]string{"ns1.sedo.de."}, []string{"11.9.0.1"}, []string{"11.9.1.1"})
	// 10 sweeps with config c1, then 5 with c2.
	for i := 0; i < 10; i++ {
		day := simtime.Day(100 + i*7)
		s.BeginSweep(day)
		s.Add(Measurement{Domain: "a.ru.", Day: day, Config: c1})
	}
	for i := 0; i < 5; i++ {
		day := simtime.Day(100 + (10+i)*7)
		s.BeginSweep(day)
		s.Add(Measurement{Domain: "a.ru.", Day: day, Config: c2})
	}
	st := s.Stats()
	if st.Epochs != 2 {
		t.Fatalf("Epochs = %d, want 2", st.Epochs)
	}
	if st.NaiveRecords != 15 {
		t.Fatalf("NaiveRecords = %d, want 15", st.NaiveRecords)
	}
	if st.Domains != 1 {
		t.Fatalf("Domains = %d", st.Domains)
	}
	// Snapshot reconstruction at various days.
	got, ok := s.At("a.ru.", 100)
	if !ok || !got.Equal(c1) {
		t.Fatal("At(first sweep) wrong")
	}
	got, ok = s.At("a.ru.", 105) // between sweeps: carries forward
	if !ok || !got.Equal(c1) {
		t.Fatal("At(between sweeps) wrong")
	}
	got, ok = s.At("a.ru.", 100+10*7)
	if !ok || !got.Equal(c2) {
		t.Fatal("At(after change) wrong")
	}
	if _, ok = s.At("a.ru.", 99); ok {
		t.Fatal("At(before first sweep) resolved")
	}
	if _, ok = s.At("zzz.ru.", 200); ok {
		t.Fatal("At(unknown domain) resolved")
	}
}

func TestConfigEqualAndNormalize(t *testing.T) {
	a := cfg([]string{"b.", "a."}, []string{"11.0.0.2", "11.0.0.1"}, []string{"11.1.0.1"})
	b := cfg([]string{"a.", "b."}, []string{"11.0.0.1", "11.0.0.2"}, []string{"11.1.0.1"})
	if !a.Equal(b) {
		t.Fatal("normalized configs not equal")
	}
	c := cfg([]string{"a.", "b."}, []string{"11.0.0.1", "11.0.0.2"}, []string{"11.1.0.2"})
	if a.Equal(c) {
		t.Fatal("different apex configs equal")
	}
	d := a
	d.Failed = true
	if a.Equal(d) {
		t.Fatal("failed flag ignored in Equal")
	}
	if a.Equal(Config{}) {
		t.Fatal("non-empty equals empty")
	}
}

func TestMeasuredOn(t *testing.T) {
	s := New()
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	s.BeginSweep(10)
	s.Add(Measurement{Domain: "d.ru.", Day: 10, Config: c})
	s.BeginSweep(20)
	s.Add(Measurement{Domain: "d.ru.", Day: 20, Config: c})
	if !s.MeasuredOn("d.ru.", 10) || !s.MeasuredOn("d.ru.", 15) || !s.MeasuredOn("d.ru.", 20) {
		t.Fatal("measured days not covered")
	}
	if s.MeasuredOn("d.ru.", 9) {
		t.Fatal("measured before first sweep")
	}
	// After the last sweep the domain is no longer measured (it may have
	// left the zone).
	if s.MeasuredOn("d.ru.", 21) {
		t.Fatal("measured after last sweep")
	}
	if s.MeasuredOn("other.ru.", 15) {
		t.Fatal("unknown domain measured")
	}
}

// ForEachAt calls fn with every domain measured on day (per MeasuredOn)
// and its configuration at that day, in sorted domain order: the per-day
// walk the columnar paths are judged against. The day's view is gathered
// under a single lock, then fn runs unlocked (so it may call back into
// the store).
func (s *Store) ForEachAt(day simtime.Day, fn func(domain string, cfg Config)) {
	idx, ord, unlock := s.lockedView()
	type hit struct {
		domain string
		cfg    Config
	}
	hits := make([]hit, 0, len(idx))
	for i, domain := range idx {
		d := ord[i]
		if row, measured, _ := lookup(s.epochFrom, s.epochLast, s.off[d], s.cnt[d], day); measured {
			hits = append(hits, hit{domain: domain, cfg: s.intern.config(s.epochCfg[row])})
		}
	}
	unlock()
	for _, h := range hits {
		fn(h.domain, h.cfg)
	}
}

func TestForEachAt(t *testing.T) {
	s := New()
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	for i, d := range []string{"b.ru.", "a.ru.", "c.ru."} {
		day := simtime.Day(10 + i)
		s.BeginSweep(day)
		s.Add(Measurement{Domain: d, Day: day, Config: c})
	}
	var visited []string
	s.ForEachAt(12, func(domain string, _ Config) { visited = append(visited, domain) })
	// a.ru. measured day 11 (lastSeen 11 < 12, no later epoch → not measured),
	// b.ru. day 10 (same), c.ru. day 12 (measured).
	want := []string{"c.ru."}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("ForEachAt visited %v, want %v", visited, want)
	}
}

func TestSweepsAndHistory(t *testing.T) {
	s := New()
	s.BeginSweep(5)
	s.BeginSweep(5) // duplicate ignored
	s.BeginSweep(9)
	if got := s.Sweeps(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("Sweeps = %v", got)
	}
	c1 := cfg([]string{"x."}, nil, nil)
	c2 := cfg([]string{"y."}, nil, nil)
	s.Add(Measurement{Domain: "h.ru.", Day: 5, Config: c1})
	s.Add(Measurement{Domain: "h.ru.", Day: 9, Config: c2})
	h := s.History("h.ru.")
	if len(h) != 2 || h[0].Day != 5 || h[1].Day != 9 {
		t.Fatalf("History = %+v", h)
	}
	if s.History("none.ru.") != nil {
		t.Fatal("History of unknown domain non-nil")
	}
	if s.NumDomains() != 1 {
		t.Fatalf("NumDomains = %d", s.NumDomains())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		day := simtime.Day(1000 + i*3)
		s.BeginSweep(day)
		for j := 0; j < 20; j++ {
			c := cfg(
				[]string{fmt.Sprintf("ns%d.prov%d.ru.", j%2, j%5)},
				[]string{fmt.Sprintf("11.%d.0.%d", j%5, j%2+1)},
				[]string{fmt.Sprintf("11.%d.1.%d", (i/25+j)%5, j+1)},
			)
			if j == 7 && i%2 == 0 {
				c.Failed = true
				c.NSHosts = nil
				c.NSAddrs = nil
				c.ApexAddrs = nil
			}
			s.Add(Measurement{Domain: fmt.Sprintf("dom%02d.ru.", j), Day: day, Config: c})
		}
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, buffer has %d", n, buf.Len())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(s.Sweeps(), back.Sweeps()) {
		t.Fatal("sweeps differ after round trip")
	}
	if !reflect.DeepEqual(s.Domains(), back.Domains()) {
		t.Fatal("domains differ after round trip")
	}
	for _, d := range s.Domains() {
		if !reflect.DeepEqual(s.History(d), back.History(d)) {
			t.Fatalf("history differs for %s", d)
		}
	}
}

func TestDomainsIndexInvalidation(t *testing.T) {
	s := New()
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	s.Add(Measurement{Domain: "b.ru.", Day: 10, Config: c})
	if got := s.Domains(); !reflect.DeepEqual(got, []string{"b.ru."}) {
		t.Fatalf("Domains = %v", got)
	}
	// Re-measuring an existing domain must not disturb the cached index;
	// a new domain must invalidate it.
	s.Add(Measurement{Domain: "b.ru.", Day: 11, Config: c})
	s.Add(Measurement{Domain: "a.ru.", Day: 11, Config: c})
	if got := s.Domains(); !reflect.DeepEqual(got, []string{"a.ru.", "b.ru."}) {
		t.Fatalf("Domains after invalidation = %v", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the index.
	first := s.Domains()
	first[0] = "zzz.ru."
	if got := s.Domains(); got[0] != "a.ru." {
		t.Fatalf("Domains shared its cache: %v", got)
	}
}

// TestSnapshotEpochRanges pins the visitor's interval semantics against
// ForEachAt: an epoch covers its sweeps, carries across gaps when a later
// epoch exists, and ends at its last sighting for the final epoch.
func TestSnapshotEpochRanges(t *testing.T) {
	s := New()
	c1 := cfg([]string{"ns1.x.ru."}, nil, nil)
	c2 := cfg([]string{"ns2.x.ru."}, nil, nil)
	// a.ru.: c1 on days 10-20, gap, c2 on day 40 (dropout after 40).
	for _, d := range []simtime.Day{10, 20} {
		s.BeginSweep(d)
		s.Add(Measurement{Domain: "a.ru.", Day: d, Config: c1})
	}
	s.BeginSweep(30) // a.ru. missed this sweep (epoch gap)
	s.BeginSweep(40)
	s.Add(Measurement{Domain: "a.ru.", Day: 40, Config: c2})
	s.BeginSweep(50) // a.ru. gone

	days := []simtime.Day{5, 10, 20, 30, 40, 50}
	snap := s.Snapshot()
	type visit struct {
		cfg    Config
		lo, hi int
	}
	var visits []visit
	snap.ForEachEpochIn(days, func(domain string, cfg Config, lo, hi int) {
		if domain != "a.ru." {
			t.Fatalf("unexpected domain %s", domain)
		}
		visits = append(visits, visit{cfg: cfg, lo: lo, hi: hi})
	})
	// c1 covers days[1:4] (10, 20 and the gap day 30: a later epoch means
	// still in zone); c2 covers days[4:5] (40 only — 50 is past lastSeen).
	if len(visits) != 2 {
		t.Fatalf("visits = %d, want 2", len(visits))
	}
	if !visits[0].cfg.Equal(c1) || visits[0].lo != 1 || visits[0].hi != 4 {
		t.Fatalf("first epoch range = [%d,%d)", visits[0].lo, visits[0].hi)
	}
	if !visits[1].cfg.Equal(c2) || visits[1].lo != 4 || visits[1].hi != 5 {
		t.Fatalf("second epoch range = [%d,%d)", visits[1].lo, visits[1].hi)
	}

	// Cross-check the visitor against ForEachAt on every day.
	perDay := make([]int, len(days))
	for i, d := range days {
		s.ForEachAt(d, func(string, Config) { perDay[i]++ })
	}
	visited := make([]int, len(days))
	snap.ForEachEpochIn(days, func(_ string, _ Config, lo, hi int) {
		for i := lo; i < hi; i++ {
			visited[i]++
		}
	})
	if !reflect.DeepEqual(perDay, visited) {
		t.Fatalf("visitor coverage %v != ForEachAt coverage %v", visited, perDay)
	}
}

// assertLookupMatchesStore holds Snapshot.Lookup (and Config, which reads
// its ID back) to the live store's At and MeasuredOn for one domain-day.
func assertLookupMatchesStore(t *testing.T, s *Store, snap *Snapshot, i int, day simtime.Day) {
	t.Helper()
	domain := snap.Domains()[i]
	id, measured, ok := snap.Lookup(i, day)
	wantCfg, wantOK := s.At(domain, day)
	if ok != wantOK || (ok && !snap.Config(id).Equal(wantCfg)) {
		t.Fatalf("Snapshot.Lookup(%s, %d) diverges from Store.At", domain, day)
	}
	if ok && int(id) >= snap.NumConfigs() {
		t.Fatalf("Snapshot.Lookup(%s, %d) = config %d of %d", domain, day, id, snap.NumConfigs())
	}
	if measured != s.MeasuredOn(domain, day) {
		t.Fatalf("Snapshot.Lookup(%s, %d) measured=%v diverges from Store.MeasuredOn", domain, day, measured)
	}
}

func TestSnapshotAtAndMeasuredAt(t *testing.T) {
	s := New()
	c := cfg([]string{"ns.x.ru."}, nil, nil)
	s.BeginSweep(10)
	s.Add(Measurement{Domain: "d.ru.", Day: 10, Config: c})
	s.BeginSweep(20)
	s.Add(Measurement{Domain: "d.ru.", Day: 20, Config: c})
	snap := s.Snapshot()
	if snap.NumDomains() != 1 || snap.Domains()[0] != "d.ru." {
		t.Fatalf("snapshot domains = %v", snap.Domains())
	}
	for _, day := range []simtime.Day{9, 10, 15, 20, 21} {
		assertLookupMatchesStore(t, s, snap, 0, day)
	}
	// The snapshot must not see writes that land after the capture.
	s.BeginSweep(30)
	s.Add(Measurement{Domain: "d.ru.", Day: 30, Config: c})
	s.Add(Measurement{Domain: "new.ru.", Day: 30, Config: c})
	if snap.NumDomains() != 1 {
		t.Fatal("snapshot grew after capture")
	}
	if _, measured, _ := snap.Lookup(0, 30); measured {
		t.Fatal("snapshot saw a post-capture sweep")
	}
	if len(snap.Sweeps()) != 2 {
		t.Fatalf("snapshot sweeps = %v", snap.Sweeps())
	}
}

func TestGenerationTracksMutations(t *testing.T) {
	s := New()
	if s.Generation() != 0 {
		t.Fatalf("fresh store generation = %d", s.Generation())
	}
	g0 := s.Generation()
	s.BeginSweep(10)
	if s.Generation() <= g0 {
		t.Fatal("BeginSweep did not bump the generation")
	}
	g1 := s.Generation()
	s.BeginSweep(10) // duplicate day: no observable change
	if s.Generation() != g1 {
		t.Fatal("no-op BeginSweep bumped the generation")
	}
	s.Add(Measurement{Domain: "a.ru.", Day: 10, Config: cfg([]string{"ns1.reg.ru."}, nil, nil)})
	if s.Generation() <= g1 {
		t.Fatal("Add did not bump the generation")
	}
	g2 := s.Generation()
	s.MarkMissingSweep(12)
	if s.Generation() <= g2 {
		t.Fatal("MarkMissingSweep did not bump the generation")
	}
	g3 := s.Generation()
	s.MarkMissingSweep(12) // duplicate: no observable change
	if s.Generation() != g3 {
		t.Fatal("duplicate MarkMissingSweep bumped the generation")
	}
}

// TestGenerationConcurrentWithReaders hammers the read API (Snapshot,
// Domains, Generation, At, Sweeps) against a concurrent writer. Run
// under -race it pins both the generation counter's locking and the
// PR-2 sorted-index locking; it also checks the invalidation contract:
// a reader that saw generation G before reading and G again after knows
// its reads were from one unchanged store state.
func TestGenerationConcurrentWithReaders(t *testing.T) {
	s := New()
	const sweeps = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for day := 0; day < sweeps; day++ {
			s.BeginSweep(simtime.Day(day * 3))
			for d := 0; d < 25; d++ {
				s.Add(Measurement{
					Domain: fmt.Sprintf("dom%02d.ru.", d),
					Day:    simtime.Day(day * 3),
					Config: cfg([]string{fmt.Sprintf("ns%d.reg.ru.", (day+d)%5)}, []string{"11.0.0.1"}, nil),
				})
			}
			if day%7 == 3 {
				s.MarkMissingSweep(simtime.Day(day*3 + 1))
			}
		}
	}()
	for i := 0; ; i++ {
		g1 := s.Generation()
		snap := s.Snapshot()
		doms := s.Domains()
		s.Sweeps()
		s.MissingSweeps()
		if len(doms) > 0 {
			s.At(doms[0], simtime.Day(i%int(sweeps*3)))
		}
		g2 := s.Generation()
		if g1 == g2 {
			// Unchanged generation brackets: the snapshot must hold
			// exactly the domains the index reported.
			if snap.NumDomains() != len(doms) {
				t.Fatalf("stable generation %d but snapshot %d domains vs index %d",
					g1, snap.NumDomains(), len(doms))
			}
		}
		select {
		case <-done:
			if got := s.Generation(); got == 0 {
				t.Fatal("generation still 0 after writes")
			}
			return
		default:
		}
	}
}

func TestCodecRejectsJunk(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("WRST\x00\x63"))); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("WRST\x00\x01\x00\x00\x00\x05"))); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func BenchmarkAddCompressible(b *testing.B) {
	s := New()
	c := cfg([]string{"ns1.reg.ru."}, []string{"11.0.0.1"}, []string{"11.0.1.1"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(Measurement{Domain: "bench.ru.", Day: simtime.Day(i), Config: c})
	}
}

func BenchmarkAt(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		c := cfg([]string{fmt.Sprintf("ns%d.ru.", i%7)}, nil, nil)
		s.Add(Measurement{Domain: "bench.ru.", Day: simtime.Day(i * 5), Config: c})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.At("bench.ru.", simtime.Day(i%5000)); !ok && i%5000 >= 0 {
			b.Fatal("lookup failed")
		}
	}
}
