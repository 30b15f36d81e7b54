package store

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"whereru/internal/simtime"
)

// ReferenceStore is the pre-columnar store representation — a
// map[string]*series of fat per-epoch structs — kept as the equivalence
// oracle for the columnar Store. It is deliberately simple and
// allocation-heavy: its job is to be obviously correct so tests can feed
// both stores the same measurement stream and byte-compare the results
// (WriteTo output, At/History answers, report bytes downstream).
type ReferenceStore struct {
	domains map[string]*refSeries
	sweeps  []simtime.Day
	missing []simtime.Day
	naive   int64
}

type refEpoch struct {
	from, lastSeen simtime.Day
	config         Config
}

type refSeries struct {
	epochs []refEpoch // sorted by from
}

// NewReference returns an empty reference store.
func NewReference() *ReferenceStore {
	return &ReferenceStore{domains: make(map[string]*refSeries)}
}

// BeginSweep registers a sweep day (chronological order required).
func (s *ReferenceStore) BeginSweep(day simtime.Day) {
	if n := len(s.sweeps); n == 0 || s.sweeps[n-1] < day {
		s.sweeps = append(s.sweeps, day)
	}
}

// MarkMissingSweep records a scheduled-but-uncollected sweep day.
func (s *ReferenceStore) MarkMissingSweep(day simtime.Day) {
	i := sort.Search(len(s.missing), func(i int) bool { return s.missing[i] >= day })
	if i < len(s.missing) && s.missing[i] == day {
		return
	}
	s.missing = append(s.missing, 0)
	copy(s.missing[i+1:], s.missing[i:])
	s.missing[i] = day
}

// Add records a measurement with the same epoch-compression rule as
// Store.Add: extend the tail epoch when the normalized config is Equal,
// else open a new epoch.
func (s *ReferenceStore) Add(m Measurement) {
	cfg := m.Config.Normalize()
	s.naive++
	ds, ok := s.domains[m.Domain]
	if !ok {
		ds = &refSeries{}
		s.domains[m.Domain] = ds
	}
	if n := len(ds.epochs); n > 0 && ds.epochs[n-1].config.Equal(cfg) && ds.epochs[n-1].lastSeen <= m.Day {
		ds.epochs[n-1].lastSeen = m.Day
		return
	}
	ds.epochs = append(ds.epochs, refEpoch{from: m.Day, lastSeen: m.Day, config: cfg})
}

// At returns the configuration at the most recent sweep at or before day.
func (s *ReferenceStore) At(domain string, day simtime.Day) (Config, bool) {
	ds, ok := s.domains[domain]
	if !ok {
		return Config{}, false
	}
	es := ds.epochs
	i := sort.Search(len(es), func(i int) bool { return es[i].from > day })
	if i == 0 {
		return Config{}, false
	}
	return es[i-1].config, true
}

// MeasuredOn mirrors Store.MeasuredOn.
func (s *ReferenceStore) MeasuredOn(domain string, day simtime.Day) bool {
	ds, ok := s.domains[domain]
	if !ok {
		return false
	}
	es := ds.epochs
	i := sort.Search(len(es), func(i int) bool { return es[i].from > day })
	if i == 0 {
		return false
	}
	return i < len(es) || es[i-1].lastSeen >= day
}

// Domains returns the sorted domain names.
func (s *ReferenceStore) Domains() []string {
	out := make([]string, 0, len(s.domains))
	for d := range s.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Sweeps returns the recorded sweep days.
func (s *ReferenceStore) Sweeps() []simtime.Day {
	return append([]simtime.Day(nil), s.sweeps...)
}

// MissingSweeps returns the scheduled-but-uncollected sweep days.
func (s *ReferenceStore) MissingSweeps() []simtime.Day {
	return append([]simtime.Day(nil), s.missing...)
}

// History mirrors Store.History.
func (s *ReferenceStore) History(domain string) []Measurement {
	ds, ok := s.domains[domain]
	if !ok {
		return nil
	}
	out := make([]Measurement, len(ds.epochs))
	for i, e := range ds.epochs {
		out[i] = Measurement{Domain: domain, Day: e.from, Config: e.config}
	}
	return out
}

// Stats mirrors Store.Stats.
func (s *ReferenceStore) Stats() Stats {
	var epochs int64
	for _, ds := range s.domains {
		epochs += int64(len(ds.epochs))
	}
	return Stats{Domains: len(s.domains), Epochs: epochs, NaiveRecords: s.naive}
}

// WriteTo serializes in the version-3 format through the same
// sectionWriter as Store.WriteTo, so the two representations produce
// byte-identical files for identical contents — the core equivalence
// property the oracle exists to check.
func (s *ReferenceStore) WriteTo(w io.Writer) (int64, error) {
	idx := make([]string, 0, len(s.domains))
	for d := range s.domains {
		idx = append(idx, d)
	}
	sort.Strings(idx)
	sw := newSectionWriter(w)
	if err := sw.header(s.sweeps, s.missing, len(idx)); err != nil {
		return sw.n, err
	}
	for _, name := range idx {
		es := s.domains[name].epochs
		err := sw.section(maxDomainRecordBytes, func(e *encoder) {
			e.Str16(name, "", "domain name")
			e.Count32(len(es), name, "epoch")
			for _, ep := range es {
				e.I32(int32(ep.from))
				e.I32(int32(ep.lastSeen))
				e.config(ep.config, name)
			}
		})
		if err != nil {
			return sw.n, err
		}
	}
	return sw.close()
}

// cloneConfig deep-copies a config so the same logical measurement can be
// handed to two stores without either seeing the other's normalization
// (Normalize sorts in place).
func cloneConfig(c Config) Config {
	return Config{
		NSHosts:   append([]string(nil), c.NSHosts...),
		NSAddrs:   append([]netip.Addr(nil), c.NSAddrs...),
		ApexAddrs: append([]netip.Addr(nil), c.ApexAddrs...),
		MXHosts:   append([]string(nil), c.MXHosts...),
		Failed:    c.Failed,
	}
}

// randConfig draws from a small provider pool so configs repeat (the
// redundancy interning exploits) while still exercising variety: shuffled
// section orders, duplicate hosts, empty sections, failures.
func randConfig(rng *rand.Rand) Config {
	if rng.Intn(20) == 0 {
		return Config{Failed: true}
	}
	var c Config
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		c.NSHosts = append(c.NSHosts, fmt.Sprintf("ns%d.prov%d.ru.", rng.Intn(3), rng.Intn(4)))
	}
	if rng.Intn(8) == 0 { // duplicate host entry
		c.NSHosts = append(c.NSHosts, c.NSHosts[0])
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		c.NSAddrs = append(c.NSAddrs, netip.AddrFrom4([4]byte{11, byte(rng.Intn(4)), 0, byte(1 + rng.Intn(3))}))
	}
	for i, n := 0, rng.Intn(2); i < n; i++ {
		c.ApexAddrs = append(c.ApexAddrs, netip.AddrFrom4([4]byte{11, byte(rng.Intn(4)), 1, byte(1 + rng.Intn(3))}))
	}
	if rng.Intn(2) == 0 {
		c.MXHosts = append(c.MXHosts, fmt.Sprintf("mx.prov%d.ru.", rng.Intn(4)))
	}
	rng.Shuffle(len(c.NSHosts), func(i, j int) { c.NSHosts[i], c.NSHosts[j] = c.NSHosts[j], c.NSHosts[i] })
	return c
}

// feedBoth drives the columnar store and the reference oracle with an
// identical randomized measurement stream: domains churn in and out of
// sweeps (forcing row relocation and compaction in the columnar layout)
// and some scheduled days go missing.
func feedBoth(t *testing.T, seed int64, nDomains, nSweeps int) (*Store, *ReferenceStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	col, ref := New(), NewReference()
	for i := 0; i < nSweeps; i++ {
		day := simtime.Day(600 + i*3)
		if rng.Intn(12) == 0 {
			col.MarkMissingSweep(day)
			ref.MarkMissingSweep(day)
			continue
		}
		col.BeginSweep(day)
		ref.BeginSweep(day)
		for j := 0; j < nDomains; j++ {
			if rng.Intn(5) == 0 {
				continue // domain absent this sweep
			}
			c := randConfig(rng)
			name := fmt.Sprintf("dom%03d.ru.", j)
			col.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
			ref.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		}
	}
	return col, ref
}

// assertEquivalent checks every public read surface of the columnar store
// against the oracle, then byte-compares the serialized files.
func assertEquivalent(t *testing.T, col *Store, ref *ReferenceStore) {
	t.Helper()
	if !reflect.DeepEqual(col.Sweeps(), ref.Sweeps()) {
		t.Fatalf("sweeps differ: %v vs %v", col.Sweeps(), ref.Sweeps())
	}
	if !reflect.DeepEqual(col.MissingSweeps(), ref.MissingSweeps()) {
		t.Fatalf("missing sweeps differ: %v vs %v", col.MissingSweeps(), ref.MissingSweeps())
	}
	if !reflect.DeepEqual(col.Domains(), ref.Domains()) {
		t.Fatalf("domains differ")
	}
	if cs, rs := col.Stats(), ref.Stats(); cs != rs {
		t.Fatalf("stats differ: %+v vs %+v", cs, rs)
	}
	doms := ref.Domains()
	sweeps := ref.Sweeps()
	probe := append([]simtime.Day(nil), sweeps...)
	if len(sweeps) > 0 {
		probe = append(probe, sweeps[0]-1, sweeps[len(sweeps)-1]+10, sweeps[0]+1)
	}
	for _, d := range doms {
		if !reflect.DeepEqual(col.History(d), ref.History(d)) {
			t.Fatalf("history differs for %s:\n%v\nvs\n%v", d, col.History(d), ref.History(d))
		}
		for _, day := range probe {
			cc, cok := col.At(d, day)
			rc, rok := ref.At(d, day)
			if cok != rok || (cok && !cc.Equal(rc)) {
				t.Fatalf("At(%s, %d) differs: (%v,%v) vs (%v,%v)", d, day, cc, cok, rc, rok)
			}
			if col.MeasuredOn(d, day) != ref.MeasuredOn(d, day) {
				t.Fatalf("MeasuredOn(%s, %d) differs", d, day)
			}
		}
	}
	// The snapshot view must agree with the oracle too.
	sn := col.Snapshot()
	if !reflect.DeepEqual(sn.Domains(), doms) {
		t.Fatalf("snapshot domains differ")
	}
	for i, d := range doms {
		for _, day := range probe {
			id, measured, cok := sn.Lookup(i, day)
			rc, rok := ref.At(d, day)
			if cok != rok || (cok && !sn.Config(id).Equal(rc)) {
				t.Fatalf("Snapshot.Lookup(%s, %d) differs", d, day)
			}
			if measured != ref.MeasuredOn(d, day) {
				t.Fatalf("Snapshot.Lookup(%s, %d) measured flag differs", d, day)
			}
		}
	}
	// VisitEpochs must enumerate exactly the oracle's epochs, with day
	// ranges matching the epoch boundaries History exposes.
	type visit struct {
		domain string
		lo, hi int
	}
	var got []visit
	sn.ForEachEpochIn(sweeps, func(domain string, cfg Config, lo, hi int) {
		got = append(got, visit{domain, lo, hi})
	})
	var want []visit
	for _, d := range doms {
		h := ref.History(d)
		eps := ref.domains[d].epochs
		lo := 0
		for j := range h {
			start, end := eps[j].from, eps[j].lastSeen
			if j+1 < len(eps) {
				end = eps[j+1].from - 1
			}
			l := lo
			for l < len(sweeps) && sweeps[l] < start {
				l++
			}
			h2 := l
			for h2 < len(sweeps) && sweeps[h2] <= end {
				h2++
			}
			lo = h2
			if l < h2 {
				want = append(want, visit{d, l, h2})
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VisitEpochs enumeration differs:\n%v\nvs\n%v", got, want)
	}
	// Finally, the bytes: the two representations must serialize
	// identically.
	var cb, rb bytes.Buffer
	if _, err := col.WriteTo(&cb); err != nil {
		t.Fatalf("columnar WriteTo: %v", err)
	}
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatalf("reference WriteTo: %v", err)
	}
	if !bytes.Equal(cb.Bytes(), rb.Bytes()) {
		t.Fatalf("serialized files differ: %d vs %d bytes", cb.Len(), rb.Len())
	}
}

func TestReferenceEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		col, ref := feedBoth(t, seed, 40, 30)
		assertEquivalent(t, col, ref)
	}
}

// TestReferenceEquivalenceChurn interleaves domains aggressively so the
// columnar store relocates rows constantly and crosses its compaction
// threshold, then checks nothing observable changed.
func TestReferenceEquivalenceChurn(t *testing.T) {
	col, ref := New(), NewReference()
	for i := 0; i < 60; i++ {
		day := simtime.Day(700 + i)
		col.BeginSweep(day)
		ref.BeginSweep(day)
		for j := 0; j < 30; j++ {
			// Alternate each domain's config every sweep: every Add opens a
			// new epoch, so every non-tail domain relocates every sweep.
			c := cfg(
				[]string{fmt.Sprintf("ns%d.p%d.ru.", (i+j)%2, j%3)},
				[]string{fmt.Sprintf("11.0.%d.%d", (i+j)%2, j%3+1)},
				nil,
			)
			name := fmt.Sprintf("churn%02d.ru.", j)
			col.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
			ref.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		}
	}
	assertEquivalent(t, col, ref)
}

// TestReferenceEquivalenceAdversarial covers the normalization edge
// cases: duplicate hosts, mixed case (distinct configs — Normalize sorts
// but never folds case), empty vs nil sections, failures, same-day
// re-measurement.
func TestReferenceEquivalenceAdversarial(t *testing.T) {
	col, ref := New(), NewReference()
	cases := []Config{
		{NSHosts: []string{"b.ru.", "a.ru.", "b.ru."}}, // dup + unsorted
		{NSHosts: []string{"B.ru.", "a.ru."}},          // mixed case stays distinct
		{NSHosts: []string{}, MXHosts: []string{}},     // empty non-nil sections
		{},                                      // all nil
		{Failed: true},                          // failure epoch
		{MXHosts: []string{"mx.ru.", "MX.ru."}}, // case-distinct MX
		{NSHosts: []string{"a.ru.", "a.ru.", "a.ru."}}, // triple dup
		{NSHosts: []string{"b.ru.", "a.ru."}},          // same set as case 0 minus dup
	}
	day := simtime.Day(100)
	for i, c := range cases {
		col.BeginSweep(day)
		ref.BeginSweep(day)
		name := fmt.Sprintf("adv%d.ru.", i%4) // reuse names so configs alternate
		col.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		ref.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		// Same-day duplicate measurement exercises the lastSeen <= day rule.
		col.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		ref.Add(Measurement{Domain: name, Day: day, Config: cloneConfig(c)})
		day += 7
	}
	assertEquivalent(t, col, ref)
}

// TestReferenceEquivalenceJournalReplay replays one journal into both
// representations and byte-compares the stores they produce — the
// crash-resume path must be as representation-independent as the clean
// path.
func TestReferenceEquivalenceJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		day := simtime.Day(300 + i*3)
		rec := JournalSweep{Day: day}
		if i == 4 {
			rec.Missing = true
		} else {
			for jdx := 0; jdx < 12; jdx++ {
				if rng.Intn(4) == 0 {
					continue
				}
				rec.Measurements = append(rec.Measurements, Measurement{
					Domain: fmt.Sprintf("jr%02d.ru.", jdx),
					Day:    day,
					Config: randConfig(rng),
				})
			}
		}
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replay, err := DecodeJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	col, ref := New(), NewReference()
	for _, sw := range replay.Sweeps {
		if sw.Missing {
			col.MarkMissingSweep(sw.Day)
			ref.MarkMissingSweep(sw.Day)
			continue
		}
		col.BeginSweep(sw.Day)
		ref.BeginSweep(sw.Day)
		for _, m := range sw.Measurements {
			col.Add(Measurement{Domain: m.Domain, Day: m.Day, Config: cloneConfig(m.Config)})
			ref.Add(Measurement{Domain: m.Domain, Day: m.Day, Config: cloneConfig(m.Config)})
		}
	}
	assertEquivalent(t, col, ref)
}

// TestReferenceEquivalenceFileRoundTrip writes the reference store's
// bytes and reads them back through the columnar decoder: decode of the
// oracle's file must re-encode to the identical bytes.
func TestReferenceEquivalenceFileRoundTrip(t *testing.T) {
	_, ref := feedBoth(t, 99, 25, 20)
	var rb bytes.Buffer
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(rb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Bytes(), again.Bytes()) {
		t.Fatalf("decode+re-encode of reference bytes changed them: %d vs %d bytes", rb.Len(), again.Len())
	}
}
