package store

import (
	"io"
	"sort"
	"sync"

	"whereru/internal/simtime"
)

// ReferenceStore is the pre-columnar store representation — a
// map[string]*series of fat per-epoch structs — kept as the equivalence
// oracle for the columnar Store. It is deliberately simple and
// allocation-heavy: its job is to be obviously correct so tests can feed
// both stores the same measurement stream and byte-compare the results
// (WriteTo output, At/History answers, report bytes downstream).
//
// It lives in the main package (no build tag) so equivalence tests in
// other packages can construct it, but nothing outside tests should: the
// columnar Store is the production representation.
type ReferenceStore struct {
	mu      sync.RWMutex
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.sweeps); n == 0 || s.sweeps[n-1] < day {
		s.sweeps = append(s.sweeps, day)
	}
}

// MarkMissingSweep records a scheduled-but-uncollected sweep day.
func (s *ReferenceStore) MarkMissingSweep(day simtime.Day) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.domains))
	for d := range s.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Sweeps returns the recorded sweep days.
func (s *ReferenceStore) Sweeps() []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]simtime.Day(nil), s.sweeps...)
}

// MissingSweeps returns the scheduled-but-uncollected sweep days.
func (s *ReferenceStore) MissingSweeps() []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]simtime.Day(nil), s.missing...)
}

// History mirrors Store.History.
func (s *ReferenceStore) History(domain string) []Measurement {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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
