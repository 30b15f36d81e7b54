// Package store is the longitudinal measurement database: per-domain,
// per-sweep DNS measurements with epoch compression. OpenINTEL-style
// collection produces one record per domain per sweep, but domain
// configurations are piecewise-constant, so the store keeps an epoch only
// when the observed configuration changes — a ~50× reduction over naive
// per-day snapshots on the paper's five-year window (the ablation bench in
// bench_test.go quantifies this) — while reconstructing the full snapshot
// for any measured day.
//
// The in-memory representation is columnar and interned (DESIGN
// "Columnar store"): epochs live in parallel global arrays — from and
// lastSeen day columns plus a config-ID column — and every distinct
// Config is stored once in a hash-consed intern table (intern.go). A
// domain is a dense index selecting a contiguous row range, so the
// per-epoch cost is 12 bytes of columns instead of a fat struct of
// slices, which is what lets the paper-scale study (≈6.7M domains ×
// 1,803 days) fit in memory. The representation is invisible at the API:
// every reader returns the same values the pre-columnar store did, and
// the v3 file bytes are identical (reference.go keeps the old
// representation as the equivalence oracle for tests).
package store

import (
	"net/netip"
	"sort"
	"sync"

	"whereru/internal/simtime"
)

// Config is one observed DNS configuration for a domain: its delegated
// name-server set, the addresses those servers resolve to, and the A
// records of the domain apex. All slices are sorted; Configs with equal
// content compare equal via Equal.
type Config struct {
	// NSHosts are the delegated name-server names.
	NSHosts []string
	// NSAddrs is the union of the name servers' A records.
	NSAddrs []netip.Addr
	// ApexAddrs are the domain apex's A records.
	ApexAddrs []netip.Addr
	// MXHosts are the domain's mail-exchanger names (optional; collected
	// when the pipeline's mail extension is enabled).
	MXHosts []string
	// Failed marks a sweep where resolution failed entirely (measurement
	// outage or unreachable infrastructure).
	Failed bool
}

// Normalize sorts the slices in place and returns the config.
func (c Config) Normalize() Config {
	sort.Strings(c.NSHosts)
	sortAddrs(c.NSAddrs)
	sortAddrs(c.ApexAddrs)
	sort.Strings(c.MXHosts)
	return c
}

// sortAddrs sorts in place. Address sets are a handful of entries, so
// insertion sort beats sort.Slice and allocates nothing (sort.Slice
// allocates a reflect-based swapper per call — measurable at sweep
// scale).
func sortAddrs(a []netip.Addr) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Less(a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Equal reports deep equality with another config (both assumed
// normalized).
func (c Config) Equal(o Config) bool {
	return sameSections(&c, o.Failed, o.NSHosts, o.NSAddrs, o.ApexAddrs, o.MXHosts)
}

// Measurement is one sweep's observation of one domain.
type Measurement struct {
	Domain string
	Day    simtime.Day
	Config Config
}

// Store is the measurement database.
//
// Concurrency and aliasing rules the columns obey (Snapshot relies on
// them):
//
//   - epochFrom and epochCfg entries are written once when a row is
//     appended and never mutated in place.
//   - epochLast is extended in place only while its row is the domain's
//     column tail.
//   - A domain that gains an epoch while another domain owns the column
//     tail is relocated: its rows are copied to the tail and the old
//     rows abandoned (dead) until compact rebuilds the columns into
//     fresh arrays.
//
// So any reader holding a frozen length of epochFrom/epochCfg (and its
// own copy of the mutable epochLast and per-domain offsets) sees an
// immutable view, even while Add keeps appending.
type Store struct {
	mu sync.RWMutex

	intern internTable

	// Domain index: byName maps a name to its dense index; names, off and
	// cnt are parallel to it. Domain d's epochs are the rows
	// [off[d], off[d]+cnt[d]) of the epoch columns.
	byName map[string]uint32
	names  []string
	off    []uint32
	cnt    []uint32

	// Epoch columns (see the aliasing rules above).
	epochFrom []simtime.Day
	epochLast []simtime.Day
	epochCfg  []uint32
	live      int64 // live (reachable) epoch rows

	sweeps []simtime.Day // sorted unique sweep days recorded; append-only
	// missing holds scheduled-but-uncollected sweep days (sorted unique):
	// collection outages the analyses must treat as gaps, not data. It is
	// copy-on-write — MarkMissingSweep installs a fresh slice — so
	// MissingSweeps can return it without copying.
	missing []simtime.Day

	// index is the cached sorted domain list and order the matching dense
	// index per position; nil index means dirty (a domain was added since
	// the last build), so a non-nil index always matches names. Rebuilt
	// lazily by lockedView.
	index []string
	order []uint32

	// snap is the snapshot Snapshot last captured, handed out again while
	// gen still equals its stamp. snapMu guards it and makes concurrent
	// callers at one generation share one capture; it is taken before mu,
	// never by a writer.
	snapMu sync.Mutex
	snap   *Snapshot

	// gen is the store revision, bumped on every mutation that changes
	// what a reader could observe (Add, BeginSweep, MarkMissingSweep —
	// and therefore also journal replay and file decode, which go
	// through those). Result caches key on it to invalidate when the
	// store gains sweeps.
	gen uint64
	// naive counts what the uncompressed record count would be, for the
	// compression-ratio ablation.
	naive int64
	// nameBytes tracks domain-name string bytes for MemStats.
	nameBytes int64
}

// New returns an empty store.
func New() *Store {
	s := &Store{byName: make(map[string]uint32)}
	s.intern.init()
	return s
}

// BeginSweep registers a sweep day. Sweeps must be recorded in
// chronological order.
func (s *Store) BeginSweep(day simtime.Day) { s.AddSweep(day, nil) }

// AddSweep records one whole sweep — BeginSweep(day), then Add for each
// of ms in order — under one write lock, so a reader sees the store
// before the sweep or after it, never part of it. The generation moves
// as far as those calls would move it.
func (s *Store) AddSweep(day simtime.Day, ms []Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginSweep(day)
	for _, m := range ms {
		c := m.Config.Normalize()
		addSections(s, m.Domain, m.Day, c.Failed, c.NSHosts, c.NSAddrs, c.ApexAddrs, c.MXHosts)
	}
}

// beginSweep registers day as swept, unless it is already the latest
// sweep. The caller holds the write lock.
func (s *Store) beginSweep(day simtime.Day) {
	if n := len(s.sweeps); n == 0 || s.sweeps[n-1] < day {
		s.sweeps = append(s.sweeps, day)
		s.gen++
	}
}

// MarkMissingSweep records a scheduled sweep day on which no collection
// happened (an outage or a deliberately dropped day). Missing days are
// what make the analysis layer honest about gaps: series points on them
// are carry-forward values, flagged Interpolated rather than presented
// as fresh measurements.
func (s *Store) MarkMissingSweep(day simtime.Day) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.missing), func(i int) bool { return s.missing[i] >= day })
	if i < len(s.missing) && s.missing[i] == day {
		return
	}
	// Copy-on-write: readers hold the previous slice, so build the new
	// list beside it instead of shifting in place.
	out := make([]simtime.Day, len(s.missing)+1)
	copy(out, s.missing[:i])
	out[i] = day
	copy(out[i+1:], s.missing[i:])
	s.missing = out
	s.gen++
}

// Generation returns the store revision: a counter that increases on
// every observable mutation. Two calls returning the same value bracket
// a window in which the store's contents did not change, which is what
// makes it a sound cache-invalidation key.
func (s *Store) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// MissingSweeps returns the scheduled-but-uncollected sweep days. The
// slice is immutable (each mutation installs a fresh one) and shared:
// callers must not modify it. Serve-layer handlers call this per
// request, which is why it does not copy.
func (s *Store) MissingSweeps() []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.missing
}

// Add records a measurement. Measurements for one domain must arrive in
// chronological order (the pipeline guarantees this).
func (s *Store) Add(m Measurement) {
	c := m.Config.Normalize()
	s.mu.Lock()
	defer s.mu.Unlock()
	addSections(s, m.Domain, m.Day, c.Failed, c.NSHosts, c.NSAddrs, c.ApexAddrs, c.MXHosts)
}

// addSections adds one measurement; the caller holds the write lock.
func addSections[S string | []byte](s *Store, domain S, day simtime.Day, failed bool, ns []S, nsAddrs, apex []netip.Addr, mx []S) {
	d, ok := s.byName[string(domain)] // a lookup by converted key does not allocate
	if !ok {
		d = s.newDomain(string(domain))
	}
	// A measurement nearly always repeats its domain's latest epoch, so
	// that is compared first; the intern table hears of the rest.
	var cid uint32
	if n := s.cnt[d]; n > 0 && sameSections(&s.intern.configs[s.epochCfg[s.off[d]+n-1]], failed, ns, nsAddrs, apex, mx) {
		cid = s.epochCfg[s.off[d]+n-1]
	} else {
		cid = internSections(&s.intern, failed, ns, nsAddrs, apex, mx)
	}
	s.addRow(d, day, cid)
}

// newDomain registers a never-seen name and returns its dense index.
func (s *Store) newDomain(name string) uint32 {
	d := uint32(len(s.names))
	s.byName[name] = d
	s.names = append(s.names, name)
	s.off = append(s.off, uint32(len(s.epochFrom)))
	s.cnt = append(s.cnt, 0)
	s.nameBytes += int64(len(name))
	s.index, s.order = nil, nil // new domain invalidates the sorted index
	return d
}

// addRow records that domain d showed config cid on day: the epoch rule
// under Add, AddSweep and journal replay. The caller holds the write lock.
func (s *Store) addRow(d uint32, day simtime.Day, cid uint32) {
	s.naive++
	s.gen++
	o, n := s.off[d], s.cnt[d]
	if n > 0 {
		tail := o + n - 1
		if s.epochCfg[tail] == cid && s.epochLast[tail] <= day {
			s.epochLast[tail] = day
			return
		}
		if o+n != uint32(len(s.epochFrom)) {
			// Another domain owns the column tail: relocate this domain's
			// rows there, abandoning the old ones (compact reclaims them).
			no := uint32(len(s.epochFrom))
			s.epochFrom = append(s.epochFrom, s.epochFrom[o:o+n]...)
			s.epochLast = append(s.epochLast, s.epochLast[o:o+n]...)
			s.epochCfg = append(s.epochCfg, s.epochCfg[o:o+n]...)
			s.off[d] = no
		}
	} else {
		s.off[d] = uint32(len(s.epochFrom))
	}
	s.epochFrom = append(s.epochFrom, day)
	s.epochLast = append(s.epochLast, day)
	s.epochCfg = append(s.epochCfg, cid)
	s.cnt[d]++
	s.live++
	if dead := int64(len(s.epochFrom)) - s.live; dead > s.live && dead > 4096 {
		s.compact()
	}
}

// compact rebuilds the epoch columns without the dead rows relocation
// left behind. Fresh arrays are allocated so snapshots aliasing the old
// columns stay valid.
func (s *Store) compact() {
	from := make([]simtime.Day, 0, s.live)
	last := make([]simtime.Day, 0, s.live)
	cfg := make([]uint32, 0, s.live)
	for d := range s.names {
		o, n := s.off[d], s.cnt[d]
		s.off[d] = uint32(len(from))
		from = append(from, s.epochFrom[o:o+n]...)
		last = append(last, s.epochLast[o:o+n]...)
		cfg = append(cfg, s.epochCfg[o:o+n]...)
	}
	s.epochFrom, s.epochLast, s.epochCfg = from, last, cfg
}

// lookup finds the epoch covering day among the n rows at offset o — the
// last one with from <= day; ok is false when there is none — and whether
// the domain counts as measured on day: the epoch's run reaches day, or a
// later epoch exists (the domain was still in the zone then; one that
// dropped out stops being measured after its last sweep). The last row is
// tried before searching: lookups overwhelmingly ask about a recent day.
func lookup(from, last []simtime.Day, o, n uint32, day simtime.Day) (row uint32, measured, ok bool) {
	if n > 0 && from[o+n-1] <= day {
		return o + n - 1, last[o+n-1] >= day, true
	}
	j := uint32(sort.Search(int(n), func(k int) bool { return from[o+uint32(k)] > day }))
	if j == 0 {
		return 0, false, false
	}
	return o + j - 1, true, true
}

// At returns the configuration observed for domain at the most recent
// sweep at or before day. ok is false when the domain has no measurement
// by then. The returned config's slices alias the store's interned pools
// and must be treated as read-only.
func (s *Store) At(domain string, day simtime.Day) (Config, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.byName[domain]
	if !ok {
		return Config{}, false
	}
	row, _, ok := lookup(s.epochFrom, s.epochLast, s.off[d], s.cnt[d], day)
	if !ok {
		return Config{}, false
	}
	return s.intern.config(s.epochCfg[row]), true
}

// MeasuredOn reports whether the domain was measured on day (see lookup).
func (s *Store) MeasuredOn(domain string, day simtime.Day) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.byName[domain]
	if !ok {
		return false
	}
	_, measured, _ := lookup(s.epochFrom, s.epochLast, s.off[d], s.cnt[d], day)
	return measured
}

// lockedView returns the sorted domain list and, parallel to it, each
// position's dense index, with the store still locked against writers:
// the caller reads the columns that go with the view, then calls unlock.
// (Taking the view before the lock let a new-domain Add slip between,
// leaving the view a domain short of the columns.) A dirty index is
// rebuilt under the write lock, which the caller then keeps — an RWMutex
// cannot be downgraded. The slices are shared and must not be mutated.
func (s *Store) lockedView() (idx []string, ord []uint32, unlock func()) {
	s.mu.RLock()
	if s.index != nil {
		return s.index, s.order, s.mu.RUnlock
	}
	s.mu.RUnlock()
	s.mu.Lock()
	if s.index == nil {
		ord = make([]uint32, len(s.names))
		for i := range ord {
			ord[i] = uint32(i)
		}
		sort.Slice(ord, func(i, j int) bool { return s.names[ord[i]] < s.names[ord[j]] })
		idx = make([]string, len(ord))
		for i, d := range ord {
			idx[i] = s.names[d]
		}
		s.index, s.order = idx, ord
	}
	return s.index, s.order, s.mu.Unlock
}

// Domains returns all measured domain names, sorted.
func (s *Store) Domains() []string {
	idx, _, unlock := s.lockedView()
	unlock()
	return append([]string(nil), idx...)
}

// NumDomains returns the number of measured domains.
func (s *Store) NumDomains() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Sweeps returns the recorded sweep days. The slice is shared and
// immutable through it (the store only ever appends past its length):
// callers must not modify it.
func (s *Store) Sweeps() []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sweeps[:len(s.sweeps):len(s.sweeps)]
}

// Snapshot is a read-only capture of the store, sharing the immutable
// columns with it. Analyses iterate a Snapshot lock-free (and
// concurrently) while collection may continue to mutate the live store.
//
// The capture is cheap at paper scale because most of it is aliasing:
// the from and config-ID columns, the intern table and the sorted name
// list are append-only or frozen, so only the in-place-mutable state is
// copied — the lastSeen column and the per-domain row offsets.
//
// Configurations are addressed by config ID, the dense index the intern
// table gave each distinct Config: append-only, never reused or
// renumbered while the Store lives, so what derives from a config alone
// may be memoised per ID — per store: each numbers its own.
type Snapshot struct {
	gen      uint64
	domains  []string
	off, cnt []uint32 // row range per domains position
	from     []simtime.Day
	last     []simtime.Day
	cfg      []uint32
	configs  []Config
	sweeps   []simtime.Day
}

// Snapshot returns the store's current contents: the one place snapshots
// are captured, once per generation. A snapshot is immutable, so until
// the next mutation every caller — each cold request, every series of a
// report — shares the latest, which the store keeps alive (a lastSeen
// column and two offset columns beyond what it holds anyway).
func (s *Store) Snapshot() *Snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	idx, ord, unlock := s.lockedView()
	defer unlock()
	if s.snap != nil && s.snap.gen == s.gen {
		return s.snap
	}
	off := make([]uint32, len(ord))
	cnt := make([]uint32, len(ord))
	for i, d := range ord {
		off[i], cnt[i] = s.off[d], s.cnt[d]
	}
	rows := len(s.epochFrom)
	s.snap = &Snapshot{
		gen:     s.gen,
		domains: idx,
		off:     off,
		cnt:     cnt,
		from:    s.epochFrom[:rows:rows],
		last:    append(make([]simtime.Day, 0, rows), s.epochLast...),
		cfg:     s.epochCfg[:rows:rows],
		configs: s.intern.view(),
		sweeps:  s.sweeps[:len(s.sweeps):len(s.sweeps)],
	}
	return s.snap
}

// Generation returns the Store.Generation the snapshot froze.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Domains returns the snapshot's sorted domain names. The slice is shared
// and must not be mutated.
func (sn *Snapshot) Domains() []string { return sn.domains }

// NumDomains returns the number of captured domains.
func (sn *Snapshot) NumDomains() int { return len(sn.domains) }

// Sweeps returns the sweep days captured in the snapshot. The slice is
// shared and must not be mutated.
func (sn *Snapshot) Sweeps() []simtime.Day { return sn.sweeps }

// NumConfigs returns how many config IDs the snapshot knows: every ID it
// hands out is below it.
func (sn *Snapshot) NumConfigs() int { return len(sn.configs) }

// Config returns the interned configuration behind a config ID, in place:
// the pointer is into the shared intern table and strictly read-only.
func (sn *Snapshot) Config(id uint32) *Config { return &sn.configs[id] }

// Lookup is Store.At and Store.MeasuredOn in one search for the domain at
// position i: the ID of the configuration it carried into day (ok false
// when it has no measurement by then) and whether it was measured on day.
func (sn *Snapshot) Lookup(i int, day simtime.Day) (id uint32, measured, ok bool) {
	row, measured, ok := lookup(sn.from, sn.last, sn.off[i], sn.cnt[i], day)
	if !ok {
		return 0, false, false
	}
	return sn.cfg[row], measured, true
}

// ConfigIDs returns the config IDs of the domain at position i, one per
// epoch, oldest first. The slice is shared and must not be mutated.
func (sn *Snapshot) ConfigIDs(i int) []uint32 {
	o, n := sn.off[i], sn.cnt[i]
	return sn.cfg[o : o+n : o+n]
}

// ForEachEpochIn yields every domain's epochs intersected with the sorted
// sweep days: fn is called once per (domain, epoch) whose effective
// interval covers at least one of days, with [lo, hi) the covered index
// range into days. An epoch's effective interval runs from its first
// sweep to the day before the next epoch starts (a later epoch means the
// domain stayed in the zone), or to its last sighting for the final epoch
// — exactly the days Store.MeasuredOn reports the domain measured.
//
// This is the analysis fast path: classification work that is constant
// over an epoch runs once per epoch instead of once per day. The visit
// itself allocates nothing — the config passed to fn is the interned
// canonical instance read straight out of the columns.
func (sn *Snapshot) ForEachEpochIn(days []simtime.Day, fn func(domain string, cfg Config, lo, hi int)) {
	sn.VisitEpochs(days, 0, len(sn.domains), fn)
}

// VisitEpochs is ForEachEpochIn restricted to the domains with index in
// [first, last).
func (sn *Snapshot) VisitEpochs(days []simtime.Day, first, last int, fn func(domain string, cfg Config, lo, hi int)) {
	for i, end := max(first, 0), min(last, len(sn.domains)); i < end; i++ {
		domain := sn.domains[i]
		sn.EpochsIn(i, days, func(id uint32, lo, hi int) bool {
			fn(domain, sn.configs[id], lo, hi)
			return true
		})
	}
}

// EpochsIn is the walk under VisitEpochs for the one domain at position
// i, by config ID and stoppable: fn sees each epoch covering at least one
// of the sorted days, oldest first, with the covered index range [lo, hi)
// of days, until it returns false.
func (sn *Snapshot) EpochsIn(i int, days []simtime.Day, fn func(id uint32, lo, hi int) bool) {
	o, n := int(sn.off[i]), int(sn.cnt[i])
	lo := 0
	for j := 0; j < n; j++ {
		row := o + j
		start := sn.from[row]
		end := sn.last[row]
		if j+1 < n {
			end = sn.from[row+1] - 1
		}
		// Epochs ascend, so each search resumes where the last ended.
		l := lo + sort.Search(len(days)-lo, func(k int) bool { return days[lo+k] >= start })
		h := l + sort.Search(len(days)-l, func(k int) bool { return days[l+k] > end })
		lo = h
		if l < h && !fn(sn.cfg[row], l, h) {
			return
		}
	}
}

// Stats describes the store's compression behavior.
type Stats struct {
	Domains int
	Epochs  int64
	// NaiveRecords is what one-record-per-sweep storage would hold.
	NaiveRecords int64
}

// Stats returns compression statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Domains: len(s.names), Epochs: s.live, NaiveRecords: s.naive}
}

// History returns the epochs for one domain as (from, lastSeen, config)
// triples, for inspection tools. The configs alias the interned pools
// and must be treated as read-only.
func (s *Store) History(domain string) []Measurement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.byName[domain]
	if !ok {
		return nil
	}
	o, n := s.off[d], s.cnt[d]
	out := make([]Measurement, n)
	for j := uint32(0); j < n; j++ {
		out[j] = Measurement{Domain: domain, Day: s.epochFrom[o+j], Config: s.intern.config(s.epochCfg[o+j])}
	}
	return out
}
