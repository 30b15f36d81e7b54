// Package stream is the live feeder of the analysis layer: an engine
// that holds one analysis.Accumulator per longitudinal series the serve
// API exposes (Figures 1/2/3/4/5, hosting, mail, reachability, latency,
// per-sweep counts) and folds one journal segment's deltas into them
// instead of revisiting all epochs. What a series counts is defined once,
// in internal/analysis; this package only decides which axis ranges a
// segment changed.
//
// The contract is byte-identity: after folding segments 1..k, every
// getter returns element-for-element exactly what a cold
// analysis.Analyzer recompute over the same k segments returns (the
// equivalence tests assert this through reflect.DeepEqual and through
// the serve layer's rendered JSON). What makes a fold O(day) rather
// than O(study) is the same piecewise-constant insight the columnar
// store compresses:
//
//   - Appending sweep day T only changes the series at axis days in
//     (prevSeen(domain), T] for domains measured on T. A domain whose
//     config is unchanged extends its current epoch over that whole
//     range; a changed config closes the old epoch at T-1 (so gap days
//     in between carry the old classification) and opens a new one at
//     T. Domains absent from the sweep are untouched — their final
//     epoch still ends at their last-seen day, exactly as the store's
//     effective-interval rule reads it.
//   - A missing-day marker appends an Interpolated axis point that is
//     all zeros until a later sweep's backfill covers it.
//
// Per-domain cursors (last measured axis index + last config) are the
// only cross-fold state besides the accumulators themselves, and an
// accumulator covers a range in time independent of its length, so fold
// cost is proportional to the segment's measurements — independent of
// how long the study already is. FoldStats counts the work done, which
// is what the O(day) tests pin.
package stream

import (
	"fmt"
	"sync"

	"whereru/internal/analysis"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Config wires an Engine to a study's analysis context.
type Config struct {
	// Analyzer supplies the series accumulators (and through them the
	// geolocation, address plan and route oracle); it is only read.
	Analyzer *analysis.Analyzer
	// Sanctioned is the Figure 5 domain filter (nil folds Figure 5 over
	// all domains, like a study without sanction data).
	Sanctioned analysis.Filter
	// DenseCutoff is the first axis day of the dense-window figures
	// (4 and 5); days before it are excluded from those two series.
	// Zero includes every day.
	DenseCutoff simtime.Day
}

// FoldStats counts the work one fold performed. The counters are the
// ground truth of the O(day) contract: for a fixed sweep, they are
// independent of how many segments were folded before it.
type FoldStats struct {
	Day     simtime.Day
	Missing bool
	// Measurements is the number of measurements in the folded segment.
	Measurements int
	// DomainsTouched counts domains whose cursor advanced.
	DomainsTouched int
	// Classifications counts classifier/route evaluations: one per
	// (series, covered range, geolocation or route version window).
	Classifications int
	// PointsPatched counts counter-column range updates: one per column a
	// classification counts in, however many axis days the range spans
	// (the accumulators keep difference columns, so a range is patched at
	// its two ends).
	PointsPatched int
}

// cursor is the per-domain fold state: the axis index of the domain's
// last measurement and the (normalized) config it carried.
type cursor struct {
	lastIdx int
	cfg     store.Config
}

// slot binds one accumulator to the engine's global axis. A series may
// admit only part of it — the dense-window figures start at a cutoff, the
// per-sweep counts skip missing days — so pos maps global indices to the
// accumulator's own: pos[i] is the number of admitted days before global
// index i (len(axis)+1 entries).
type slot struct {
	acc interface {
		Extend(day simtime.Day, swept bool)
		Cover(domain string, cfg store.Config, lo, hi int) (windows, updates int)
	}
	cutoff    simtime.Day
	sweptOnly bool
	pos       []int
}

func (s *slot) extend(day simtime.Day, swept bool) {
	n := s.pos[len(s.pos)-1]
	if day >= s.cutoff && (swept || !s.sweptOnly) {
		s.acc.Extend(day, swept)
		n++
	}
	s.pos = append(s.pos, n)
}

// cover applies coverage of the inclusive global range [lo, hi].
func (s *slot) cover(domain string, cfg store.Config, lo, hi int, st *FoldStats) {
	l, h := s.pos[lo], s.pos[hi+1]-1
	if l > h {
		return
	}
	windows, updates := s.acc.Cover(domain, cfg, l, h)
	st.Classifications += windows
	st.PointsPatched += updates
}

// Engine holds the accumulator for every series. All methods are safe
// for concurrent use: folds take the write lock, getters the read lock
// and return copies.
type Engine struct {
	mu sync.RWMutex

	// days is the global axis: every folded day (sweep or missing), in
	// ascending order — the same axis core.Study.keyDays() computes.
	days    []simtime.Day
	cursors map[string]cursor

	fig1, fig2, fig5, hosting *analysis.Accumulator[analysis.Point]
	fig3                      *analysis.Accumulator[analysis.TLDSharePoint]
	fig4                      *analysis.Accumulator[analysis.ASNSharePoint]
	mail                      *analysis.Accumulator[analysis.MailSharePoint]
	reach                     *analysis.Accumulator[analysis.ReachPoint]
	lat                       *analysis.Accumulator[analysis.RouteLatencyPoint]
	counts                    *analysis.Accumulator[analysis.SweepCount]
	slots                     []*slot

	folds uint64
}

// New builds an empty engine; feed it journal segments with Fold.
func New(cfg Config) *Engine {
	a := cfg.Analyzer
	e := &Engine{
		cursors: make(map[string]cursor),
		fig1:    a.NSComposition(nil),
		fig2:    a.TLDDependency(nil),
		fig3:    a.TLDShare(nil),
		fig4:    a.ASNShare(nil),
		fig5:    a.NSComposition(cfg.Sanctioned),
		hosting: a.HostingComposition(nil),
		mail:    a.MailProvider(nil),
		reach:   a.Reachability(nil),
		lat:     a.RouteLatency(nil),
		counts:  a.SweepCount(nil),
	}
	e.slots = []*slot{
		{acc: e.fig1}, {acc: e.fig2}, {acc: e.fig3}, {acc: e.hosting},
		{acc: e.mail}, {acc: e.reach}, {acc: e.lat},
		{acc: e.fig4, cutoff: cfg.DenseCutoff}, {acc: e.fig5, cutoff: cfg.DenseCutoff},
		{acc: e.counts, sweptOnly: true},
	}
	for _, s := range e.slots {
		s.pos = []int{0}
	}
	return e
}

// Fold applies one journal segment. Segments must arrive in ascending
// day order — the order the journal records them — with at most one
// measurement per domain per segment (the journal's own invariants).
func (e *Engine) Fold(rec store.JournalSweep) (FoldStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := FoldStats{Day: rec.Day, Missing: rec.Missing, Measurements: len(rec.Measurements)}
	if n := len(e.days); n > 0 && rec.Day <= e.days[n-1] {
		return st, fmt.Errorf("stream: fold of %s out of order (axis ends at %s)", rec.Day, e.days[n-1])
	}
	gi := len(e.days)
	swept := !rec.Missing
	e.days = append(e.days, rec.Day)
	for _, s := range e.slots {
		s.extend(rec.Day, swept)
	}
	if swept {
		for _, m := range rec.Measurements {
			cfg := m.Config.Normalize()
			cur, seen := e.cursors[m.Domain]
			if seen && cur.lastIdx >= gi {
				// Duplicate measurement within one segment: the journal
				// never produces one; ignore rather than double-count.
				continue
			}
			st.DomainsTouched++
			switch {
			case !seen:
				e.coverAll(m.Domain, cfg, gi, gi, &st)
			case cur.cfg.Equal(cfg):
				// Same config: the store extends the tail epoch, which
				// retroactively covers every axis day since the previous
				// measurement (gap days, and sweep days the domain sat
				// out before re-entering identically).
				e.coverAll(m.Domain, cur.cfg, cur.lastIdx+1, gi, &st)
			default:
				// Changed config: the old epoch's effective end becomes
				// T-1, so intermediate axis days carry the old
				// classification; day T gets the new one.
				if cur.lastIdx+1 <= gi-1 {
					e.coverAll(m.Domain, cur.cfg, cur.lastIdx+1, gi-1, &st)
				}
				e.coverAll(m.Domain, cfg, gi, gi, &st)
			}
			e.cursors[m.Domain] = cursor{lastIdx: gi, cfg: cfg}
		}
	}
	e.folds++
	return st, nil
}

func (e *Engine) coverAll(domain string, cfg store.Config, lo, hi int, st *FoldStats) {
	for _, s := range e.slots {
		s.cover(domain, cfg, lo, hi, st)
	}
}

// points reads one accumulator under the read lock.
func points[P any](e *Engine, acc *analysis.Accumulator[P]) []P {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return acc.Points()
}

// The getters each match the corresponding core.Study method element for
// element.

// Fig1 returns the NS-composition series.
func (e *Engine) Fig1() []analysis.Point { return points(e, e.fig1) }

// Fig2 returns the TLD-dependency series.
func (e *Engine) Fig2() []analysis.Point { return points(e, e.fig2) }

// Fig3 returns the per-TLD share series.
func (e *Engine) Fig3() []analysis.TLDSharePoint { return points(e, e.fig3) }

// Fig4 returns the hosting-ASN share series (dense window).
func (e *Engine) Fig4() []analysis.ASNSharePoint { return points(e, e.fig4) }

// Fig5 returns the sanctioned-domain NS-composition series (dense
// window).
func (e *Engine) Fig5() []analysis.Point { return points(e, e.fig5) }

// Hosting returns the §3.1 hosting-composition series.
func (e *Engine) Hosting() []analysis.Point { return points(e, e.hosting) }

// Mail returns the mail-operator share series.
func (e *Engine) Mail() []analysis.MailSharePoint { return points(e, e.mail) }

// Reachability returns the per-day reachability series.
func (e *Engine) Reachability() []analysis.ReachPoint { return points(e, e.reach) }

// RouteLatency returns the simulated resolution-latency series.
func (e *Engine) RouteLatency() []analysis.RouteLatencyPoint { return points(e, e.lat) }

// SweepCounts returns the per-sweep measurement counts.
func (e *Engine) SweepCounts() []analysis.SweepCount { return points(e, e.counts) }

// LastDay returns the most recently folded day (ok=false before any
// fold).
func (e *Engine) LastDay() (simtime.Day, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.days) == 0 {
		return 0, false
	}
	return e.days[len(e.days)-1], true
}

// Folds returns how many segments have been folded.
func (e *Engine) Folds() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.folds
}
