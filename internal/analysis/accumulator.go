package analysis

import (
	"sort"

	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Every longitudinal series is one rule — "a domain holding config c
// over a run of axis days adds 1 to these counter columns" — and this
// file is the one engine that runs it. A series supplies an emit function
// (classify a config once, name the columns it counts in) and a read
// function (turn summed columns into the public point type); the
// Accumulator owns the day axis, splits each covered range at
// geolocation/route version boundaries so emit runs once per window, and
// keeps every column as a difference array, so covering a range costs
// O(1) per column however long the range or the axis is.
//
// Two feeders drive it. The cold feeder (cold, in engine.go) lays out a
// fixed axis and covers it from a store snapshot's epochs, one
// accumulator per call in the calling goroutine. The live feeder
// (internal/stream) extends the axis one journal segment at a time and
// covers only the ranges that segment changed. Both produce the same
// columns, so they cannot disagree about a series' definition; the
// per-day reference* paths and the naive oracles in the tests judge the
// definitions themselves.

// colKey names one counter column of a series: a column family plus the
// string or number that keys it within the family.
type colKey struct {
	name string // TLD, mail zone or country
	num  uint32 // composition class, ASN or latency bucket
	kind uint8
}

// Column families. A series uses the few that apply to it.
const (
	colKeyed            uint8 = iota // per class / TLD / ASN / mail zone / latency bucket
	colTotal                         // the series' population
	colWithMail                      // domains publishing any MX
	colReachable                     // domains with a routed name-server address
	colCountry                       // domains with a name server in the country
	colCountryReachable              // … and a routed one there
	colASN                           // domains with a name server in the ASN
	colASNReachable                  // … and a routed one there
	colCountryBucket                 // per-country latency bucket
	colFailed                        // failed measurements
	colNXDomain                      // measured, no delegation
	colUnreachable                   // delegated, no name-server address
)

// emitFunc classifies cfg as of day and appends the distinct columns a
// domain holding it counts in. The result may depend on day only through
// the series' version function.
type emitFunc func(day simtime.Day, cfg store.Config, keys []colKey) []colKey

// Accumulator is one series over a growable day axis. It is not safe for
// concurrent use; the cold feeder owns one per call and the stream
// engine guards its set with a lock. Points only reads.
type Accumulator[P any] struct {
	filter  Filter
	version func(simtime.Day) int // nil: the classification never varies by day
	emit    emitFunc
	read    func(days []simtime.Day, swept []bool, c columns) []P

	days  []simtime.Day
	swept []bool
	wins  []int // axis index at which each version window starts
	ver   int   // version of the last window
	cols  map[colKey][]int
	keys  []colKey // emit scratch

	// Filter memo: feeders cover a domain's ranges consecutively.
	domain       string
	keep, cached bool
}

func newAccumulator[P any](filter Filter, version func(simtime.Day) int, emit emitFunc,
	read func(days []simtime.Day, swept []bool, c columns) []P) *Accumulator[P] {
	return &Accumulator[P]{filter: filter, version: version, emit: emit, read: read, cols: make(map[colKey][]int)}
}

// Extend appends day to the axis; days must ascend. swept is false for a
// day no sweep covered (its point is flagged Interpolated).
func (a *Accumulator[P]) Extend(day simtime.Day, swept bool) {
	v := 0
	if a.version != nil {
		v = a.version(day)
	}
	if len(a.days) == 0 || v != a.ver {
		a.wins, a.ver = append(a.wins, len(a.days)), v
	}
	a.days = append(a.days, day)
	a.swept = append(a.swept, swept)
}

// Cover counts domain as holding cfg on the axis indices lo..hi
// inclusive. It returns the work done: version windows classified and
// column ranges updated — both independent of hi-lo and the axis length.
func (a *Accumulator[P]) Cover(domain string, cfg store.Config, lo, hi int) (windows, updates int) {
	if a.filter != nil {
		if !a.cached || domain != a.domain {
			a.domain, a.keep, a.cached = domain, a.filter(domain), true
		}
		if !a.keep {
			return 0, 0
		}
	}
	for w := sort.SearchInts(a.wins, lo+1) - 1; w < len(a.wins) && a.wins[w] <= hi; w++ {
		l, h := max(lo, a.wins[w]), hi+1
		if w+1 < len(a.wins) {
			h = min(h, a.wins[w+1])
		}
		a.keys = a.emit(a.days[l], cfg, a.keys[:0])
		for _, k := range a.keys {
			col := a.cols[k]
			if len(col) <= h {
				col = append(col, make([]int, h+1-len(col))...)
				a.cols[k] = col
			}
			col[l]++
			col[h]--
		}
		windows++
		updates += len(a.keys)
	}
	return windows, updates
}

// Points sums the difference columns along the axis and renders the
// series. The result shares nothing with the accumulator.
func (a *Accumulator[P]) Points() []P {
	n := len(a.days)
	c := columns{m: make(map[colKey][]int, len(a.cols)), zero: make([]int, n)}
	buf := make([]int, n*len(a.cols)) // one backing array for every column
	for k, diff := range a.cols {
		col, run := buf[:n:n], 0
		buf = buf[n:]
		for i := range col {
			if i < len(diff) {
				run += diff[i]
			}
			col[i] = run
		}
		c.m[k] = col
	}
	return a.read(a.days, a.swept, c)
}

// columns is a series' per-day counts, one slice per column.
type columns struct {
	m    map[colKey][]int
	zero []int
}

// col returns the per-day counts of k (all zero when nothing counted).
func (c columns) col(k colKey) []int {
	if col, ok := c.m[k]; ok {
		return col
	}
	return c.zero
}

// keys returns the columns of one family sorted by name, then number —
// the order the public breakdowns list countries and ASNs in.
func (c columns) keys(kind uint8) []colKey {
	var out []colKey
	for k := range c.m {
		if k.kind == kind {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].num < out[j].num
	})
	return out
}

// countsBy renders the colKeyed columns as one count map per day,
// omitting zero counts like the per-day reference paths do.
func countsBy[K comparable](c columns, n int, key func(colKey) K) []map[K]int {
	out := make([]map[K]int, n)
	for i := range out {
		out[i] = make(map[K]int)
	}
	for k, col := range c.m {
		if k.kind != colKeyed {
			continue
		}
		for i, v := range col {
			if v > 0 {
				out[i][key(k)] = v
			}
		}
	}
	return out
}
