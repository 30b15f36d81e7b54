// Package simtime provides the simulation calendar used throughout the
// reproduction. All longitudinal data is keyed by Day, a compact count of
// civil days since the Unix epoch (1970-01-01). Using an integer day rather
// than time.Time keeps measurement records small, makes arithmetic on
// multi-year daily series trivial, and removes time zones from the model
// entirely (the paper's data is daily-granularity zone snapshots).
package simtime

import (
	"fmt"
	"strconv"
	"strings"
)

// Day is a civil date, counted in days since 1970-01-01 (which is Day 0).
// Days before the epoch are negative. Day supports ordinary integer
// comparison: d1 < d2 means d1 is an earlier date.
type Day int32

// Date returns the Day for the given civil year, month and day.
// The algorithm is the classic days-from-civil conversion and is exact for
// all dates in the proleptic Gregorian calendar.
func Date(year, month, day int) Day {
	y := int64(year)
	m := int64(month)
	d := int64(day)
	if m <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return Day(era*146097 + doe - 719468)  // shift epoch to 1970-01-01
}

// YMD returns the civil year, month and day of d.
func (d Day) YMD() (year, month, day int) {
	z := int64(d) + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	dd := doy - (153*mp+2)/5 + 1             // [1, 31]
	var m int64
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return int(y), int(m), int(dd)
}

// String renders d in ISO-8601 form, e.g. "2022-02-24".
func (d Day) String() string {
	y, m, dd := d.YMD()
	return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
}

// Parse parses an ISO-8601 date ("2006-01-02") into a Day.
func Parse(s string) (Day, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return 0, fmt.Errorf("simtime: malformed date %q", s)
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, fmt.Errorf("simtime: malformed date %q", s)
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("simtime: date out of range %q", s)
	}
	return Date(y, m, d), nil
}

// MarshalText renders d in ISO-8601 form. Implementing
// encoding.TextMarshaler (rather than json.Marshaler) makes Day encode
// as "2022-02-24" both as a JSON value and as a JSON map key, so every
// serialization of day-keyed data is human-readable and sorts
// chronologically.
func (d Day) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText parses an ISO-8601 date, the inverse of MarshalText.
func (d *Day) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}

// MustParse is Parse for constants in tests and tables; it panics on error.
func MustParse(s string) Day {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Year returns the civil year of d.
func (d Day) Year() int { y, _, _ := d.YMD(); return y }

// Month returns the civil month (1-12) of d.
func (d Day) Month() int { _, m, _ := d.YMD(); return m }

// DayOfMonth returns the day-of-month (1-31) of d.
func (d Day) DayOfMonth() int { _, _, dd := d.YMD(); return dd }

// Add returns the date n days after d (n may be negative).
func (d Day) Add(n int) Day { return d + Day(n) }

// Sub returns the number of days from e to d (d - e).
func (d Day) Sub(e Day) int { return int(d - e) }

// FirstOfMonth returns the first day of d's month.
func (d Day) FirstOfMonth() Day {
	y, m, _ := d.YMD()
	return Date(y, m, 1)
}

// NextMonth returns the first day of the month after d's month.
func (d Day) NextMonth() Day {
	y, m, _ := d.YMD()
	m++
	if m > 12 {
		m = 1
		y++
	}
	return Date(y, m, 1)
}

// Study window and event dates from the paper (§2, §3).
var (
	// StudyStart is the first day of the OpenINTEL data window.
	StudyStart = Date(2017, 6, 18)
	// StudyEnd is the last day of the OpenINTEL data window. The window is
	// 1803 days long, matching the paper's "nearly five-year period".
	StudyEnd = Date(2022, 5, 25)
	// DenseWindowStart opens the 2022 window the paper analyses at full
	// granularity: sweeps turn from monthly to dense here, and Figures 4
	// and 5 plot only days from here on.
	DenseWindowStart = Date(2022, 2, 1)
	// ConflictStart is the day of the Russian invasion of Ukraine.
	ConflictStart = Date(2022, 2, 24)
	// SanctionsInEffect is the start of the paper's "post-sanctions" period.
	SanctionsInEffect = Date(2022, 3, 26)
	// CTWindowStart and CTWindowEnd delimit the certificate-transparency
	// analysis window of §4.
	CTWindowStart = Date(2022, 1, 1)
	CTWindowEnd   = Date(2022, 5, 15)
	// MeasurementOutage is the dip on 2021-03-22 noted in the paper
	// (footnote 8): a collection outage, not a real infrastructure change.
	MeasurementOutage = Date(2021, 3, 22)
)

// Period is one of the paper's three analysis periods in 2022.
type Period int

const (
	// PreConflict is everything before 2022-02-24.
	PreConflict Period = iota
	// PreSanctions is 2022-02-24 through 2022-03-25 inclusive.
	PreSanctions
	// PostSanctions is 2022-03-26 onward.
	PostSanctions
)

// String returns the paper's name for the period.
func (p Period) String() string {
	switch p {
	case PreConflict:
		return "pre-conflict"
	case PreSanctions:
		return "pre-sanctions"
	case PostSanctions:
		return "post-sanctions"
	default:
		return fmt.Sprintf("Period(%d)", int(p))
	}
}

// PeriodOf classifies a date into the paper's three periods.
func PeriodOf(d Day) Period {
	switch {
	case d < ConflictStart:
		return PreConflict
	case d < SanctionsInEffect:
		return PreSanctions
	default:
		return PostSanctions
	}
}

// Window is an inclusive range of days [From, To]. It is the unit of
// scheduled interventions in the simulation: outage windows on the fault
// layer, analysis periods, and provider-event spans are all day windows.
type Window struct {
	From, To Day
}

// Contains reports whether d falls inside the window (inclusive).
func (w Window) Contains(d Day) bool { return w.From <= d && d <= w.To }

// Len returns the number of days in the window (0 if To < From).
func (w Window) Len() int {
	if w.To < w.From {
		return 0
	}
	return int(w.To-w.From) + 1
}

// String renders the window as "2022-03-03..2022-03-05".
func (w Window) String() string { return w.From.String() + ".." + w.To.String() }

// OneDay returns the window covering exactly d.
func OneDay(d Day) Window { return Window{From: d, To: d} }

// Range iterates days [from, to] inclusive with the given step in days,
// calling fn for each; it stops early if fn returns false.
func Range(from, to Day, step int, fn func(Day) bool) {
	if step <= 0 {
		step = 1
	}
	for d := from; d <= to; d += Day(step) {
		if !fn(d) {
			return
		}
	}
}
