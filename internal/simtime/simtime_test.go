package simtime

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"
)

func TestDateRoundTrip(t *testing.T) {
	cases := []struct {
		y, m, d int
		want    string
	}{
		{1970, 1, 1, "1970-01-01"},
		{2017, 6, 18, "2017-06-18"},
		{2022, 2, 24, "2022-02-24"},
		{2022, 3, 26, "2022-03-26"},
		{2022, 5, 25, "2022-05-25"},
		{2000, 2, 29, "2000-02-29"},
		{1999, 12, 31, "1999-12-31"},
		{2100, 1, 1, "2100-01-01"},
	}
	for _, c := range cases {
		d := Date(c.y, c.m, c.d)
		if got := d.String(); got != c.want {
			t.Errorf("Date(%d,%d,%d).String() = %q, want %q", c.y, c.m, c.d, got, c.want)
		}
		y2, m2, d2 := d.YMD()
		if y2 != c.y || m2 != c.m || d2 != c.d {
			t.Errorf("YMD round trip failed for %s: got %d-%d-%d", c.want, y2, m2, d2)
		}
	}
}

func TestEpoch(t *testing.T) {
	if Date(1970, 1, 1) != 0 {
		t.Fatalf("epoch: Date(1970,1,1) = %d, want 0", Date(1970, 1, 1))
	}
	if Date(1970, 1, 2) != 1 {
		t.Fatalf("Date(1970,1,2) = %d, want 1", Date(1970, 1, 2))
	}
	if Date(1969, 12, 31) != -1 {
		t.Fatalf("Date(1969,12,31) = %d, want -1", Date(1969, 12, 31))
	}
}

func TestAgainstTimePackage(t *testing.T) {
	// Cross-check against the standard library over a broad range.
	start := time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 15000; i += 17 {
		tt := start.AddDate(0, 0, i)
		want := Day(tt.Unix() / 86400)
		got := Date(tt.Year(), int(tt.Month()), tt.Day())
		if got != want {
			t.Fatalf("Date(%v) = %d, want %d", tt, got, want)
		}
	}
}

func TestStudyWindowLength(t *testing.T) {
	// The paper states the study spans 1803 days.
	if got := StudyEnd.Sub(StudyStart) + 1; got != 1803 {
		t.Errorf("study window = %d days, want 1803", got)
	}
}

func TestPeriodOf(t *testing.T) {
	cases := []struct {
		date string
		want Period
	}{
		{"2017-06-18", PreConflict},
		{"2022-02-23", PreConflict},
		{"2022-02-24", PreSanctions},
		{"2022-03-25", PreSanctions},
		{"2022-03-26", PostSanctions},
		{"2022-05-25", PostSanctions},
	}
	for _, c := range cases {
		if got := PeriodOf(MustParse(c.date)); got != c.want {
			t.Errorf("PeriodOf(%s) = %v, want %v", c.date, got, c.want)
		}
	}
}

func TestPeriodString(t *testing.T) {
	if PreConflict.String() != "pre-conflict" ||
		PreSanctions.String() != "pre-sanctions" ||
		PostSanctions.String() != "post-sanctions" {
		t.Error("period names do not match the paper's terminology")
	}
	if Period(99).String() != "Period(99)" {
		t.Error("unknown period should render numerically")
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "2022", "2022-13-01", "2022-00-10", "2022-01-32", "a-b-c", "2022/01/02",
		"2022-02-31", "2022-04-31", "2021-02-29", "2022-2-24", "+2022-02-24"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	f := func(n int16) bool {
		d := Day(int32(n)) + Date(2000, 1, 1)
		parsed, err := Parse(d.String())
		return err == nil && parsed == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParse holds Parse to its contract: it never panics, what it accepts
// renders back to the same string, and for 4-digit years it accepts
// exactly what time.Parse accepts as a "2006-01-02" date.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"2022-02-24", "0000-01-01", "9999-12-31", "2024-02-29",
		"2022-02-31", "2022-04-31", "2021-02-29", "2022-2-24", "+2022-02-24", "-001-01-01", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := Parse(s)
		if err == nil && d.String() != s {
			t.Errorf("Parse(%q) = %s: accepted a string it does not render", s, d)
		}
		if len(s) >= 4 && isDigits(s[:4]) {
			if _, terr := time.Parse("2006-01-02", s); (err == nil) != (terr == nil) {
				t.Errorf("Parse(%q) error %v, time.Parse error %v", s, err, terr)
			}
		}
	})
}

func isDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func TestMonthHelpers(t *testing.T) {
	d := MustParse("2022-02-24")
	if d.NextMonth().String() != "2022-03-01" {
		t.Errorf("NextMonth = %s", d.NextMonth())
	}
	dec := MustParse("2021-12-05")
	if dec.NextMonth().String() != "2022-01-01" {
		t.Errorf("NextMonth across year = %s", dec.NextMonth())
	}
}

func TestAddSub(t *testing.T) {
	d := MustParse("2022-02-24")
	if d.Add(30).String() != "2022-03-26" {
		t.Errorf("Add(30) = %s, want 2022-03-26", d.Add(30))
	}
	if d.Add(-1).String() != "2022-02-23" {
		t.Errorf("Add(-1) = %s", d.Add(-1))
	}
	if MustParse("2022-03-26").Sub(d) != 30 {
		t.Error("Sub inverse of Add failed")
	}
}

func TestWindow(t *testing.T) {
	w := Window{From: Date(2022, 3, 3), To: Date(2022, 3, 5)}
	if w.Len() != 3 {
		t.Errorf("Len = %d, want 3", w.Len())
	}
	for d := w.From - 1; d <= w.To+1; d++ {
		want := d >= w.From && d <= w.To
		if w.Contains(d) != want {
			t.Errorf("Contains(%s) = %v, want %v", d, !want, want)
		}
	}
	if got := w.String(); got != "2022-03-03..2022-03-05" {
		t.Errorf("String = %q", got)
	}
	one := OneDay(Date(2022, 3, 3))
	if one.Len() != 1 || !one.Contains(Date(2022, 3, 3)) || one.Contains(Date(2022, 3, 4)) {
		t.Errorf("OneDay = %+v", one)
	}
	// An inverted window contains nothing.
	inv := Window{From: 10, To: 5}
	if inv.Contains(7) || inv.Len() != 0 {
		t.Errorf("inverted window: Contains=%v Len=%d", inv.Contains(7), inv.Len())
	}
}

func TestDayTextMarshalRoundTrip(t *testing.T) {
	var buf []byte
	var err error
	day := Date(2022, 2, 24)
	if buf, err = day.MarshalText(); err != nil || string(buf) != "2022-02-24" {
		t.Fatalf("MarshalText = %q, %v", buf, err)
	}
	var back Day
	if err := back.UnmarshalText(buf); err != nil || back != day {
		t.Fatalf("UnmarshalText(%q) = %v, %v", buf, back, err)
	}
	if err := back.UnmarshalText([]byte("not-a-date")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDayJSONEncoding(t *testing.T) {
	// Day must encode as an ISO date both as a JSON value and as a JSON
	// map key (the serve layer relies on both).
	type wrapper struct {
		Day   Day         `json:"day"`
		ByDay map[Day]int `json:"by_day"`
	}
	b, err := json.Marshal(wrapper{Day: Date(2022, 5, 25), ByDay: map[Day]int{Date(2022, 1, 2): 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"day":"2022-05-25","by_day":{"2022-01-02":7}}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
	var w wrapper
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if w.Day != Date(2022, 5, 25) || w.ByDay[Date(2022, 1, 2)] != 7 {
		t.Fatalf("round trip = %+v", w)
	}
}
