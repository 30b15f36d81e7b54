package registry

import (
	"fmt"
	"slices"
	"testing"

	"whereru/internal/simtime"
)

func TestLifecycle(t *testing.T) {
	b := NewBuilder(2, "ru.")
	day := simtime.MustParse("2020-01-15")
	del := day.Add(100)
	if err := b.Add("example.ru", day, del); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("Example.RU.", day.Add(5), 0); err == nil {
		t.Fatal("double registration accepted")
	}
	if err := b.Add("other.ru.", day.Add(5), 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	d, ok := g.Lookup("example.ru.")
	if !ok || d != 0 || g.Name(d) != "example.ru." || g.Len() != 2 {
		t.Fatalf("registered record wrong: %d %v %q of %d", d, ok, g.Name(d), g.Len())
	}
	if !g.ActiveOn(d, day) {
		t.Fatal("not active on creation day")
	}
	if g.ActiveOn(d, day-1) {
		t.Fatal("active before creation")
	}
	if g.ActiveOn(d, del) {
		t.Fatal("active on removal day")
	}
	if !g.ActiveOn(d, del-1) {
		t.Fatal("not active the day before removal")
	}
	if rec, want := g.Record(d), (Domain{Name: "example.ru.", Created: day, Removed: del}); rec != want {
		t.Fatalf("Record: %+v, want %+v", rec, want)
	}
	if rec, want := g.Record(1), (Domain{Name: "other.ru.", Created: day.Add(5)}); rec != want {
		t.Fatalf("Record of the second registration: %+v, want %+v", rec, want)
	}
	if created, ok := g.Created("other.ru."); !ok || created != day.Add(5) {
		t.Fatalf("Created = %s, %v", created, ok)
	}
}

func TestRegisterValidation(t *testing.T) {
	b := NewBuilder(1, "ru.")
	for _, name := range []string{"example.com.", "ru.", "a.b.ru.", "", ".ru."} {
		if err := b.Add(name, 0, 0); err == nil {
			t.Errorf("registration of %q accepted", name)
		}
	}
	if n := b.Build().Len(); n != 0 {
		t.Errorf("refused registrations left %d rows", n)
	}
}

func TestZoneSnapshotAndCount(t *testing.T) {
	b := NewBuilder(10, "ru.")
	base := simtime.MustParse("2021-06-01")
	for i := 9; i >= 0; i-- {
		var removed simtime.Day
		if i == 3 {
			removed = base.Add(20)
		}
		if err := b.Add(fmt.Sprintf("d%03d.ru.", i), base.Add(i), removed); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add("d010.ru.", base, 0); err == nil {
		t.Fatal("an eleventh registration fit in room for ten")
	}
	g := b.Build()
	// On base+5: d0..d5 registered (6), none removed.
	if got := g.Count(base.Add(5)); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	snap := g.ZoneSnapshot(base.Add(25))
	if len(snap) != 9 {
		t.Fatalf("snapshot size = %d, want 9", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Fatal("snapshot not sorted")
		}
	}
	for _, n := range snap {
		if n == "d003.ru." {
			t.Fatal("removed domain in snapshot")
		}
	}
	if n := g.Len(); n != 10 {
		t.Fatalf("table holds %d records, want 10", n)
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("d%03d.ru.", i)
		if d, ok := g.Lookup(name); !ok || g.Name(d) != name {
			t.Fatalf("Lookup(%s) = %d, %v", name, d, ok)
		}
	}
}

func TestGroup(t *testing.T) {
	b := NewBuilder(3, "ru.", "xn--p1ai.")
	base := simtime.MustParse("2021-01-01")
	for _, name := range []string{"zz.ru.", "xn--80a.xn--p1ai.", "a.ru."} {
		if err := b.Add(name, base, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if got := g.Count(base); got != 3 {
		t.Fatalf("group Count = %d", got)
	}
	// One name order across the zones, whatever the registration order:
	// an .рф name sorts between two .ru ones.
	if snap := g.ZoneSnapshot(base); !slices.Equal(snap, []string{"a.ru.", "xn--80a.xn--p1ai.", "zz.ru."}) {
		t.Fatalf("group snapshot = %v", snap)
	}
	// Created answers a name in any case, with or without the trailing
	// dot, in either zone, and misses a name outside the group.
	for _, name := range []string{"a.ru.", "A.RU", "a.ru", "xn--80a.xn--p1ai.", "XN--80A.XN--P1AI"} {
		if created, ok := g.Created(name); !ok || created != base {
			t.Errorf("Created(%q) = %s, %v", name, created, ok)
		}
	}
	for _, name := range []string{"a.com.", "b.ru.", "ru.", ""} {
		if created, ok := g.Created(name); ok {
			t.Errorf("Created(%q) = %s for a name outside the group", name, created)
		}
	}
}

func BenchmarkZoneSnapshot(b *testing.B) {
	tb := NewBuilder(20000, "ru.")
	for i := 0; i < 20000; i++ {
		if err := tb.Add(fmt.Sprintf("bench%05d.ru.", i), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	g := tb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.ZoneSnapshot(10); len(got) != 20000 {
			b.Fatal("wrong size")
		}
	}
}
