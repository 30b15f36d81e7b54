package registry

import (
	"fmt"
	"testing"

	"whereru/internal/simtime"
)

// holders names domain d's registrant ORG-<d+1> at registrar REG.RU.
func holders(d int) (string, string) { return fmt.Sprintf("ORG-%d", d+1), "REG.RU" }

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
	g := b.Build(holders)
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
	w, ok := g.Whois("example.ru.")
	if want := (Domain{Name: "example.ru.", Created: day, Removed: del, Registrant: "ORG-1", Registrar: "REG.RU"}); !ok || w != want {
		t.Fatalf("whois: %+v, want %+v", w, want)
	}
	if w, ok := g.Whois("other.ru."); !ok || w.Registrant != "ORG-2" || w.Removed != 0 {
		t.Fatalf("whois of the second registration: %+v", w)
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
	if n := b.Build(nil).Len(); n != 0 {
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
	g := b.Build(nil)
	r := g.Registries()[0]
	// On base+5: d0..d5 registered (6), none removed.
	if got := g.Count(base.Add(5)); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	snap := r.ZoneSnapshot(base.Add(25))
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
	if n := r.g.Len(); n != 10 {
		t.Fatalf("table holds %d records, want 10", n)
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("d%03d.ru.", i)
		if d, ok := r.g.Lookup(name); !ok || r.g.Name(d) != name {
			t.Fatalf("Lookup(%s) = %d, %v", name, d, ok)
		}
	}
}

func TestGroup(t *testing.T) {
	b := NewBuilder(2, "ru.", "xn--p1ai.")
	base := simtime.MustParse("2021-01-01")
	if err := b.Add("xn--80a.xn--p1ai.", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("a.ru.", base, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build(nil)
	if got := g.Count(base); got != 2 {
		t.Fatalf("group Count = %d", got)
	}
	// Zones in group order, whatever the registration order.
	if snap := g.ZoneSnapshot(base); len(snap) != 2 || snap[0] != "a.ru." || snap[1] != "xn--80a.xn--p1ai." {
		t.Fatalf("group snapshot = %v", snap)
	}
	if _, ok := g.Whois("a.ru."); !ok {
		t.Error("group whois .ru failed")
	}
	if _, ok := g.Whois("xn--80a.xn--p1ai."); !ok {
		t.Error("group whois .рф failed")
	}
	if _, ok := g.Whois("a.com."); ok {
		t.Error("group whois out-of-group name succeeded")
	}
	regs := g.Registries()
	if len(regs) != 2 || regs[0].TLD != "ru." || regs[1].TLD != "xn--p1ai." {
		t.Fatalf("Registries = %v", regs)
	}
	if ru, rf := regs[0].ZoneSnapshot(base), regs[1].ZoneSnapshot(base); len(ru) != 1 || len(rf) != 1 || rf[0] != "xn--80a.xn--p1ai." {
		t.Errorf("zone snapshots: ru. %v, xn--p1ai. %v", ru, rf)
	}
}

func BenchmarkZoneSnapshot(b *testing.B) {
	tb := NewBuilder(20000, "ru.")
	for i := 0; i < 20000; i++ {
		if err := tb.Add(fmt.Sprintf("bench%05d.ru.", i), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	r := tb.Build(nil).Registries()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.ZoneSnapshot(10); len(got) != 20000 {
			b.Fatal("wrong size")
		}
	}
}
