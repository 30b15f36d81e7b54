package zone

import (
	"testing"

	"whereru/internal/dns"
)

func TestCompareEmptyOnIdentical(t *testing.T) {
	a := buildRuZone(t)
	b := buildRuZone(t)
	d := Compare(a, b)
	if len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("identical zones differ: %+v", d)
	}
}

func TestCompareDetectsChanges(t *testing.T) {
	old := buildRuZone(t)
	new := buildRuZone(t)
	// A new registration…
	if err := new.Add(dns.NewNS("fresh.ru.", 3600, "ns1.hosting.ru.")); err != nil {
		t.Fatal(err)
	}
	// …a deletion…
	new.RemoveRRset("direct.ru.", dns.TypeA)
	// …and an NS change.
	new.RemoveRRset("example.ru.", dns.TypeNS)
	if err := new.Add(dns.NewNS("example.ru.", 3600, "ns9.elsewhere.com.")); err != nil {
		t.Fatal(err)
	}

	d := Compare(old, new)
	if len(d.Added) == 0 && len(d.Removed) == 0 {
		t.Fatal("changes not detected")
	}
	hasAdded := func(name string, typ dns.Type) bool {
		for _, rr := range d.Added {
			if rr.Name == name && rr.Type == typ {
				return true
			}
		}
		return false
	}
	hasRemoved := func(name string, typ dns.Type) bool {
		for _, rr := range d.Removed {
			if rr.Name == name && rr.Type == typ {
				return true
			}
		}
		return false
	}
	if !hasAdded("fresh.ru.", dns.TypeNS) {
		t.Error("new registration missing from Added")
	}
	if !hasRemoved("direct.ru.", dns.TypeA) {
		t.Error("deleted A missing from Removed")
	}
	if !hasAdded("example.ru.", dns.TypeNS) || !hasRemoved("example.ru.", dns.TypeNS) {
		t.Error("NS change not reflected on both sides")
	}

	changed := ChangedDelegations(old, new)
	want := map[string]bool{"fresh.ru.": true, "example.ru.": true}
	if len(changed) != len(want) {
		t.Fatalf("ChangedDelegations = %v", changed)
	}
	for _, n := range changed {
		if !want[n] {
			t.Fatalf("unexpected changed delegation %s", n)
		}
	}
}

func TestCompareIgnoresTTL(t *testing.T) {
	old := New("ru.")
	new := New("ru.")
	if err := old.Add(dns.NewA("x.ru.", 300, addr("10.0.0.1"))); err != nil {
		t.Fatal(err)
	}
	if err := new.Add(dns.NewA("x.ru.", 9999, addr("10.0.0.1"))); err != nil {
		t.Fatal(err)
	}
	if d := Compare(old, new); len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("TTL-only change reported: %+v", d)
	}
}
