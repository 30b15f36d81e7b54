package geo

import (
	"net/netip"
	"testing"

	"whereru/internal/simtime"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

func TestLookupBasic(t *testing.T) {
	db := NewDB()
	b := NewBuilder().
		Add(pfx("11.0.0.0/16"), RU).
		Add(pfx("11.1.0.0/16"), US).
		Add(pfx("11.2.0.0/16"), DE)
	if err := db.Snapshot(simtime.StudyStart, b); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		want string
	}{
		{"11.0.0.1", RU},
		{"11.0.255.255", RU},
		{"11.1.12.13", US},
		{"11.2.0.0", DE},
	}
	for _, c := range cases {
		got, ok := db.Lookup(simtime.StudyStart, ip(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q,%v want %q", c.addr, got, ok, c.want)
		}
	}
	if _, ok := db.Lookup(simtime.StudyStart, ip("12.0.0.1")); ok {
		t.Error("unmapped address resolved")
	}
	if _, ok := db.Lookup(simtime.StudyStart-1, ip("11.0.0.1")); ok {
		t.Error("lookup before first snapshot resolved")
	}
	if _, ok := db.Lookup(simtime.StudyStart, ip("2001:db8::1")); ok {
		t.Error("IPv6 lookup resolved in IPv4-only DB")
	}
}

func TestVersionedSnapshots(t *testing.T) {
	// The Netnod scenario: space that geolocates to SE until March 3,
	// 2022, then to RU.
	db := NewDB()
	cut := simtime.MustParse("2022-03-03")
	if err := db.Snapshot(simtime.StudyStart, NewBuilder().Add(pfx("11.5.0.0/16"), SE)); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(cut, NewBuilder().Add(pfx("11.5.0.0/16"), RU)); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Lookup(cut.Add(-1), ip("11.5.1.1")); got != SE {
		t.Errorf("day before cut = %q, want SE", got)
	}
	if got, _ := db.Lookup(cut, ip("11.5.1.1")); got != RU {
		t.Errorf("day of cut = %q, want RU", got)
	}
	if got, _ := db.Lookup(simtime.StudyEnd, ip("11.5.1.1")); got != RU {
		t.Errorf("after cut = %q, want RU", got)
	}
	days := db.Snapshots()
	if len(days) != 2 || days[0] != simtime.StudyStart || days[1] != cut {
		t.Errorf("Snapshots = %v", days)
	}
}

func TestVersionIndex(t *testing.T) {
	db := NewDB()
	cut := simtime.MustParse("2022-03-03")
	if db.Version(simtime.StudyStart) != -1 {
		t.Error("empty DB should report version -1")
	}
	if err := db.Snapshot(simtime.StudyStart, NewBuilder().Add(pfx("11.5.0.0/16"), SE)); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(cut, NewBuilder().Add(pfx("11.5.0.0/16"), RU)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		day  simtime.Day
		want int
	}{
		{simtime.StudyStart - 1, -1},
		{simtime.StudyStart, 0},
		{cut - 1, 0},
		{cut, 1},
		{simtime.StudyEnd, 1},
	}
	for _, c := range cases {
		if got := db.Version(c.day); got != c.want {
			t.Errorf("Version(%s) = %d, want %d", c.day, got, c.want)
		}
	}
	// The contract the analysis memoization relies on: equal versions mean
	// equal lookup results.
	a := ip("11.5.1.1")
	g1, _ := db.Lookup(simtime.StudyStart, a)
	g2, _ := db.Lookup(cut-1, a)
	if db.Version(simtime.StudyStart) == db.Version(cut-1) && g1 != g2 {
		t.Error("same version produced different lookups")
	}
}

func TestDuplicateSnapshotRejected(t *testing.T) {
	db := NewDB()
	if err := db.Snapshot(0, NewBuilder().Add(pfx("11.0.0.0/16"), RU)); err != nil {
		t.Fatal(err)
	}
	if err := db.Snapshot(0, NewBuilder().Add(pfx("11.0.0.0/16"), US)); err == nil {
		t.Fatal("duplicate snapshot accepted")
	}
}

func TestOverridesWin(t *testing.T) {
	// A more-specific override added later must win: an anycast /24
	// inside a provider /16.
	db := NewDB()
	b := NewBuilder().
		Add(pfx("11.7.0.0/16"), RU).
		Add(pfx("11.7.9.0/24"), US)
	if err := db.Snapshot(0, b); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Lookup(0, ip("11.7.8.1")); got != RU {
		t.Errorf("outside override = %q, want RU", got)
	}
	if got, _ := db.Lookup(0, ip("11.7.9.77")); got != US {
		t.Errorf("inside override = %q, want US", got)
	}
	if got, _ := db.Lookup(0, ip("11.7.10.1")); got != RU {
		t.Errorf("after override = %q, want RU", got)
	}
}

func TestBinarySearchAgreesWithLinear(t *testing.T) {
	db := NewDB()
	countries := []string{RU, US, DE, NL, SE}
	b := NewBuilder()
	for i := 0; i < 100; i++ {
		b.Add(pfx(addr16(i)), countries[i%len(countries)])
	}
	if err := db.Snapshot(0, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a := ip(addrIn16(i))
		g1, ok1 := db.Lookup(0, a)
		g2, ok2 := db.LookupLinear(0, a)
		if g1 != g2 || ok1 != ok2 {
			t.Fatalf("mismatch at %v: %q,%v vs %q,%v", a, g1, ok1, g2, ok2)
		}
	}
}

func addr16(i int) string {
	return netip.AddrFrom4([4]byte{byte(20 + i/256), byte(i % 256), 0, 0}).String() + "/16"
}

func addrIn16(i int) string {
	return netip.AddrFrom4([4]byte{byte(20 + i/256), byte(i % 256), 3, 7}).String()
}

func TestEmptyBuilderSnapshot(t *testing.T) {
	db := NewDB()
	if err := db.Snapshot(0, NewBuilder()); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Lookup(0, ip("11.0.0.1")); ok {
		t.Fatal("empty snapshot resolved an address")
	}
}

func TestAdjacentRangesMerge(t *testing.T) {
	// Two adjacent /16s with the same country merge into one range.
	db := NewDB()
	b := NewBuilder().
		Add(pfx("30.0.0.0/16"), RU).
		Add(pfx("30.1.0.0/16"), RU)
	if err := db.Snapshot(0, b); err != nil {
		t.Fatal(err)
	}
	if got, ok := db.Lookup(0, ip("30.0.255.255")); !ok || got != RU {
		t.Error("first half failed")
	}
	if got, ok := db.Lookup(0, ip("30.1.0.0")); !ok || got != RU {
		t.Error("second half failed")
	}
}

func BenchmarkLookupBinary(b *testing.B) {
	db := benchDB(b)
	a := ip(addrIn16(50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Lookup(0, a); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkLookupLinear(b *testing.B) {
	db := benchDB(b)
	a := ip(addrIn16(50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.LookupLinear(0, a); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func benchDB(b *testing.B) *DB {
	b.Helper()
	db := NewDB()
	builder := NewBuilder()
	countries := []string{RU, US, DE, NL, SE}
	for i := 0; i < 2000; i++ {
		builder.Add(pfx(addr16(i)), countries[i%len(countries)])
	}
	if err := db.Snapshot(0, builder); err != nil {
		b.Fatal(err)
	}
	return db
}

// LookupLinear is the no-index baseline used by the ablation benchmark:
// it scans the effective snapshot sequentially.
func (db *DB) LookupLinear(day simtime.Day, addr netip.Addr) (string, bool) {
	if !addr.Is4() {
		return "", false
	}
	v := addrToU32(addr)
	db.mu.RLock()
	defer db.mu.RUnlock()
	var entries []rangeEntry
	for _, s := range db.snapshots {
		if s.from <= day {
			entries = s.entries
		}
	}
	for _, e := range entries {
		if e.lo <= v && v <= e.hi {
			return e.country, true
		}
	}
	return "", false
}
