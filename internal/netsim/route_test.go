package netsim

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"whereru/internal/simtime"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func pathEq(got PathInfo, want ...ASN) bool {
	if len(got.Path) != len(want) {
		return false
	}
	for i, asn := range want {
		if got.Path[i] != asn {
			return false
		}
	}
	return true
}

// TestRouteShortestPathFirst pins the BGP-lite policy order: hop count
// beats latency. A 2-hop 20ms route wins over a 3-hop 3ms one.
func TestRouteShortestPathFirst(t *testing.T) {
	topo := NewTopology()
	topo.AddLink(1, 2, ms(10), LinkTransit)
	topo.AddLink(2, 4, ms(10), LinkTransit)
	topo.AddLink(1, 3, ms(1), LinkPeering)
	topo.AddLink(3, 5, ms(1), LinkPeering)
	topo.AddLink(5, 4, ms(1), LinkPeering)

	pi, ok := topo.Router(1).Path(simtime.ConflictStart, 4)
	if !ok {
		t.Fatal("no path")
	}
	if !pathEq(pi, 1, 2, 4) || pi.Hops != 2 || pi.Latency != ms(20) {
		t.Fatalf("path = %+v, want [1 2 4] at 20ms", pi)
	}
}

// TestRouteTieBreaks pins the order among equal-hop candidates: lower
// total latency, then the lexicographically smaller AS path.
func TestRouteTieBreaks(t *testing.T) {
	latency := NewTopology()
	latency.AddLink(1, 2, ms(5), LinkTransit)
	latency.AddLink(2, 4, ms(5), LinkTransit)
	latency.AddLink(1, 3, ms(1), LinkTransit)
	latency.AddLink(3, 4, ms(1), LinkTransit)
	pi, ok := latency.Router(1).Path(simtime.ConflictStart, 4)
	if !ok || !pathEq(pi, 1, 3, 4) || pi.Latency != ms(2) {
		t.Fatalf("latency tie-break: path = %+v, want [1 3 4] at 2ms", pi)
	}

	lex := NewTopology()
	lex.AddLink(1, 3, ms(1), LinkTransit)
	lex.AddLink(3, 4, ms(1), LinkTransit)
	lex.AddLink(1, 2, ms(1), LinkTransit)
	lex.AddLink(2, 4, ms(1), LinkTransit)
	pi, ok = lex.Router(1).Path(simtime.ConflictStart, 4)
	if !ok || !pathEq(pi, 1, 2, 4) {
		t.Fatalf("lexicographic tie-break: path = %+v, want [1 2 4]", pi)
	}
}

// TestIXPFabric verifies fabric semantics: present members are pairwise
// adjacent at twice the port latency, and a fabric shortcut beats a
// longer transit detour.
func TestIXPFabric(t *testing.T) {
	topo := NewTopology()
	topo.AddLink(1, 2, ms(1), LinkTransit)
	topo.AddLink(2, 3, ms(1), LinkTransit)
	if err := topo.AddIXP("X", ms(3)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddIXP("X", ms(3)); err == nil {
		t.Fatal("duplicate IXP accepted")
	}
	if err := topo.AddIXPMember("nope", 1); err == nil {
		t.Fatal("member added to unknown IXP")
	}
	for _, m := range []ASN{1, 3, 3} { // re-adding is idempotent
		if err := topo.AddIXPMember("X", m); err != nil {
			t.Fatal(err)
		}
	}

	pi, ok := topo.Router(1).Path(simtime.ConflictStart, 3)
	if !ok {
		t.Fatal("no path")
	}
	if !pathEq(pi, 1, 3) || pi.Latency != 2*ms(3) {
		t.Fatalf("fabric path = %+v, want direct [1 3] at 2×port = 6ms", pi)
	}
}

// TestDepeerWindow drives a depeering event across its window: the
// adjacency (direct link and fabric pair alike) exists before, vanishes
// inside, and returns after.
func TestDepeerWindow(t *testing.T) {
	d := simtime.ConflictStart
	win := simtime.Window{From: d.Add(10), To: d.Add(20)}

	topo := NewTopology()
	topo.AddLink(1, 2, ms(1), LinkTransit)
	if err := topo.AddIXP("X", ms(1)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []ASN{1, 2} {
		if err := topo.AddIXPMember("X", m); err != nil {
			t.Fatal(err)
		}
	}
	topo.Depeer(2, 1, win) // argument order must not matter

	r := topo.Router(1)
	for _, c := range []struct {
		day  simtime.Day
		want bool
	}{
		{d, true},
		{win.From - 1, true},
		{win.From, false},
		{win.To, false},
		{win.To + 1, true},
	} {
		if _, ok := r.Path(c.day, 2); ok != c.want {
			t.Errorf("day %s: reachable = %v, want %v", c.day, ok, c.want)
		}
	}
	evs := topo.Events()
	if len(evs) != 1 || evs[0].Key != "depeer:AS1-AS2" || evs[0].Kind != EventDepeer {
		t.Fatalf("Events = %+v", evs)
	}
}

// TestIXPWithdrawal verifies that leaving a fabric removes every edge of
// that member, while the other members keep peering.
func TestIXPWithdrawal(t *testing.T) {
	d := simtime.ConflictStart
	win := simtime.Window{From: d, To: d.Add(5)}

	topo := NewTopology()
	if err := topo.AddIXP("X", ms(1)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []ASN{1, 2, 3} {
		if err := topo.AddIXPMember("X", m); err != nil {
			t.Fatal(err)
		}
	}
	if err := topo.WithdrawIXPMember("nope", 3, win); err == nil {
		t.Fatal("withdrawal from unknown IXP accepted")
	}
	if err := topo.WithdrawIXPMember("X", 3, win); err != nil {
		t.Fatal(err)
	}

	r := topo.Router(1)
	if _, ok := r.Path(d, 3); ok {
		t.Error("withdrawn member still reachable")
	}
	if _, ok := r.Path(d, 2); !ok {
		t.Error("remaining members lost their peering")
	}
	if _, ok := r.Path(win.To+1, 3); !ok {
		t.Error("membership did not return after the window")
	}
}

// TestPartition verifies the group-boundary cut: nothing crosses, both
// sides keep their internal connectivity.
func TestPartition(t *testing.T) {
	d := simtime.ConflictStart
	win := simtime.Window{From: d, To: d.Add(13)}

	topo := NewTopology()
	topo.AddLink(1, 2, ms(1), LinkTransit)
	topo.AddLink(2, 3, ms(1), LinkTransit)
	topo.AddLink(3, 4, ms(1), LinkTransit)
	topo.Partition("test", []ASN{3, 4}, win)

	r := topo.Router(1)
	if _, ok := r.Path(d, 2); !ok {
		t.Error("outside-group connectivity lost")
	}
	for _, dst := range []ASN{3, 4} {
		if _, ok := r.Path(d, dst); ok {
			t.Errorf("partitioned AS%d reachable from outside", dst)
		}
	}
	// Inside the group the graph still works: 4 is reachable from 3.
	if pi, ok := topo.Router(3).Path(d, 4); !ok || pi.Hops != 1 {
		t.Errorf("intra-group path = %+v, %v", pi, ok)
	}
	if _, ok := r.Path(win.To+1, 4); !ok {
		t.Error("partition did not lift after the window")
	}
}

// TestRouteVersion pins the version segmentation: one bump when a window
// opens, one when it closes, constant in between.
func TestRouteVersion(t *testing.T) {
	d := simtime.ConflictStart
	topo := NewTopology()
	topo.AddLink(1, 2, ms(1), LinkTransit)
	topo.Depeer(1, 2, simtime.Window{From: d.Add(10), To: d.Add(20)})
	topo.Depeer(1, 2, simtime.Window{From: d.Add(15), To: d.Add(30)})

	if v0, v1 := topo.Version(d), topo.Version(d.Add(9)); v0 != v1 {
		t.Errorf("version changed without an event boundary: %d vs %d", v0, v1)
	}
	seen := map[int]bool{}
	last := -1
	for day := d; day <= d.Add(40); day++ {
		v := topo.Version(day)
		if v < last {
			t.Fatalf("version not monotone at %s: %d after %d", day, v, last)
		}
		last = v
		seen[v] = true
	}
	// Boundaries at From(10), From(15), To+1(21), To+1(31): 5 distinct
	// versions over the walk.
	if len(seen) != 5 {
		t.Errorf("saw %d versions, want 5", len(seen))
	}
	for _, pair := range [][2]simtime.Day{{d.Add(9), d.Add(10)}, {d.Add(30), d.Add(31)}} {
		if topo.Version(pair[0]) == topo.Version(pair[1]) {
			t.Errorf("no version bump across boundary %s→%s", pair[0], pair[1])
		}
	}
}

// TestEventsSorted verifies Events returns (window start, key) order
// regardless of registration order.
func TestEventsSorted(t *testing.T) {
	d := simtime.ConflictStart
	topo := NewTopology()
	if err := topo.AddIXP("X", ms(1)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddIXPMember("X", 7); err != nil {
		t.Fatal(err)
	}
	topo.Depeer(5, 6, simtime.Window{From: d.Add(9), To: d.Add(10)})
	if err := topo.WithdrawIXPMember("X", 7, simtime.Window{From: d, To: d.Add(3)}); err != nil {
		t.Fatal(err)
	}
	topo.Partition("p", []ASN{5}, simtime.Window{From: d, To: d.Add(2)})

	evs := topo.Events()
	if len(evs) != 3 {
		t.Fatalf("Events = %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		prev, cur := evs[i-1], evs[i]
		if cur.Window.From < prev.Window.From ||
			(cur.Window.From == prev.Window.From && cur.Key < prev.Key) {
			t.Fatalf("events out of order: %+v before %+v", prev, cur)
		}
	}
}

// TestRouterConcurrent hammers one router from many goroutines across
// days spanning an event boundary (run with -race): table computation and
// caching must be safe, and answers must match a fresh sequential router.
func TestRouterConcurrent(t *testing.T) {
	d := simtime.ConflictStart
	build := func() *Topology {
		topo := NewTopology()
		topo.AddLink(1, 2, ms(5), LinkTransit)
		topo.AddLink(2, 3, ms(5), LinkTransit)
		topo.AddLink(2, 4, ms(8), LinkTransit)
		if err := topo.AddIXP("X", ms(1)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []ASN{1, 3, 4} {
			if err := topo.AddIXPMember("X", m); err != nil {
				t.Fatal(err)
			}
		}
		topo.Depeer(1, 3, simtime.Window{From: d.Add(10), To: d.Add(20)})
		return topo
	}
	shared := build().Router(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				day := d.Add((g + i) % 30)
				shared.Path(day, ASN(2+(i%3)))
			}
		}(g)
	}
	wg.Wait()

	fresh := build()
	for day := d; day <= d.Add(30); day++ {
		for dst := ASN(2); dst <= 4; dst++ {
			gotPI, gotOK := shared.Path(day, dst)
			wantPI, wantOK := fresh.Router(1).Path(day, dst)
			if gotOK != wantOK || gotPI.Latency != wantPI.Latency || gotPI.Hops != wantPI.Hops {
				t.Fatalf("day %s dst %d: concurrent router diverged: %+v,%v vs %+v,%v",
					day, dst, gotPI, gotOK, wantPI, wantOK)
			}
		}
	}
}

// TestClockConcurrent drives Set/Advance/Now from many goroutines (run
// with -race): the shared simulation clock must never tear.
func TestClockConcurrent(t *testing.T) {
	c := NewClock(simtime.ConflictStart)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch g % 3 {
				case 0:
					c.Set(simtime.ConflictStart.Add(i % 100))
				case 1:
					c.Advance(1)
				default:
					if d := c.Now(); d < simtime.ConflictStart {
						t.Errorf("clock before its floor: %s", d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRouteView verifies the per-address adaptation: unallocated
// addresses and the vantage's own space are reachable at zero latency,
// allocated space follows the route table.
func TestRouteView(t *testing.T) {
	d := simtime.ConflictStart
	in := NewInternet(d)
	in.MustRegisterAS(AS{Number: 1, Country: "NL"})
	in.MustRegisterAS(AS{Number: 2, Country: "RU"})
	in.MustRegisterAS(AS{Number: 3, Country: "RU"})
	a1, _ := in.NextAddr(1)
	a2, _ := in.NextAddr(2)
	a3, _ := in.NextAddr(3)

	topo := NewTopology()
	topo.AddLink(1, 2, ms(4), LinkTransit)
	v := &RouteView{Net: in, R: topo.Router(1)}

	if lat, ok := v.Route(d, netip.MustParseAddr("8.8.8.8")); !ok || lat != 0 {
		t.Errorf("unallocated address = %v, %v, want reachable at 0", lat, ok)
	}
	if lat, ok := v.Route(d, a1); !ok || lat != 0 {
		t.Errorf("vantage's own address = %v, %v, want reachable at 0", lat, ok)
	}
	if lat, ok := v.Route(d, a2); !ok || lat != ms(4) {
		t.Errorf("routed address = %v, %v, want 4ms", lat, ok)
	}
	if _, ok := v.Route(d, a3); ok {
		t.Error("address in an unconnected AS reported reachable")
	}
	if v.Version(d) != 0 {
		t.Errorf("Version = %d on an eventless topology", v.Version(d))
	}
}

// TestOutageScheduleNormalization pins the schedule's normal form:
// sorted keys, merged overlapping and adjacent windows, kind defaults.
func TestOutageScheduleNormalization(t *testing.T) {
	d := simtime.ConflictStart
	s := NewOutageSchedule()
	// Registered out of order, overlapping and adjacent.
	s.Add("b", simtime.Window{From: d.Add(20), To: d.Add(25)})
	s.Add("b", simtime.Window{From: d, To: d.Add(5)})
	s.Add("b", simtime.Window{From: d.Add(3), To: d.Add(8)})  // overlaps the first
	s.Add("b", simtime.Window{From: d.Add(9), To: d.Add(12)}) // adjacent to the merge
	s.AddEvent("a", EventDepeer, simtime.Window{From: d, To: d.Add(1)})

	if keys := s.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v, want sorted [a b]", keys)
	}
	ws := s.Windows("b")
	want := []simtime.Window{
		{From: d, To: d.Add(12)},
		{From: d.Add(20), To: d.Add(25)},
	}
	if len(ws) != len(want) || ws[0] != want[0] || ws[1] != want[1] {
		t.Fatalf("Windows(b) = %v, want %v", ws, want)
	}

	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("Events = %+v", evs)
	}
	if evs[0].Key != "a" || evs[0].Kind != EventDepeer {
		t.Errorf("event 0 = %+v, want key a kind depeer", evs[0])
	}
	for _, ev := range evs[1:] {
		if ev.Key != "b" || ev.Kind != "outage" {
			t.Errorf("event = %+v, want key b with default outage kind", ev)
		}
	}
}

// BenchmarkRouting measures a route-table build over a topology the size
// of the world's (a few dozen provider ASes on two fabrics), and the
// cached per-version lookup path the sweep workers hit.
func BenchmarkRouting(b *testing.B) {
	d := simtime.ConflictStart
	topo := NewTopology()
	topo.AddLink(1, 2, ms(5), LinkTransit)
	topo.AddLink(2, 3, ms(30), LinkTransit)
	for _, name := range []string{"A", "B"} {
		if err := topo.AddIXP(name, ms(2)); err != nil {
			b.Fatal(err)
		}
	}
	for i := ASN(100); i < 130; i++ {
		topo.AddLink(3, i, ms(8), LinkTransit)
		if err := topo.AddIXPMember("A", i); err != nil {
			b.Fatal(err)
		}
	}
	for i := ASN(200); i < 230; i++ {
		topo.AddLink(2, i, ms(8), LinkTransit)
		if err := topo.AddIXPMember("B", i); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("table-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := topo.routesFrom(1, d); len(got) < 60 {
				b.Fatalf("route table has %d entries", len(got))
			}
		}
	})
	b.Run("cached-lookup", func(b *testing.B) {
		r := topo.Router(1)
		r.Path(d, 100) // warm the version table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Path(d, ASN(100+i%30)); !ok {
				b.Fatal("lookup failed")
			}
		}
	})
}

// TestRouteReadsAllocateNothing: Version and RouteView.Route run on every
// routed exchange and every latency sample of a sweep, so once a
// version's table exists they take no lock and allocate nothing — the
// boundaries are sorted when an event is registered, not when they are
// read.
func TestRouteReadsAllocateNothing(t *testing.T) {
	d := simtime.ConflictStart
	in := NewInternet(d)
	in.MustRegisterAS(AS{Number: 1, Country: "NL"})
	in.MustRegisterAS(AS{Number: 2, Country: "RU"})
	addr, _ := in.NextAddr(2)
	topo := NewTopology()
	topo.AddLink(1, 2, ms(4), LinkTransit)
	topo.Depeer(1, 2, simtime.Window{From: d.Add(10), To: d.Add(20)})
	topo.Partition("p", []ASN{2}, simtime.Window{From: d.Add(15), To: d.Add(40)})
	v := &RouteView{Net: in, R: topo.Router(1)}

	days := []simtime.Day{d, d.Add(10), d.Add(17), d.Add(21), d.Add(41)}
	want := []bool{true, false, false, false, true}
	for i, day := range days { // warm: one table per version
		if _, ok := v.Route(day, addr); ok != want[i] || topo.Version(day) != i {
			t.Fatalf("%s: reachable %v at version %d, want %v at %d", day, ok, topo.Version(day), want[i], i)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, day := range days {
			topo.Version(day)
			v.Route(day, addr)
		}
	}); n != 0 {
		t.Fatalf("steady-state Version+Route over %d days: %v allocations", len(days), n)
	}
}

// TestRouteReadersAgainstRegistration reads versions and routes from
// several goroutines while events are being registered (run with -race
// -count=10). Registration during measurement is not something a study
// does, but nothing may tear if it happens: every answer a reader gets is
// the answer of some prefix of the event list, and once registration is
// over every reader sees all of it — no table cached for an older event
// set survives under a version number of the new one.
func TestRouteReadersAgainstRegistration(t *testing.T) {
	d := simtime.ConflictStart
	build := func(events int) *Topology {
		topo := NewTopology()
		topo.AddLink(1, 2, ms(5), LinkTransit)
		topo.AddLink(2, 3, ms(5), LinkTransit)
		topo.AddLink(1, 3, ms(20), LinkTransit)
		for i := 0; i < events; i++ {
			w := simtime.Window{From: d.Add(4 * i), To: d.Add(4*i + 1)}
			if i%2 == 0 {
				topo.Depeer(1, 2, w)
			} else {
				topo.Partition("p", []ASN{3}, w)
			}
		}
		return topo
	}
	const events = 12
	topo := build(0)
	r := topo.Router(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				day := d.Add((g + i) % (4 * events))
				if v := topo.Version(day); v < 0 || v > 2*events {
					t.Errorf("version %d with at most %d boundaries", v, 2*events)
					return
				}
				// AS3 is two hops away, or one over the slow link, or cut
				// off: no prefix of the event list makes it anything else.
				if lat, ok := r.Latency(day, 3); ok && lat != ms(10) && lat != ms(20) {
					t.Errorf("%s: latency %v is no route of this topology", day, lat)
					return
				}
			}
		}(g)
	}
	for i := 0; i < events; i++ {
		w := simtime.Window{From: d.Add(4 * i), To: d.Add(4*i + 1)}
		if i%2 == 0 {
			topo.Depeer(1, 2, w)
		} else {
			topo.Partition("p", []ASN{3}, w)
		}
	}
	close(stop)
	wg.Wait()

	fresh := build(events)
	for day := d; day < d.Add(4*events+2); day++ {
		got, gotOK := r.Latency(day, 3)
		want, wantOK := fresh.Router(1).Latency(day, 3)
		if topo.Version(day) != fresh.Version(day) || got != want || gotOK != wantOK {
			t.Fatalf("%s: after registration v%d %v,%v; a topology built with the events v%d %v,%v",
				day, topo.Version(day), got, gotOK, fresh.Version(day), want, wantOK)
		}
	}
}
