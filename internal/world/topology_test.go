package world

import (
	"strings"
	"testing"
	"time"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// scenarioWorld builds a private world (the package-level shared world
// must stay unmutated) and applies the named scenario, returning the
// world and the schedule the route events were recorded on.
func scenarioWorld(t *testing.T, name string) (*World, *netsim.OutageSchedule) {
	t.Helper()
	w, err := Build(Config{Seed: 7, Scale: 20000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sched := netsim.NewOutageSchedule()
	if name != "" {
		if err := w.ApplyScenario(name, sched); err != nil {
			t.Fatalf("ApplyScenario(%s): %v", name, err)
		}
	}
	return w, sched
}

// routeTo reports the vantage's route decision for every NS address of a
// provider; all addresses of one AS must agree, so it returns the
// consensus and fails the test on a split.
func routeTo(t *testing.T, w *World, key string, day simtime.Day) (time.Duration, bool) {
	t.Helper()
	p, ok := w.providers[key]
	if !ok {
		t.Fatalf("no provider %q", key)
	}
	if len(p.NSAddrs) == 0 {
		t.Fatalf("provider %q has no NS addresses", key)
	}
	rv := w.RouteView()
	lat0, ok0 := rv.Route(day, p.NSAddrs[0])
	for _, addr := range p.NSAddrs[1:] {
		lat, ok := rv.Route(day, addr)
		if ok != ok0 || lat != lat0 {
			t.Fatalf("provider %q: NS addresses disagree on day %s: (%v,%v) vs (%v,%v)",
				key, day, lat0, ok0, lat, ok)
		}
	}
	return lat0, ok0
}

func TestBaseTopologyAllReachable(t *testing.T) {
	w, _ := scenarioWorld(t, "")
	day := simtime.ConflictStart.Add(-1)
	for _, p := range Catalog() {
		if len(p.NSNames) == 0 {
			continue // hosting-only AS, no name servers to route to
		}
		lat, ok := routeTo(t, w, p.Key, day)
		if !ok {
			t.Errorf("%s (AS%d) unreachable in the base topology", p.Key, p.ASN)
			continue
		}
		if lat <= 0 {
			t.Errorf("%s: path latency %v, want > 0", p.Key, lat)
		}
	}
	// Root and TLD infrastructure must route too, or no sweep resolves.
	rv := w.RouteView()
	for _, root := range w.Roots() {
		if _, ok := rv.Route(day, root); !ok {
			t.Errorf("root server %v unreachable", root)
		}
	}
}

func TestScenarioNetnodDepeeringRoutes(t *testing.T) {
	w, _ := scenarioWorld(t, ScenarioNetnodDepeering)
	if _, ok := routeTo(t, w, "netnod", NetnodCutoffDay.Add(-1)); !ok {
		t.Error("netnod unreachable before the cutoff")
	}
	for _, day := range []simtime.Day{NetnodCutoffDay, NetnodCutoffDay.Add(10), simtime.StudyEnd} {
		if _, ok := routeTo(t, w, "netnod", day); ok {
			t.Errorf("netnod still reachable on %s, want depeered", day)
		}
	}
	// Collateral check: the depeering is surgical — RU-CENTER (Netnod's
	// Stockholm fabric peer) and a western provider keep their routes.
	for _, key := range []string{"rucenter", "regru", "yandex"} {
		if _, ok := routeTo(t, w, key, NetnodCutoffDay.Add(10)); !ok {
			t.Errorf("%s lost its route to the netnod depeering", key)
		}
	}
}

func TestScenarioRUIXPIsolationLatency(t *testing.T) {
	w, _ := scenarioWorld(t, ScenarioRUIXPIsolation)
	before, after := simtime.ConflictStart.Add(-1), simtime.ConflictStart.Add(10)
	for _, key := range []string{"regru", "timeweb", "sprinthost"} {
		latBefore, okBefore := routeTo(t, w, key, before)
		latAfter, okAfter := routeTo(t, w, key, after)
		if !okBefore || !okAfter {
			t.Fatalf("%s: reachability (%v, %v), want intact both sides — this scenario is a latency event", key, okBefore, okAfter)
		}
		if latAfter <= latBefore {
			t.Errorf("%s: latency %v → %v across the fabric withdrawal, want an increase (transit detour)", key, latBefore, latAfter)
		}
	}
	// Western providers never crossed the Moscow fabric; their paths are
	// untouched.
	gbLatBefore, _ := routeTo(t, w, "godaddy", before)
	gbLatAfter, ok := routeTo(t, w, "godaddy", after)
	if !ok || gbLatAfter != gbLatBefore {
		t.Errorf("godaddy path changed (%v → %v, ok=%v), want unaffected", gbLatBefore, gbLatAfter, ok)
	}
}

func TestScenarioRUNETPartitionRoutes(t *testing.T) {
	w, _ := scenarioWorld(t, ScenarioRUNETPartition)
	win := simtime.Window{From: simtime.Date(2022, 3, 6), To: simtime.Date(2022, 3, 20)}
	majors := []string{"regru", "rucenter", "timeweb", "beget", "yandex"}
	minors := []string{"sprinthost", "masterhost", "peterhost", "rupool1"}

	inside := win.From.Add(3)
	for _, key := range minors {
		if _, ok := routeTo(t, w, key, inside); ok {
			t.Errorf("%s reachable inside the partition window", key)
		}
		if _, ok := routeTo(t, w, key, win.From.Add(-1)); !ok {
			t.Errorf("%s unreachable before the partition", key)
		}
		if _, ok := routeTo(t, w, key, win.To.Add(1)); !ok {
			t.Errorf("%s unreachable after the partition lifted", key)
		}
	}
	for _, key := range majors {
		if _, ok := routeTo(t, w, key, inside); !ok {
			t.Errorf("major %s lost reachability inside the partition, want its Moscow fabric peering to hold", key)
		}
	}
}

func TestApplyScenarioUnknown(t *testing.T) {
	w, _ := scenarioWorld(t, "")
	err := w.ApplyScenario("no-such-scenario", nil)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range Scenarios() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list scenario %q", err, name)
		}
	}
}

func TestApplyScenarioRecordsEvents(t *testing.T) {
	_, sched := scenarioWorld(t, ScenarioNetnodDepeering)
	evs := sched.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded on the schedule")
	}
	kinds := map[string]string{}
	for _, ev := range evs {
		if !strings.HasPrefix(ev.Key, "route:") {
			t.Errorf("event key %q missing route: prefix", ev.Key)
		}
		if ev.Window.From != NetnodCutoffDay || ev.Window.To != simtime.StudyEnd {
			t.Errorf("event %s window %s..%s, want cutoff..study end", ev.Key, ev.Window.From, ev.Window.To)
		}
		kinds[ev.Key] = ev.Kind
	}
	want := map[string]string{
		"route:depeer:AS8674-AS64500": netsim.EventDepeer,
		"route:ixp:NETNOD-IX:AS8674":  netsim.EventIXPWithdraw,
		"route:ixp:DE-CIX:AS8674":     netsim.EventIXPWithdraw,
	}
	for key, kind := range want {
		if kinds[key] != kind {
			t.Errorf("event %s: kind %q, want %q (have %v)", key, kinds[key], kind, kinds)
		}
	}
}
