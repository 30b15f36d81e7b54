package world

import (
	"context"
	"slices"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// buildTest builds one shared small world for the package's tests.
var testWorld *World

func getWorld(t testing.TB) *World {
	t.Helper()
	if testWorld == nil {
		w, err := Build(TestConfig())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		testWorld = w
	}
	return testWorld
}

func TestBuildBasics(t *testing.T) {
	w := getWorld(t)
	if w.NumDomains() < 5000 {
		t.Fatalf("NumDomains = %d, want ≥ 5000 at 1:2000 scale", w.NumDomains())
	}
	if w.Sanctions.Len() != 107 {
		t.Fatalf("sanctioned list = %d, want 107", w.Sanctions.Len())
	}
	if len(w.Roots()) == 0 {
		t.Fatal("no root servers")
	}
	// Scaled active population: ≈4.95M/2000 ≈ 2475 at study start.
	active := w.ActiveDomains(simtime.StudyStart)
	if active < 1800 || active > 3400 {
		t.Errorf("active at start = %d, want ≈2500", active)
	}
	activeEnd := w.ActiveDomains(simtime.StudyEnd)
	if activeEnd <= active-600 || activeEnd > 4200 {
		t.Errorf("active at end = %d (start %d), want mild growth", activeEnd, active)
	}
}

func TestDeterminism(t *testing.T) {
	w1, err := Build(Config{Seed: 7, Scale: 20000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(Config{Seed: 7, Scale: 20000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if w1.NumDomains() != w2.NumDomains() {
		t.Fatalf("domain counts differ: %d vs %d", w1.NumDomains(), w2.NumDomains())
	}
	for d := range w1.NumDomains() {
		name := w1.domains.Name(d)
		if w2.domains.Name(d) != name {
			t.Fatalf("domain %d is %s in one world, %s in the other", d, name, w2.domains.Name(d))
		}
		if w1.domains.Record(d) != w2.domains.Record(d) || !slices.Equal(w1.domains.epochsOf(d), w2.domains.epochsOf(d)) {
			t.Fatalf("domain %d (%s) differs between builds", d, name)
		}
	}
	// Different seed → different world.
	w3, err := Build(Config{Seed: 8, Scale: 20000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for d := range w1.NumDomains() {
		if d3, ok := w3.domains.Lookup(w1.domains.Name(d)); ok {
			if w1.domains.Record(d).Created == w3.domains.Record(d3).Created && len(w1.domains.epochsOf(d)) == len(w3.domains.epochsOf(d3)) {
				same++
			}
		}
	}
	if same == w1.NumDomains() {
		t.Error("different seeds produced identical worlds")
	}
}

func TestEndToEndResolution(t *testing.T) {
	w := getWorld(t)
	w.Clock().Set(simtime.StudyStart)
	r := w.NewResolver()
	ctx := context.Background()

	// Find a domain active at study start.
	target := -1
	for d := range w.NumDomains() {
		if w.domains.ActiveOn(d, simtime.StudyStart) && !w.domains.isSanctioned(d) {
			target = d
			break
		}
	}
	if target < 0 {
		t.Fatal("no active domain found")
	}
	name := w.domains.Name(target)
	hosts, err := r.LookupNS(ctx, name, nil, nil)
	if err != nil {
		t.Fatalf("LookupNS(%s): %v", name, err)
	}
	if len(hosts) == 0 {
		t.Fatalf("no NS for %s", name)
	}
	cfg, _ := w.domains.configAt(target, simtime.StudyStart)
	wantHosts, _ := w.nsSetFor(cfg.dnsKey())
	if len(hosts) != len(wantHosts) {
		t.Fatalf("NS count = %d, want %d (%v vs %v)", len(hosts), len(wantHosts), hosts, wantHosts)
	}
	addrs, err := r.LookupA(ctx, name, nil, nil)
	if err != nil {
		t.Fatalf("LookupA(%s): %v", name, err)
	}
	want := w.hostAddrsFor(name, cfg.hostKey())
	if len(addrs) != len(want) {
		t.Fatalf("apex addrs = %v, want %v", addrs, want)
	}
	// NS host addresses resolve too.
	for _, h := range hosts {
		hostAddrs, err := r.LookupHost(ctx, h, 0)
		if err != nil {
			t.Fatalf("LookupHost(%s): %v", h, err)
		}
		if len(hostAddrs) == 0 {
			t.Fatalf("no address for NS %s", h)
		}
	}
}

func TestResolutionTracksClock(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()

	// A sanctioned Netnod-secondary domain changes NS set on March 3.
	name := "sanctioned070.ru." // index 70 ∈ [65,99) → rucenter-netnod
	d, ok := w.domains.Lookup(name)
	if !ok {
		t.Fatal("sanctioned070.ru. missing")
	}
	cfgBefore, _ := w.domains.configAt(d, NetnodCutoffDay.Add(-1))
	if key := cfgBefore.dnsKey(); key != "rucenter-netnod" {
		t.Fatalf("unexpected pre-cutoff profile %q", key)
	}

	w.Clock().Set(NetnodCutoffDay.Add(-1))
	r := w.NewResolver()
	before, err := r.LookupNS(ctx, name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Clock().Set(NetnodCutoffDay)
	r.FlushCache()
	after, err := r.LookupNS(ctx, name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 || len(after) != 2 {
		t.Fatalf("NS sets: before=%v after=%v (want netnod server to vanish)", before, after)
	}
	foundNetnod := false
	for _, h := range before {
		if h == "dns-ru.netnod.su." {
			foundNetnod = true
		}
	}
	if !foundNetnod {
		t.Fatalf("netnod server not in pre-cutoff set %v", before)
	}
	for _, h := range after {
		if h == "dns-ru.netnod.su." {
			t.Fatal("netnod server still present after cutoff")
		}
	}
}

func TestRemovedDomainGone(t *testing.T) {
	w := getWorld(t)
	name, removed := "", simtime.Day(0)
	for d := range w.NumDomains() {
		if r := w.domains.Record(d).Removed; r != 0 && r < simtime.StudyEnd {
			name, removed = w.domains.Name(d), r
			break
		}
	}
	if name == "" {
		t.Skip("no removed domain in this world")
	}
	w.Clock().Set(removed)
	r := w.NewResolver()
	res, err := r.Resolve(context.Background(), name, dns.TypeNS)
	if err != nil {
		t.Fatalf("Resolve removed: %v", err)
	}
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("removed domain rcode = %v, want NXDOMAIN", res.RCode)
	}
}

func TestSanctionedWorld(t *testing.T) {
	w := getWorld(t)
	domains := w.Sanctions.AllDomains()
	if len(domains) != 107 {
		t.Fatalf("sanctioned = %d", len(domains))
	}
	// All registered and resolvable pre-conflict.
	full, part, non := 0, 0, 0
	day := simtime.ConflictStart
	for _, name := range domains {
		d, ok := w.domains.Lookup(name)
		if !ok || !w.domains.ActiveOn(d, day) {
			t.Fatalf("sanctioned %s not active", name)
		}
		cfg, _ := w.domains.configAt(d, day)
		ru, other := false, false
		for _, key := range dnsProfiles[cfg.dnsKey()] {
			if w.providers[key].Country == "RU" {
				ru = true
			} else {
				other = true
			}
		}
		switch {
		case ru && other:
			part++
		case ru:
			full++
		default:
			non++
		}
	}
	// Paper: 34.0% partial, 5.2% non on Feb 24.
	if part != 36 || non != 6 || full != 65 {
		t.Fatalf("sanctioned NS on Feb 24: full=%d part=%d non=%d, want 65/36/6", full, part, non)
	}
}

func TestCertCorpus(t *testing.T) {
	w := getWorld(t)
	if w.Certs.Len() == 0 {
		t.Fatal("no certificates generated")
	}
	if w.CTLog.Size() == 0 {
		t.Fatal("empty CT log")
	}
	// Russian CA certs exist, are unlogged, and are served.
	rtr := w.Certs.ByIssuer(pki.RussianTrustedRootCA)
	if len(rtr) != PaperNumbers.RussianCACerts {
		t.Fatalf("Russian CA certs = %d, want %d", len(rtr), PaperNumbers.RussianCACerts)
	}
	for _, c := range rtr {
		if c.Logged {
			t.Fatal("Russian CA certificate logged to CT")
		}
	}
	if w.Scanner.NumEndpoints() < PaperNumbers.RussianCACerts {
		t.Fatalf("scanner endpoints = %d", w.Scanner.NumEndpoints())
	}
	// The log holds exactly the logged certificates, each once.
	inLog := map[*pki.Certificate]int{}
	for _, e := range w.CTLog.Scan(0, w.CTLog.Size(), nil) {
		inLog[e.Cert]++
	}
	logged := 0
	for _, c := range w.Certs.All() {
		if !c.Logged {
			continue
		}
		logged++
		if n := inLog[c]; n != 1 {
			t.Fatalf("logged certificate %d appears %d times in the CT log", c.Serial, n)
		}
	}
	if int64(logged) != w.CTLog.Size() {
		t.Fatalf("CT log holds %d entries for %d logged certificates", w.CTLog.Size(), logged)
	}
}

// TestGeoNoiseShiftsClassification holds GeoNoise to what it promises:
// out-of-range noise is refused, a clean world places all of REG.RU's
// pool in RU, and 5 % noise mislocates some of it. Noise is drawn per
// /24, and the pool is a few of them, so it escapes the noise at most
// seeds; the test searches a bounded range of seeds for a world where it
// does not, and fails if there is none.
func TestGeoNoiseShiftsClassification(t *testing.T) {
	if _, err := Build(Config{Seed: 1, Scale: 20000, RFShare: 0.1, GeoNoise: 0.9}); err == nil {
		t.Error("GeoNoise 0.9 accepted")
	}
	day := simtime.ConflictStart
	countRU := func(w *World) (ru, pool int) {
		p := w.providers["regru"]
		for _, a := range p.HostPool {
			if c, ok := w.Geo.Lookup(day, a); ok && c == "RU" {
				ru++
			}
		}
		return ru, len(p.HostPool)
	}
	const seeds = 64
	for seed := int64(1); seed <= seeds; seed++ {
		clean, err := Build(Config{Seed: seed, Scale: 20000, RFShare: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if ru, pool := countRU(clean); ru != pool {
			t.Fatalf("seed %d: the clean world mislocates %d of %d addresses", seed, pool-ru, pool)
		}
		noisy, err := Build(Config{Seed: seed, Scale: 20000, RFShare: 0.1, GeoNoise: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if ru, pool := countRU(noisy); ru < pool {
			t.Logf("seed %d: 5%% noise mislocates %d of REG.RU's %d pool addresses", seed, pool-ru, pool)
			return
		}
	}
	t.Errorf("5%% GeoNoise mislocated none of REG.RU's pool at any seed in 1..%d", seeds)
}
