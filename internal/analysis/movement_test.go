package analysis

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// MovementAnalysis and RelocationLatency run on config IDs: one
// Snapshot.Lookup per (domain, day) and the analyzer's per-config
// origin-AS memo. The oracles below are the judges of both definitions
// and share none of that: the live store's per-day API (forEachAt, At,
// MeasuredOn), OriginAS asked per address, a fresh set per config.

// hostASNs is the oracles' view of a config's hosting networks: the set
// of ASNs its apex addresses originate from, derived from scratch.
func hostASNs(a *Analyzer, cfg store.Config) map[netsim.ASN]bool {
	out := make(map[netsim.ASN]bool, len(cfg.ApexAddrs))
	for _, addr := range cfg.ApexAddrs {
		if asn, ok := a.Internet.OriginAS(addr); ok {
			out[asn] = true
		}
	}
	return out
}

// referenceMovementAnalysis is the original two-pass per-day path: who
// was in the ASN on From, then where everyone is on To.
func referenceMovementAnalysis(a *Analyzer, asn netsim.ASN, from, to simtime.Day, whois Whois) Movement {
	m := Movement{
		ASN: asn, From: from, To: to,
		OutDestinations: make(map[netsim.ASN]int),
		InSources:       make(map[netsim.ASN]int),
	}
	// Pass 1: the original set.
	original := make(map[string]bool)
	forEachAt(a.Store, from, func(domain string, cfg store.Config) {
		if cfg.Failed {
			return
		}
		if hostASNs(a, cfg)[asn] {
			original[domain] = true
			m.Original++
		}
	})
	// Pass 2: where everyone is on To.
	seenOnTo := make(map[string]bool)
	forEachAt(a.Store, to, func(domain string, cfg store.Config) {
		if cfg.Failed {
			return
		}
		inASN := hostASNs(a, cfg)[asn]
		seenOnTo[domain] = true
		switch {
		case original[domain] && inASN:
			m.Remained++
		case original[domain] && !inASN:
			m.RelocatedOut++
			for dest := range hostASNs(a, cfg) {
				m.OutDestinations[dest]++
			}
		case !original[domain] && inASN:
			// Incomer: newly registered or relocated in.
			if created, ok := whois.Created(domain); ok && created > from {
				m.NewlyRegistered++
				break
			}
			m.RelocatedIn++
			if prev, ok := a.Store.At(domain, from); ok {
				for src := range hostASNs(a, prev) {
					m.InSources[src]++
				}
			}
		}
	})
	for d := range original {
		if !seenOnTo[d] {
			m.Gone++
		}
	}
	return m
}

// oracleRelocationLatency asks the live store about every (domain, later
// sweep) pair in turn.
func oracleRelocationLatency(a *Analyzer, asn netsim.ASN, event, until simtime.Day) LatencyReport {
	rep := LatencyReport{ASN: asn, Event: event}
	for _, domain := range a.Store.Domains() {
		cfg, ok := a.Store.At(domain, event)
		if !ok || !a.Store.MeasuredOn(domain, event) || cfg.Failed || !hostASNs(a, cfg)[asn] {
			continue
		}
		relocated, measuredLate := false, false
		for _, d := range a.Store.Sweeps() {
			if d <= event || d > until || relocated {
				continue
			}
			cfg, ok := a.Store.At(domain, d)
			if !ok || !a.Store.MeasuredOn(domain, d) {
				continue
			}
			measuredLate = true
			if !cfg.Failed && !hostASNs(a, cfg)[asn] {
				relocated = true
				rep.Relocated++
				rep.Delays = append(rep.Delays, d.Sub(event))
			}
		}
		switch {
		case relocated:
		case measuredLate:
			rep.StillThere++
		default:
			rep.Gone++
		}
	}
	sort.Ints(rep.Delays)
	return rep
}

// assertMovementMatchesOracles holds both analyses to their oracles over
// asns × froms × tos (a movement's From/To, a relocation's event/until),
// on an analyzer — and so a memo — of its own.
func assertMovementMatchesOracles(t *testing.T, label string, base *Analyzer, whois Whois, asns []netsim.ASN, froms, tos []simtime.Day) {
	t.Helper()
	an := &Analyzer{Store: base.Store, Geo: base.Geo, Internet: base.Internet, Routes: base.Routes}
	for _, asn := range asns {
		for _, from := range froms {
			for _, to := range tos {
				wantM := referenceMovementAnalysis(base, asn, from, to, whois)
				if got := an.MovementAnalysis(asn, from, to, whois); !reflect.DeepEqual(got, wantM) {
					t.Errorf("%s: MovementAnalysis(AS%d, %d→%d) diverges from the oracle\n got %+v\nwant %+v",
						label, asn, from, to, got, wantM)
				}
				wantL := oracleRelocationLatency(base, asn, from, to)
				if got := an.RelocationLatency(asn, from, to); !reflect.DeepEqual(got, wantL) {
					t.Errorf("%s: RelocationLatency(AS%d, %d..%d) diverges from the oracle\n got %+v\nwant %+v",
						label, asn, from, to, got, wantL)
				}
			}
		}
	}
}

// whoisMap is a Whois over creation days; a name it does not list is
// unknown to whois.
type whoisMap map[string]simtime.Day

func (w whoisMap) Created(name string) (simtime.Day, bool) {
	created, ok := w[name]
	return created, ok
}

// movementWorld hand-builds every per-domain shape the movement and
// relocation definitions distinguish, over sweeps 10..70 with day 50 a
// scheduled sweep that never ran: AS1/AS2 from unitAnalyzer plus AS3,
// and AS99 which hosts nothing. Reversed feeds each sweep's domains to the
// store last first: the same contents under other config IDs.
func movementWorld(t *testing.T, reversed bool) (*Analyzer, whoisMap) {
	t.Helper()
	an, st, as1, as2 := unitAnalyzer(t)
	an.Internet.MustRegisterAS(netsim.AS{Number: 3, Org: "DE Host", Country: "DE"})
	an.Internet.MustRegisterAS(netsim.AS{Number: 99, Org: "Empty", Country: "US"})
	as3, err := an.Internet.NextAddr(3)
	if err != nil {
		t.Fatal(err)
	}
	as2b, err := an.Internet.NextAddr(2)
	if err != nil {
		t.Fatal(err)
	}
	host := func(addrs ...netip.Addr) store.Config {
		return store.Config{NSHosts: []string{"ns.x.ru."}, ApexAddrs: addrs}
	}
	in1, in2, in3 := host(as1), host(as2), host(as3)
	failed := store.Config{Failed: true}
	// A failed measurement is not hosting evidence even if it carries
	// addresses (the pipeline stores none; the definitions must not care).
	failedIn2 := store.Config{Failed: true, ApexAddrs: []netip.Addr{as2}}
	lives := []struct {
		name    string
		created simtime.Day // < 0: unknown to whois
		life    map[simtime.Day]store.Config
	}{
		{"stays.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: in2, 30: in2, 40: in2, 60: in2, 70: in2}},
		{"leaves.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: in2, 30: in2, 40: in1, 60: in1, 70: in1}},
		{"leftzone.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: in2}},
		{"gap.ru.", 0, map[simtime.Day]store.Config{10: in2, 40: in2, 70: in2}},
		{"failfrom.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: failed, 30: in2, 40: in2, 60: in3, 70: in3}},
		{"failto.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: in2, 30: in2, 40: failed, 60: in2, 70: failed}},
		{"failaddr.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: failedIn2, 30: in2, 40: failedIn2, 60: in1, 70: failedIn2}},
		{"noapex.ru.", 0, map[simtime.Day]store.Config{10: host(), 20: host(), 30: in2, 40: in2, 60: host(), 70: host()}},
		// Apex spans two ASNs; destinations and sources count each once,
		// and two addresses in one ASN count that ASN once.
		{"dualout.ru.", 0, map[simtime.Day]store.Config{10: in2, 20: in2, 30: host(as1, as3), 40: host(as1, as3), 60: host(as1, as3), 70: host(as1, as3)}},
		{"dualin.ru.", 0, map[simtime.Day]store.Config{10: host(as1, as3), 20: host(as1, as3), 30: host(as1, as3), 40: host(as2, as2b), 60: host(as2, as2b), 70: host(as2, as2b)}},
		{"straddle.ru.", 0, map[simtime.Day]store.Config{10: host(as1, as2), 20: host(as1, as2), 30: host(as1, as2), 40: in1, 60: in1, 70: host(as2, as3)}},
		{"incomer.ru.", 0, map[simtime.Day]store.Config{10: in1, 20: in1, 30: in1, 40: in1, 60: in2, 70: in2}},
		{"newreg.ru.", 35, map[simtime.Day]store.Config{40: in2, 60: in2, 70: in2}},
		{"nowhois.ru.", -1, map[simtime.Day]store.Config{40: in2, 60: in2, 70: in2}},
		{"fromfailed.ru.", 0, map[simtime.Day]store.Config{10: failed, 20: failed, 30: in2, 40: in2, 60: in2, 70: in2}},
		// Unseen between two sightings: still in the zone, carrying the
		// config it was last seen with.
		{"comeback.ru.", 0, map[simtime.Day]store.Config{10: in1, 60: in2, 70: in2}},
	}
	whois := whoisMap{}
	if reversed {
		for i, j := 0, len(lives)-1; i < j; i, j = i+1, j-1 {
			lives[i], lives[j] = lives[j], lives[i]
		}
	}
	for _, day := range []simtime.Day{10, 20, 30, 40, 60, 70} {
		st.BeginSweep(day)
		for _, l := range lives {
			if cfg, ok := l.life[day]; ok {
				st.Add(store.Measurement{Domain: l.name, Day: day, Config: cfg})
			}
		}
	}
	st.MarkMissingSweep(50)
	for _, l := range lives {
		if l.created >= 0 {
			whois[l.name] = l.created
		}
	}
	return an, whois
}

func TestMovementMatchesOraclesOnHandcraftedWorld(t *testing.T) {
	an, whois := movementWorld(t, false)
	// From/event: before the first sweep, on sweeps, between two, on the
	// missing sweep day, on and after every To.
	froms := []simtime.Day{5, 10, 15, 20, 25, 30, 40, 45, 50, 55, 60, 65, 70, 75}
	assertMovementMatchesOracles(t, "handcrafted", an, whois,
		[]netsim.ASN{1, 2, 3, 99}, froms, []simtime.Day{40, 50, 65, 70, 75})

	// The shapes are really there: this is what the grid above compared.
	m := an.MovementAnalysis(2, 20, 70, whois)
	want := Movement{ASN: 2, From: 20, To: 70,
		// stays leaves leftzone gap failto dualout straddle
		Original: 7, Remained: 3, RelocatedOut: 2, Gone: 2,
		// dualin incomer nowhois fromfailed comeback; newreg
		RelocatedIn: 5, NewlyRegistered: 1,
		OutDestinations: map[netsim.ASN]int{1: 2, 3: 1},
		InSources:       map[netsim.ASN]int{1: 3, 3: 1},
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("handcrafted movement\n got %+v\nwant %+v", m, want)
	}
}

func TestMovementMatchesOraclesOnFixture(t *testing.T) {
	f := getFixture(t)
	sweeps := f.store.Sweeps()
	froms := []simtime.Day{
		simtime.StudyStart - 10,   // before the first sweep
		sweeps[len(sweeps)/2] + 1, // between two sweeps
		simtime.Date(2022, 1, 1),  // the bench's first cold day
		world.AmazonStmtDay,       // §3.4
		world.SedoStmtDay.Add(-1), // §3.4
		simtime.Date(2022, 3, 8),  // §6 relocation latency
		simtime.Date(2022, 5, 25), // the bench's last cold day
		simtime.StudyEnd.Add(3),   // after To
	}
	// The bench's cold ASNs (the four §3.4 case studies among them) and
	// one that hosts nothing.
	asns := []netsim.ASN{197695, 13335, 24940, 16509, 20764, 8075, 15169, 12389, 47846, 4294967295}
	assertMovementMatchesOracles(t, "fixture", f.an, f.w.Registries, asns, froms,
		[]simtime.Day{simtime.StudyEnd, simtime.Date(2022, 3, 31)})
}

// TestConfigASNMemoFollowsStoreAndInternet pins the memo's lifetime: it
// grows with the intern table, and an analyzer pointed at another store
// or another Internet answers for that one.
func TestConfigASNMemoFollowsStoreAndInternet(t *testing.T) {
	an, whois := movementWorld(t, false)
	before := an.MovementAnalysis(2, 20, 70, whois)
	if got := len(an.asns.Load().byID); got != an.Store.Snapshot().NumConfigs() {
		t.Fatalf("memo covers %d configs, snapshot has %d", got, an.Store.Snapshot().NumConfigs())
	}

	// Another store numbers its own configs: same IDs, other meanings.
	other, _ := movementWorld(t, true)
	mine := an.Store
	an.Store = other.Store
	if got := an.MovementAnalysis(2, 20, 70, whois); !reflect.DeepEqual(got, before) {
		t.Errorf("after store swap\n got %+v\nwant %+v", got, before)
	}
	// Another Internet originates the same addresses elsewhere.
	an.Internet = netsim.NewInternet(0)
	empty := Movement{ASN: 2, From: 20, To: 70, OutDestinations: map[netsim.ASN]int{}, InSources: map[netsim.ASN]int{}}
	if got := an.MovementAnalysis(2, 20, 70, whois); !reflect.DeepEqual(got, empty) {
		t.Errorf("after Internet swap\n got %+v\nwant %+v", got, empty)
	}
	// Another Internet originates the same addresses in other ASNs: AS1's,
	// AS2's and AS3's prefixes are AS11's, AS12's and AS13's. The index must
	// follow the Internet too, not only the snapshot.
	relabelled := netsim.NewInternet(0)
	for _, asn := range []netsim.ASN{11, 12, 13} {
		relabelled.MustRegisterAS(netsim.AS{Number: asn})
		if _, err := relabelled.AllocatePrefix(asn); err != nil {
			t.Fatal(err)
		}
	}
	an.Internet = relabelled
	want := Movement{ASN: 12, From: 20, To: 70, OutDestinations: map[netsim.ASN]int{}, InSources: map[netsim.ASN]int{}}
	want.Original, want.Remained, want.RelocatedOut, want.Gone = before.Original, before.Remained, before.RelocatedOut, before.Gone
	want.RelocatedIn, want.NewlyRegistered = before.RelocatedIn, before.NewlyRegistered
	for asn, n := range before.OutDestinations {
		want.OutDestinations[asn+10] = n
	}
	for asn, n := range before.InSources {
		want.InSources[asn+10] = n
	}
	if got := an.MovementAnalysis(12, 20, 70, whois); !reflect.DeepEqual(got, want) {
		t.Errorf("after relabelling Internet swap\n got %+v\nwant %+v", got, want)
	}
	an.Store, an.Internet = mine, other.Internet
	if got := an.MovementAnalysis(2, 20, 70, whois); !reflect.DeepEqual(got, before) {
		t.Errorf("after swapping back\n got %+v\nwant %+v", got, before)
	}

	// New configs after the memo was built: the table is extended, and the
	// list a reader already holds is untouched.
	held := an.asns.Load().byID
	as3, _ := an.Internet.NextAddr(3)
	an.Store.BeginSweep(80)
	an.Store.Add(store.Measurement{Domain: "stays.ru.", Day: 80, Config: store.Config{ApexAddrs: []netip.Addr{as3}}})
	if got, want := an.MovementAnalysis(2, 20, 80, whois), referenceMovementAnalysis(an, 2, 20, 80, whois); !reflect.DeepEqual(got, want) {
		t.Errorf("after intern growth\n got %+v\nwant %+v", got, want)
	}
	if grown := an.asns.Load().byID; len(grown) != len(held)+1 || !reflect.DeepEqual(grown[:len(held)], held) {
		t.Errorf("memo went from %v to %v, want extended by one entry", held, grown)
	}
}

// hostsOracle is the posting index derived from scratch for one snapshot:
// every epoch's config through ForEachEpochIn, its ASNs through hostASNs.
func hostsOracle(a *Analyzer, snap *store.Snapshot) map[netsim.ASN][]uint32 {
	pos := make(map[string]uint32)
	for i, d := range snap.Domains() {
		pos[d] = uint32(i)
	}
	ever := make(map[netsim.ASN]map[uint32]bool)
	snap.ForEachEpochIn(snap.Sweeps(), func(domain string, cfg store.Config, _, _ int) {
		for asn := range hostASNs(a, cfg) {
			if ever[asn] == nil {
				ever[asn] = make(map[uint32]bool)
			}
			ever[asn][pos[domain]] = true
		}
	})
	out := make(map[netsim.ASN][]uint32)
	for asn, set := range ever {
		for i := range set {
			out[asn] = append(out[asn], i)
		}
		sort.Slice(out[asn], func(x, y int) bool { return out[asn][x] < out[asn][y] })
	}
	return out
}

// TestHostingIndexListsEveryDomainEverHosted pins the posting index the
// movement and relocation walks read: each ASN lists exactly the domains
// that carried an apex address there in any epoch (failed ones and ones
// hosted there only before or after the days asked about included), and
// an ASN hosting nothing lists none. Then readers check every index they
// are handed against its snapshot while a writer keeps adding sweeps, and
// the published snapshot never goes back a generation.
func TestHostingIndexListsEveryDomainEverHosted(t *testing.T) {
	all := []string{"stays.ru.", "leaves.ru.", "leftzone.ru.", "gap.ru.", "failfrom.ru.", "failto.ru.",
		"failaddr.ru.", "noapex.ru.", "dualout.ru.", "dualin.ru.", "straddle.ru.", "incomer.ru.",
		"newreg.ru.", "nowhois.ru.", "fromfailed.ru.", "comeback.ru."}
	want := map[netsim.ASN][]string{
		1: {"leaves.ru.", "failaddr.ru.", "dualout.ru.", "dualin.ru.", "straddle.ru.", "incomer.ru.", "comeback.ru."},
		2: all,
		3: {"failfrom.ru.", "dualout.ru.", "dualin.ru.", "straddle.ru."},
	}
	for _, reversed := range []bool{false, true} {
		an, _ := movementWorld(t, reversed)
		memo := an.hosting()
		for _, asn := range []netsim.ASN{1, 2, 3} {
			var got []string
			for _, i := range memo.hosts[asn] {
				got = append(got, memo.snap.Domains()[i])
			}
			w := slices.Clone(want[asn])
			sort.Strings(w)
			if !reflect.DeepEqual(got, w) {
				t.Errorf("reversed=%v: AS%d lists %v, want %v", reversed, asn, got, w)
			}
		}
		if got := memo.hosts[99]; len(got) != 0 {
			t.Errorf("reversed=%v: AS99 hosts nothing but lists %v", reversed, got)
		}
		if oracle := hostsOracle(an, memo.snap); !reflect.DeepEqual(memo.hosts, oracle) {
			t.Errorf("reversed=%v: index %v, oracle %v", reversed, memo.hosts, oracle)
		}
	}

	an, _ := movementWorld(t, false)
	st := an.Store
	var addrs []netip.Addr
	for _, asn := range []netsim.ASN{1, 2, 3} {
		addr, err := an.Internet.NextAddr(asn)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for day := simtime.Day(80); day < 200; day += 10 {
			st.BeginSweep(day)
			for k, d := range all {
				addr := addrs[(k+int(day)/10)%len(addrs)]
				st.Add(store.Measurement{Domain: d, Day: day, Config: store.Config{ApexAddrs: []netip.Addr{addr}}})
			}
			st.Add(store.Measurement{Domain: fmt.Sprintf("new%d.ru.", day), Day: day,
				Config: store.Config{ApexAddrs: []netip.Addr{addrs[0]}}})
		}
	}()
	errs := make(chan string, 3)
	for r := 0; r < cap(errs); r++ {
		go func() {
			var last uint64
			for {
				memo := an.hosting()
				if oracle := hostsOracle(an, memo.snap); !reflect.DeepEqual(memo.hosts, oracle) {
					errs <- fmt.Sprintf("generation %d: index %v, oracle %v", memo.snap.Generation(), memo.hosts, oracle)
					return
				}
				gen := an.asns.Load().snap.Generation()
				if gen < last {
					errs <- fmt.Sprintf("published generation went from %d to %d", last, gen)
					return
				}
				last = gen
				select {
				case <-done:
					errs <- ""
					return
				default:
				}
			}
		}()
	}
	for r := 0; r < cap(errs); r++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
	if memo := an.hosting(); memo.snap != st.Snapshot() || len(memo.hosts[1]) != len(all)+12 {
		t.Errorf("after the writer: index of generation %d lists %d domains in AS1, want %d",
			memo.snap.Generation(), len(memo.hosts[1]), len(all)+12)
	}
}

// TestMovementAllocsIndependentOfDomains pins what the config-ID path is
// for: on a warm memo a movement analysis allocates its result, nothing
// per domain (the map-per-lookup path allocated up to three maps per
// domain).
func TestMovementAllocsIndependentOfDomains(t *testing.T) {
	allocs := func(domains int) float64 {
		an, st, as1, as2 := unitAnalyzer(t)
		for _, day := range []simtime.Day{10, 20} {
			st.BeginSweep(day)
			for d := 0; d < domains; d++ {
				addr := as2
				if (d+int(day))%3 == 0 {
					addr = as1
				}
				st.Add(store.Measurement{Domain: fmt.Sprintf("d%04d.ru.", d), Day: day,
					Config: store.Config{ApexAddrs: []netip.Addr{addr}}})
			}
		}
		whois := whoisMap{}
		an.MovementAnalysis(2, 10, 20, whois) // warm: snapshot captured, memo built
		return testing.AllocsPerRun(20, func() { an.MovementAnalysis(2, 10, 20, whois) })
	}
	small, large := allocs(100), allocs(5000)
	if small != large {
		t.Errorf("allocations grow with the domain count: %.0f at 100 domains, %.0f at 5000", small, large)
	}
	if large > 16 {
		t.Errorf("MovementAnalysis on a warm memo allocates %.0f times, want a small constant", large)
	}
}
