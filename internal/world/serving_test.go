package world

import (
	"bytes"
	"cmp"
	"context"
	"hash/fnv"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// The oracles: the record-set builders the handlers memoized per
// (domain, profile) before they assembled answers per query, kept as they
// were (less the memo), hostAddrsFor included. They build every record
// through the dns constructors and hash through hash/fnv, so they share
// nothing with the boxed payloads and hostPoolIndex they judge.

func referenceDomainReferral(w *World, domain, profile, zone string) (set refSet) {
	hosts, addrs := w.nsSetFor(profile)
	for i, h := range hosts {
		set.auth = append(set.auth, dns.NewNS(domain, 3600, h))
		if dns.IsSubdomain(h, zone) && i < len(addrs) {
			set.addl = append(set.addl, dns.NewA(h, 3600, addrs[i]))
		}
	}
	return set
}

func referenceNSAnswers(w *World, domain, profile string) []dns.RR {
	hosts, _ := w.nsSetFor(profile)
	rrs := make([]dns.RR, 0, len(hosts))
	for _, h := range hosts {
		rrs = append(rrs, dns.NewNS(domain, 3600, h))
	}
	return rrs
}

func referenceAAnswers(w *World, domain, hostProfile string) []dns.RR {
	addrs := w.hostAddrsFor(domain, hostProfile)
	rrs := make([]dns.RR, 0, len(addrs))
	for _, a := range addrs {
		rrs = append(rrs, dns.NewA(domain, 300, a))
	}
	return rrs
}

func referenceMXAnswers(domain, mailHost string) []dns.RR {
	return []dns.RR{dns.NewMX(domain, 3600, 10, mailHost)}
}

// hostAddrsFor derives the apex A records for a domain under a given
// hosting profile: one stable pool address per hosting provider.
func (w *World) hostAddrsFor(name string, hostProfile string) []netip.Addr {
	keys, ok := hostProfiles[hostProfile]
	if !ok {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	idx := int(h.Sum32())
	var out []netip.Addr
	for _, k := range keys {
		p := w.providers[k]
		if p == nil || len(p.HostPool) == 0 {
			continue
		}
		out = append(out, p.HostPool[(idx%len(p.HostPool)+len(p.HostPool))%len(p.HostPool)])
	}
	return out
}

// configDay is one (domain, day) the serving tests visit.
type configDay struct {
	d    int
	name string
	day  simtime.Day
	cfg  epoch
}

// changeDays returns the days domain d's configuration changes plus the
// first and last day of its registration, ascending.
func changeDays(w *World, d int) []simtime.Day {
	rec := w.domains.Record(d)
	last := simtime.StudyEnd
	if rec.Removed != 0 {
		last = rec.Removed.Add(-1)
	}
	days := []simtime.Day{rec.Created, last}
	for _, e := range w.domains.epochsOf(d) {
		days = append(days, e.From)
	}
	slices.Sort(days)
	return slices.Compact(days)
}

// configDays lists, day by day, every domain on each day its
// configuration changes plus the first and last day of its registration.
func configDays(w *World) []configDay {
	var out []configDay
	for d := range w.NumDomains() {
		for _, day := range changeDays(w, d) {
			if cfg, ok := w.domains.configAt(d, day); ok {
				out = append(out, configDay{d, w.domains.Name(d), day, cfg})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b configDay) int { return cmp.Compare(a.day, b.day) })
	return out
}

// TestServingMatchesOracle is the differential for per-query assembly:
// for every domain on every day its configuration changes, and for every
// name in the registries' zone snapshot on the conflict's first day (the
// seed list: its TLD must delegate each one), each answer shape — through
// MemNet (reply and records in the request's arena) and from the handler
// called with a query that owns itself (records from make) — is what the
// oracle builds.
func TestServingMatchesOracle(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	tldH := map[string]dns.Handler{}
	for tld := range w.tldAddrs {
		tldH[tld] = w.tldHandler(tld)
	}
	provH := map[string]dns.Handler{}
	for key, p := range w.providers {
		provH[key] = w.providerHandler(p)
	}
	days := configDays(w)
	for _, name := range w.Registries.ZoneSnapshot(simtime.ConflictStart) {
		d, cfg, ok := w.domains.configOf(name, simtime.ConflictStart)
		if !ok {
			t.Fatalf("%s is in the %s zone snapshot but has no configuration", name, simtime.ConflictStart)
		}
		days = append(days, configDay{d, name, simtime.ConflictStart, cfg})
	}
	slices.SortStableFunc(days, func(a, b configDay) int { return cmp.Compare(a.day, b.day) })
	shapes, exchanges := map[string]int{}, 0
	for _, cd := range days {
		w.Clock().Set(cd.day)
		name, now := cd.name, cd.day
		dnsKey, hostKey := cd.cfg.dnsKey(), cd.cfg.hostKey()
		tld := dns.TLD(name)
		zone := tld + "."
		serving := w.providers[dnsProfiles[dnsKey][0]]
		lame := w.providers["homepl"] // hosts, never serves DNS for anybody
		referral := func(resp *dns.Message) {
			set := referenceDomainReferral(w, name, dnsKey, zone)
			resp.Authority, resp.Additional = set.auth, set.addl
		}
		for _, tc := range []struct {
			shape   string
			h       dns.Handler
			server  netip.Addr
			qname   string
			qtype   dns.Type
			oracle  func(resp *dns.Message)
			nonzero bool // the shape must carry records for this domain
		}{
			{"tld-referral", tldH[tld], w.tldAddrs[tld][0], name, dns.TypeA, referral, true},
			{"tld-referral-below", tldH[tld], w.tldAddrs[tld][1], "www." + name, dns.TypeNS, referral, true},
			{"unregistered", tldH[tld], w.tldAddrs[tld][0], "x-" + name, dns.TypeNS, func(resp *dns.Message) {
				resp.Authoritative, resp.RCode = true, dns.RCodeNXDomain
				resp.Authority = []dns.RR{dns.NewSOA(zone, "a.tld-servers."+zone, "hostmaster."+zone, uint32(now))}
			}, true},
			{"ns", provH[serving.Key], serving.NSAddrs[0], name, dns.TypeNS, func(resp *dns.Message) {
				resp.Authoritative = true
				resp.Answers = referenceNSAnswers(w, name, dnsKey)
			}, true},
			{"a", provH[serving.Key], serving.NSAddrs[len(serving.NSAddrs)-1], name, dns.TypeA, func(resp *dns.Message) {
				resp.Authoritative = true
				resp.Answers = referenceAAnswers(w, name, hostKey)
			}, true},
			{"mx", provH[serving.Key], serving.NSAddrs[0], name, dns.TypeMX, func(resp *dns.Message) {
				resp.Authoritative = true
				if mp := w.MailProviderFor(cd.d, now); mp != nil && mp.MailHost != "" {
					resp.Answers = referenceMXAnswers(name, mp.MailHost)
				}
			}, false},
			{"soa", provH[serving.Key], serving.NSAddrs[0], name, dns.TypeSOA, func(resp *dns.Message) {
				resp.Authoritative = true
				resp.Answers = []dns.RR{dns.NewSOA(name, serving.NSNames[0], "hostmaster."+name, uint32(now))}
			}, true},
			{"lame", provH[lame.Key], lame.NSAddrs[0], name, dns.TypeNS, func(resp *dns.Message) {
				resp.RCode = dns.RCodeRefused
			}, false},
		} {
			q := dns.NewQuery(uint16(exchanges), tc.qname, tc.qtype)
			exchanges++
			want := q.Reply()
			tc.oracle(want)
			records := len(want.Answers) + len(want.Authority) + len(want.Additional)
			if tc.nonzero && records == 0 {
				t.Fatalf("%s %s on %s: the oracle has no records", tc.shape, name, now)
			}
			if records > 0 {
				shapes[tc.shape]++
			}
			wantWire, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wantMsg, err := dns.Decode(wantWire)
			if err != nil {
				t.Fatal(err)
			}

			got, err := w.Mem.Exchange(ctx, tc.server, q)
			if err != nil {
				t.Fatalf("%s %s on %s: %v", tc.shape, name, now, err)
			}
			if got.Header != wantMsg.Header || !reflect.DeepEqual(got.Questions, wantMsg.Questions) ||
				!reflect.DeepEqual(got.Answers, wantMsg.Answers) || !reflect.DeepEqual(got.Authority, wantMsg.Authority) ||
				!reflect.DeepEqual(got.Additional, wantMsg.Additional) {
				t.Fatalf("%s %s on %s through MemNet:\n%v\nthe oracle:\n%v", tc.shape, name, now, got, wantMsg)
			}
			got.Release()

			owned, err := dns.Decode(mustEncode(t, q))
			if err != nil {
				t.Fatal(err)
			}
			if gotWire := mustEncode(t, tc.h.ServeDNS(owned, netip.Addr{})); !bytes.Equal(gotWire, wantWire) {
				t.Fatalf("%s %s on %s: the handler's own reply encodes to\n%x\nthe oracle's to\n%x", tc.shape, name, now, gotWire, wantWire)
			}
		}
	}
	for _, shape := range []string{"tld-referral", "tld-referral-below", "unregistered", "ns", "a", "mx", "soa"} {
		if shapes[shape] == 0 {
			t.Errorf("no %s answer with records was compared", shape)
		}
	}
	t.Logf("%d exchanges compared; with records: %v", exchanges, shapes)
}

func mustEncode(t *testing.T, m *dns.Message) []byte {
	t.Helper()
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestServedAEqualsHostAddrsFor holds hostPoolIndex to hash/fnv: for every
// domain on every configuration it ever has, the A answer its provider
// serves is hostAddrsFor's list.
func TestServedAEqualsHostAddrsFor(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	for _, cd := range configDays(w) {
		w.Clock().Set(cd.day)
		want := w.hostAddrsFor(cd.name, cd.cfg.hostKey())
		server := w.providers[dnsProfiles[cd.cfg.dnsKey()][0]].NSAddrs[0]
		resp, err := w.Mem.Exchange(ctx, server, dns.NewQuery(1, cd.name, dns.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		var got []netip.Addr
		for _, rr := range resp.Answers {
			got = append(got, rr.Data.(dns.AData).Addr)
		}
		resp.Release()
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s on %s: served %v, hostAddrsFor says %v", cd.name, cd.day, got, want)
		}
	}
}

// fourShapes returns a function that sends the sweep's four questions
// about one domain straight at the wire — its delegation at the TLD, then
// NS, A and MX at a server of its DNS provider — releasing each response,
// and returns how many records came back.
func fourShapes(t testing.TB, w *World, name string, cfg epoch) func() int {
	auth := w.providers[dnsProfiles[cfg.dnsKey()][0]].NSAddrs[0]
	servers := [4]netip.Addr{w.tldAddrs[dns.TLD(name)][0], auth, auth, auth}
	var qs [4]*dns.Message
	for i, qtype := range [4]dns.Type{dns.TypeNS, dns.TypeNS, dns.TypeA, dns.TypeMX} {
		qs[i] = dns.NewQuery(uint16(i), name, qtype)
	}
	ctx := context.Background()
	return func() (records int) {
		for i, q := range qs {
			resp, err := w.Mem.Exchange(ctx, servers[i], q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q.Questions[0].Type, err)
			}
			records += len(resp.Answers) + len(resp.Authority)
			resp.Release()
		}
		return records
	}
}

// TestServingKeepsNothingPerDomain pins the rule the handlers follow:
// authoritative state is O(profiles + providers). Every active domain is
// asked the four questions on three days, twice; between the passes the
// serving state is rebuilt, so the wire's intern table and arenas are
// warm for the second pass while anything a handler memoizes is cold.
// What the second pass leaves on the heap is what serving keeps per
// domain: nothing, where the (domain, profile) answer memo kept
// megabytes.
func TestServingKeepsNothingPerDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	w := getWorld(t)
	asked := 0
	pass := func() {
		for _, day := range []simtime.Day{simtime.StudyStart, simtime.ConflictStart, simtime.StudyEnd} {
			w.Clock().Set(day)
			for d := range w.NumDomains() {
				if cfg, ok := w.domains.configAt(d, day); ok {
					fourShapes(t, w, w.domains.Name(d), cfg)()
					asked++
				}
			}
		}
	}
	pass()
	if err := w.buildServing(); err != nil {
		t.Fatal(err)
	}
	grew := store.LiveHeapBytes(func() any { pass(); return w })
	t.Logf("%d (domain, day) pairs asked; the second pass left %d bytes", asked, grew)
	if asked < 3*2*1800 {
		t.Fatalf("only %d (domain, day) pairs asked", asked)
	}
	if grew > 64<<10 {
		t.Errorf("serving every domain left %d bytes on the heap, want at most 64 KB", grew)
	}
}

// TestServingExchangeAllocs pins the other half: with no memo, the four
// answers a sweep asks for are still assembled without allocating.
func TestServingExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	w := getWorld(t)
	w.Clock().Set(simtime.ConflictStart)
	for _, name := range []string{"sanctioned070.ru.", w.domains.Name(0), w.domains.Name(w.NumDomains() / 2)} {
		d, _ := w.domains.Lookup(name)
		cfg, ok := w.domains.configAt(d, simtime.ConflictStart)
		if !ok {
			continue
		}
		ask := fourShapes(t, w, name, cfg)
		if got := ask(); got < 3 {
			t.Fatalf("%s: %d records over the four questions", name, got)
		}
		if got := testing.AllocsPerRun(200, func() { ask() }); got != 0 {
			t.Errorf("%s: the four exchanges allocate %.1f times, want 0", name, got)
		}
	}
}
